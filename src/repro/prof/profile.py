"""The profile artifact: schema-versioned attribution of one run's wall time.

A :class:`Profile` is what ``repro prof run`` writes and what ``repro
prof report`` reads back: where the wall-clock seconds of one
experiment went, bucketed into named *phases* (heap pop, per-handler
dispatch, sanitizer sweeps, the profiled loop's own residual), plus
per-node totals and per-INV1xx-checker costs.  Everything is wall-clock
*accounting* — virtual time, RNG state, and event order are untouched,
so a profiled run is bit-identical to a bare one (pinned in
``tests/test_determinism.py``).

The JSON layout is append-only within a schema version: new fields may
appear, removals or meaning changes bump ``PROFILE_VERSION``.  Files
written before this tree carry a ``spans`` list (NG leader epochs, now
folded from the trace by ``repro trace summarize``); the reader ignores
it and older readers default it to empty, so the version stayed 1.  The
folded-stack export (:func:`to_folded`) is one ``frame;frame count``
line per phase with integer microsecond counts — the input format of
standard flamegraph renderers (flamegraph.pl, inferno, speedscope).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

PROFILE_VERSION = 1

# Phases synthesized by the profiler itself (not handler-derived).
PHASE_HEAPPOP = "heappop"
PHASE_DISPATCH = "dispatch"
PHASE_SANITIZE = "sanitize"


class ProfileError(Exception):
    """Raised when a profile file cannot be read or understood."""


@dataclass
class PhaseStat:
    """Accumulated cost of one named phase."""

    calls: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"calls": self.calls, "seconds": round(self.seconds, 9)}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseStat":
        return cls(calls=int(data["calls"]), seconds=float(data["seconds"]))

    @property
    def us_per_call(self) -> float:
        if not self.calls:
            return 0.0
        return self.seconds / self.calls * 1e6


@dataclass
class Profile:
    """One run's complete wall-time attribution."""

    meta: dict = field(default_factory=dict)
    wall_setup_seconds: float = 0.0
    wall_simulate_seconds: float = 0.0
    loop_wall_seconds: float = 0.0
    events_processed: int = 0
    phases: dict[str, PhaseStat] = field(default_factory=dict)
    checkers: dict[str, PhaseStat] = field(default_factory=dict)
    # Per-node handler cost, indexed by node id: [calls, seconds].
    nodes: list[list] = field(default_factory=list)

    # -- derived -------------------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        """Seconds the profiler placed into named phases.

        By construction this equals the profiled loop's wall time: the
        ``dispatch`` phase absorbs the loop residual (profiler
        self-cost, branch overhead), so nothing measured goes missing.
        """
        return sum(stat.seconds for stat in self.phases.values())

    @property
    def coverage(self) -> float:
        """Fraction of the simulate wall attributed to named phases.

        The gap is work outside the dispatch loop — scheduler start and
        stop, the between-``run()`` seam — so on real runs this sits
        near 1.0 (the acceptance bound is >= 0.95 at 1000 nodes).
        """
        if self.wall_simulate_seconds <= 0:
            return 0.0
        return min(self.attributed_seconds / self.wall_simulate_seconds, 1.0)

    def top_phases(self, top: int | None = None) -> list[tuple[str, PhaseStat]]:
        ranked = sorted(
            self.phases.items(), key=lambda item: (-item[1].seconds, item[0])
        )
        return ranked if top is None else ranked[:top]

    def top_nodes(self, top: int = 5) -> list[tuple[int, int, float]]:
        """``(node_id, calls, seconds)`` triples, costliest first."""
        ranked = sorted(
            (
                (node, int(calls), float(seconds))
                for node, (calls, seconds) in enumerate(self.nodes)
                if calls
            ),
            key=lambda item: (-item[2], item[0]),
        )
        return ranked[:top]

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "profile_version": PROFILE_VERSION,
            "meta": self.meta,
            "wall_setup_seconds": round(self.wall_setup_seconds, 9),
            "wall_simulate_seconds": round(self.wall_simulate_seconds, 9),
            "loop_wall_seconds": round(self.loop_wall_seconds, 9),
            "events_processed": self.events_processed,
            "attributed_seconds": round(self.attributed_seconds, 9),
            "coverage": round(self.coverage, 6),
            "phases": {
                name: stat.to_dict() for name, stat in sorted(self.phases.items())
            },
            "checkers": {
                code: stat.to_dict()
                for code, stat in sorted(self.checkers.items())
            },
            "nodes": [
                [int(calls), round(float(seconds), 9)]
                for calls, seconds in self.nodes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        version = data.get("profile_version")
        if version != PROFILE_VERSION:
            raise ProfileError(
                f"unsupported profile version {version!r} "
                f"(this tree reads version {PROFILE_VERSION})"
            )
        return cls(
            meta=dict(data.get("meta", {})),
            wall_setup_seconds=float(data.get("wall_setup_seconds", 0.0)),
            wall_simulate_seconds=float(data.get("wall_simulate_seconds", 0.0)),
            loop_wall_seconds=float(data.get("loop_wall_seconds", 0.0)),
            events_processed=int(data.get("events_processed", 0)),
            phases={
                name: PhaseStat.from_dict(stat)
                for name, stat in data.get("phases", {}).items()
            },
            checkers={
                code: PhaseStat.from_dict(stat)
                for code, stat in data.get("checkers", {}).items()
            },
            nodes=[
                [int(calls), float(seconds)]
                for calls, seconds in data.get("nodes", [])
            ],
        )

    def save(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target


def load_profile(path: str | Path) -> Profile:
    """Read a ``.prof.json`` file back into a :class:`Profile`."""
    target = Path(path)
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ProfileError(f"cannot read {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{target}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProfileError(f"{target}: expected a JSON object")
    return Profile.from_dict(data)


def to_folded(profile: Profile) -> str:
    """The folded-stack flamegraph export: ``frame;frame count`` lines.

    Counts are integer microseconds.  The simulate-phase stacks hang off
    a root ``simulate`` frame (with sanitizer sweeps one level deeper,
    split per checker); setup is its own root.  Feed the result to any
    folded-stack renderer, e.g. ``flamegraph.pl run.folded > run.svg``.
    """
    lines: list[str] = []

    def emit(frames: list[str], seconds: float) -> None:
        micros = round(seconds * 1e6)
        if micros > 0:
            lines.append(f"{';'.join(frames)} {micros}")

    emit(["setup"], profile.wall_setup_seconds)
    checker_total = sum(stat.seconds for stat in profile.checkers.values())
    for name, stat in sorted(profile.phases.items()):
        if name == PHASE_SANITIZE and profile.checkers:
            for code, cstat in sorted(profile.checkers.items()):
                emit(["simulate", PHASE_SANITIZE, code], cstat.seconds)
            # Sweep machinery not inside any one checker call (chain
            # walking, dedupe bookkeeping, digest captures).
            emit(
                ["simulate", PHASE_SANITIZE, "(sweep)"],
                stat.seconds - checker_total,
            )
        else:
            emit(["simulate", name], stat.seconds)
    return "\n".join(lines) + "\n" if lines else ""
