"""The mutation engine: shadow trees, tiered kills, verdict caching.

Every mutant runs the same gauntlet, cheapest tier first, stopping at
the first kill:

1. **sanitizer** / 2. **golden** — one subprocess probe
   (``python -m repro.mutate.probe``) against a mutated shadow tree
   runs a short Bitcoin-NG simulation with the adapter's invariant
   checkers in incremental mode.  Violations kill at the sanitizer
   tier; a crash, hang, or digest-fingerprint divergence from the clean
   baseline kills at the golden tier.  A tier left out of ``tiers``
   scores nothing, so ``--tiers golden,tests`` measures what the later
   tiers kill without the sanitizer.
3. **tests** — the mutated file's companion tier-1 module
   (``src/repro/core/chain.py`` → ``tests/test_core_chain.py``), plus
   any cross-module oracle :data:`ORACLE_TESTS` names for the file,
   under ``pytest -x``; a failure kills, and a file with neither skips
   the tier.

Mutants that outlive all three tiers are *survivors*: each must either
grow a new rule/invariant that kills it or be catalogued with a
rationale in ``docs/mutation.md`` (the allowlist the CI gate enforces).

Shadow trees are hardlink farms: building one costs directory entries,
not bytes, and mutation is unlink-then-write so the original inode is
never touched.  Verdicts cache on ``(file sha, mutant id)`` — mutant
ids are line-free, so editing *other* files (or refactoring this one
without changing the mutated span's text) keeps verdicts warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..clock import wall_clock
from ..experiments.parallel import SweepExecutor
from ..lint.engine import collect_files
from .operators import (
    CATALOG_VERSION,
    OPERATORS,
    OPERATORS_BY_NAME,
    Mutant,
    MutationOperator,
    generate_mutants,
)
from .sites import TARGET_PACKAGES, enumerate_sites

#: Bump when verdict semantics change; invalidates every cached verdict.
ENGINE_VERSION = 1

#: Tier order is the kill pipeline order (sanitizer/golden share a probe).
TIERS: tuple[str, ...] = ("sanitizer", "golden", "tests")

#: Wall-clock limits on the two subprocess tiers; a mutant that hangs
#: past them is killed, not waited on.
PROBE_TIMEOUT = 30.0
PYTEST_TIMEOUT = 60.0

#: Cross-module oracles the tests tier runs after a file's companion:
#: Bitcoin is NG without microblocks (both fork-choice paths), and so
#: is GHOST under GHOST-NG (one rule over both trees), the
#: recursive Merkle oracle is the only check of duplication above the
#: leaves, and the contention-free propagation oracle times every
#: delivery (ready for when ``repro.net`` joins the sites).
ORACLE_TESTS: dict[str, tuple[str, ...]] = {
    "src/repro/bitcoin/chain.py": ("tests/test_ng_without_microblocks.py",),
    "src/repro/core/chain.py": ("tests/test_ng_without_microblocks.py",),
    "src/repro/core/ghost_ng.py": ("tests/test_ng_without_microblocks.py",),
    "src/repro/crypto/merkle.py": ("tests/test_properties_crypto.py",),
    "src/repro/ghost/chain.py": ("tests/test_ng_without_microblocks.py",),
    "src/repro/net/gossip.py": ("tests/test_net_propagation_oracle.py",),
    "src/repro/net/network.py": ("tests/test_net_propagation_oracle.py",),
}

#: How the tests tier runs pytest.  Plain asserts skip the rewriting of
#: every imported test and plugin module, most of a run's start-up; a
#: failing test still fails, with a shorter message.
PYTEST_ARGS: tuple[str, ...] = (
    "-x",
    "-q",
    "-p",
    "no:cacheprovider",
    "--assert=plain",
)

#: The source tree, relative to the repo root a run is given.
SRC_ROOT = "src"

DEFAULT_CACHE = Path(".mutate-cache.json")
DEFAULT_REPORT = Path(".mutate-report.json")


@dataclass(frozen=True)
class MutantVerdict:
    """The pipeline's final word on one mutant."""

    mutant_id: str
    operator: str
    path: str
    qualname: str
    description: str
    lineno: int
    status: str  #: ``"killed"`` or ``"survived"``
    tier: str  #: killing tier, or ``""`` for survivors
    detail: str  #: what killed it (rule code, INV code, divergence, test)
    seconds: float = 0.0
    cached: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "mutant_id": self.mutant_id,
            "operator": self.operator,
            "path": self.path,
            "qualname": self.qualname,
            "description": self.description,
            "lineno": self.lineno,
            "status": self.status,
            "tier": self.tier,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MutantVerdict":
        return cls(
            mutant_id=data["mutant_id"],
            operator=data["operator"],
            path=data["path"],
            qualname=data["qualname"],
            description=data["description"],
            lineno=int(data["lineno"]),
            status=data["status"],
            tier=data["tier"],
            detail=data["detail"],
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class MutantTask:
    """Everything one worker needs to evaluate one mutant (picklable)."""

    mutant: Mutant
    repo_root: str
    tree_sha: str  #: clean-tree content sha; keys the worker memo
    baseline_fingerprint: tuple[Any, ...]
    tiers: tuple[str, ...] = TIERS


@dataclass
class MutationRun:
    """One full engine run: verdicts plus provenance."""

    verdicts: list[MutantVerdict] = field(default_factory=list)
    n_files: int = 0
    n_sites: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    baseline_fingerprint: tuple[Any, ...] = ()

    @property
    def killed(self) -> list[MutantVerdict]:
        return [v for v in self.verdicts if v.status == "killed"]

    @property
    def survivors(self) -> list[MutantVerdict]:
        return [v for v in self.verdicts if v.status == "survived"]

    @property
    def score(self) -> float:
        if not self.verdicts:
            return 1.0
        return len(self.killed) / len(self.verdicts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": ENGINE_VERSION,
            "catalog_version": CATALOG_VERSION,
            "n_files": self.n_files,
            "n_sites": self.n_sites,
            "n_mutants": len(self.verdicts),
            "n_killed": len(self.killed),
            "n_survived": len(self.survivors),
            "score": round(self.score, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": round(self.wall_seconds, 3),
            "baseline_fingerprint": list(self.baseline_fingerprint),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MutationRun":
        run = cls(
            verdicts=[
                MutantVerdict.from_dict(v) for v in data.get("verdicts", [])
            ],
            n_files=int(data.get("n_files", 0)),
            n_sites=int(data.get("n_sites", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            baseline_fingerprint=tuple(data.get("baseline_fingerprint", ())),
        )
        return run


# -- shadow trees ------------------------------------------------------------


class ShadowTree:
    """A hardlink copy of the source tree that can host one mutant.

    Mutation is unlink-then-write: writing *through* a hardlink would
    corrupt the real tree, so the link is removed first and a fresh
    inode carries the mutated bytes.  :meth:`restore` relinks the
    original.
    """

    def __init__(self, repo_root: Path, src_root: str, shadow_dir: Path):
        self.repo_root = repo_root
        self.src_root = src_root
        self.shadow_dir = shadow_dir
        self._mutated: Path | None = None
        self._build()

    @property
    def src_path(self) -> Path:
        return self.shadow_dir / self.src_root

    def _build(self) -> None:
        source = self.repo_root / self.src_root
        for path in sorted(source.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(self.repo_root)
            target = self.shadow_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            if target.exists():
                target.unlink()
            try:
                os.link(path, target)
            except OSError:  # cross-device fallback
                target.write_bytes(path.read_bytes())

    def mutate(self, display_path: str, mutated_source: str) -> None:
        self.restore()
        target = self.shadow_dir / display_path
        target.unlink()
        target.write_text(mutated_source, encoding="utf-8")
        self._mutated = target

    def restore(self) -> None:
        if self._mutated is None:
            return
        rel = self._mutated.relative_to(self.shadow_dir)
        self._mutated.unlink()
        original = self.repo_root / rel
        try:
            os.link(original, self._mutated)
        except OSError:
            self._mutated.write_bytes(original.read_bytes())
        self._mutated = None


# -- worker state ------------------------------------------------------------

#: Per-process memo: the worker's shadow tree.
#: Workers are forked/spawned per pool, so module globals are private.
_WORKER: dict[str, Any] = {}


def _shadow_dir(repo_root: Path, pid: int) -> Path:
    return repo_root / ".mutate-shadow" / f"w{pid}"


def _worker_state(task: MutantTask) -> dict[str, Any]:
    key = (task.repo_root, task.tree_sha)
    if _WORKER.get("key") != key:
        repo_root = Path(task.repo_root)
        shadow_dir = _shadow_dir(repo_root, os.getpid())
        shadow_dir.mkdir(parents=True, exist_ok=True)
        _WORKER.clear()
        _WORKER.update(
            key=key,
            shadow=ShadowTree(repo_root, SRC_ROOT, shadow_dir),
        )
    return _WORKER


def _probe_env(shadow_src: Path) -> dict[str, str]:
    # Subprocess probes need the parent environment (PATH, interpreter
    # config) with only PYTHONPATH redirected at the shadow tree.
    env = dict(os.environ)  # repro: allow[NG202]
    env["PYTHONPATH"] = str(shadow_src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- tiers -------------------------------------------------------------------


def _probe_tier(
    task: MutantTask, state: dict[str, Any]
) -> tuple[str, str] | None:
    """Sanitizer/golden verdict from one probe run, or ``None``.

    Only a tier in ``task.tiers`` scores: without ``golden`` a crash or
    a moved fingerprint kills nothing, and without ``sanitizer``
    violations are ignored.
    """
    for tier, detail in _probe_kills(task, state):
        if tier in task.tiers:
            return tier, detail
    return None


def _probe_kills(
    task: MutantTask, state: dict[str, Any]
) -> Iterator[tuple[str, str]]:
    """Every (tier, detail) kill one probe run supports, in tier order."""
    shadow: ShadowTree = state["shadow"]
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro.mutate.probe"],
            cwd=task.repo_root,
            env=_probe_env(shadow.src_path),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        yield ("golden", "probe timeout (likely non-terminating mutant)")
        return
    try:
        payload = json.loads(completed.stdout)
    except json.JSONDecodeError:
        tail = (completed.stderr or completed.stdout).strip()[-160:]
        yield ("golden", f"probe crashed: {tail or 'no output'}")
        return
    if not payload.get("ok", False):
        error = str(payload.get("error", "")).strip().splitlines()
        yield ("golden", f"probe raised: {error[-1] if error else '?'}")
        return
    violations = payload.get("violations", [])
    if violations:
        codes = sorted({v["code"] for v in violations})
        yield ("sanitizer", f"invariant violation: {', '.join(codes)}")
    fingerprint = tuple(
        tuple(part) if isinstance(part, list) else part
        for part in payload.get("fingerprint", [])
    )
    baseline = tuple(
        tuple(part) if isinstance(part, list) else part
        for part in task.baseline_fingerprint
    )
    if fingerprint != baseline:
        yield ("golden", "state fingerprint diverged from clean baseline")


def companion_tests(display_path: str) -> tuple[str, ...]:
    """``src/repro/<pkg>/<mod>.py`` → ``tests/test_<pkg>_<mod>.py``,
    then the file's :data:`ORACLE_TESTS`."""
    parts = Path(display_path).with_suffix("").parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        tail = parts[anchor + 1 :]
    else:
        tail = parts[-1:]
    companion = f"tests/test_{'_'.join(tail)}.py"
    return (companion, *ORACLE_TESTS.get(display_path, ()))


def _tests_tier(task: MutantTask, state: dict[str, Any]) -> str | None:
    shadow: ShadowTree = state["shadow"]
    test_files = [
        test_file
        for test_file in companion_tests(task.mutant.path)
        if (Path(task.repo_root) / test_file).exists()
    ]
    if not test_files:
        return None
    try:
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                *test_files,
                *PYTEST_ARGS,
            ],
            cwd=task.repo_root,
            env=_probe_env(shadow.src_path),
            capture_output=True,
            text=True,
            timeout=PYTEST_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return f"{' '.join(test_files)} timed out"
    if completed.returncode == 0:
        return None
    for line in completed.stdout.splitlines():
        if line.startswith("FAILED") or line.startswith("ERROR"):
            return line[:160]
    return f"{' '.join(test_files)} failed (exit {completed.returncode})"


def _evaluate_mutant(task: MutantTask) -> MutantVerdict:
    """Top-level worker entry point (picklable for the pool)."""
    state = _worker_state(task)
    mutant = task.mutant
    started = wall_clock()
    original = (Path(task.repo_root) / mutant.path).read_text(
        encoding="utf-8"
    )
    mutated_source = mutant.apply(original)

    def verdict(status: str, tier: str, detail: str) -> MutantVerdict:
        return MutantVerdict(
            mutant_id=mutant.mutant_id,
            operator=mutant.operator,
            path=mutant.path,
            qualname=mutant.qualname,
            description=mutant.description,
            lineno=mutant.lineno,
            status=status,
            tier=tier,
            detail=detail,
            seconds=wall_clock() - started,
        )

    needs_probe = "sanitizer" in task.tiers or "golden" in task.tiers
    shadow: ShadowTree = state["shadow"]
    try:
        if needs_probe or "tests" in task.tiers:
            shadow.mutate(mutant.path, mutated_source)
        if needs_probe:
            hit = _probe_tier(task, state)
            if hit is not None:
                tier, detail = hit
                return verdict("killed", tier, detail)
        if "tests" in task.tiers:
            detail = _tests_tier(task, state)
            if detail is not None:
                return verdict("killed", "tests", detail)
    finally:
        shadow.restore()
    return verdict("survived", "", "outlived every tier")


# -- the engine --------------------------------------------------------------


def content_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _tree_sha(src: Path) -> str:
    """One sha over every ``(path, file sha)`` pair of the source tree:
    the clean baseline depends on every module, not only the sites."""
    digest = hashlib.sha256()
    for path in collect_files([src]):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(content_sha(path.read_text(encoding="utf-8")).encode())
    return digest.hexdigest()[:16]


def _config_sig(tiers: tuple[str, ...]) -> str:
    """What a cached verdict depends on beyond the file and mutant:
    engine, catalog, probe source, the tiers that scored it (a
    survivor of ``--tiers golden,tests`` may die at the sanitizer), and
    the oracles and pytest flags the tests tier runs."""
    probe_src = (Path(__file__).parent / "probe.py").read_bytes()
    basis = (
        f"engine={ENGINE_VERSION}:catalog={CATALOG_VERSION}:"
        f"probe={hashlib.sha256(probe_src).hexdigest()[:12]}:"
        f"tiers={','.join(tiers)}:oracles={sorted(ORACLE_TESTS.items())}:"
        f"pytest={' '.join(PYTEST_ARGS)}"
    )
    return hashlib.sha256(basis.encode()).hexdigest()[:12]


class VerdictCache:
    """Content-addressed verdict store on ``(file sha, mutant id)``."""

    def __init__(self, path: Path | None, tiers: tuple[str, ...]):
        self.path = path
        self.sig = _config_sig(tiers)
        self.baselines: dict[str, list[Any]] = {}
        self.verdicts: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if path is not None and path.exists():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                data = {}
            if (
                isinstance(data, dict)
                and data.get("config_sig") == self.sig
            ):
                self.baselines = dict(data.get("baselines", {}))
                self.verdicts = dict(data.get("verdicts", {}))

    @staticmethod
    def key(file_sha: str, mutant_id: str) -> str:
        return f"{file_sha[:12]}:{mutant_id}"

    def lookup(self, file_sha: str, mutant_id: str) -> MutantVerdict | None:
        entry = self.verdicts.get(self.key(file_sha, mutant_id))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return replace(MutantVerdict.from_dict(entry), cached=True)

    def store(self, file_sha: str, verdict: MutantVerdict) -> None:
        self.verdicts[self.key(file_sha, verdict.mutant_id)] = (
            verdict.to_dict()
        )

    def save(self) -> None:
        if self.path is None:
            return
        payload = {
            "config_sig": self.sig,
            "baselines": self.baselines,
            "verdicts": dict(sorted(self.verdicts.items())),
        }
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass  # best-effort: a lost cache only costs a cold run


class BaselineError(RuntimeError):
    """The *clean* tree failed the probe — nothing can be scored."""


class MutationEngine:
    """Coordinates enumeration, generation, fan-out, and caching."""

    def __init__(
        self,
        repo_root: Path | str = ".",
        *,
        cache_path: Path | None = DEFAULT_CACHE,
        jobs: int | None = None,
        tiers: tuple[str, ...] = TIERS,
        operators: tuple[MutationOperator, ...] = OPERATORS,
    ) -> None:
        self.repo_root = Path(repo_root).resolve()
        self.cache = VerdictCache(
            self.repo_root / cache_path if cache_path else None, tiers
        )
        self.jobs = jobs
        self.tiers = tiers
        self.operators = operators

    def baseline_fingerprint(self, tree_sha: str) -> tuple[Any, ...]:
        """The clean tree's probe fingerprint (cached by tree sha)."""
        cached = self.cache.baselines.get(tree_sha)
        if cached is not None:
            return tuple(
                tuple(p) if isinstance(p, list) else p for p in cached
            )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.mutate.probe"],
            cwd=self.repo_root,
            env=_probe_env(self.repo_root / SRC_ROOT),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT,
        )
        try:
            payload = json.loads(completed.stdout)
        except json.JSONDecodeError as exc:
            raise BaselineError(
                f"clean probe produced no JSON: {completed.stderr[-200:]}"
            ) from exc
        if not payload.get("ok", False):
            raise BaselineError(
                f"clean probe raised: {payload.get('error', '?')}"
            )
        if payload.get("violations"):
            raise BaselineError(
                "clean tree has invariant violations; fix those before "
                "measuring mutation adequacy"
            )
        fingerprint = payload["fingerprint"]
        self.cache.baselines[tree_sha] = fingerprint
        return tuple(
            tuple(p) if isinstance(p, list) else p for p in fingerprint
        )

    def collect_mutants(
        self,
        packages: tuple[str, ...] = TARGET_PACKAGES,
        *,
        only_files: Iterable[str] | None = None,
        max_mutants: int | None = None,
    ) -> tuple[list[Mutant], dict[str, str], int]:
        """(mutants, file shas, n_sites) for one run's scope."""
        sites = enumerate_sites(self.repo_root / SRC_ROOT, packages)
        # Display paths are repo-relative, so shadow paths line up.
        site_files = {
            Path(path).relative_to(self.repo_root).as_posix(): names
            for path, names in sites.files.items()
        }

        wanted = None
        if only_files is not None:
            wanted = {Path(f).as_posix() for f in only_files}

        mutants: list[Mutant] = []
        file_shas: dict[str, str] = {}
        for display_path in sorted(site_files):
            if wanted is not None and display_path not in wanted:
                continue
            source = (self.repo_root / display_path).read_text(
                encoding="utf-8"
            )
            file_shas[display_path] = content_sha(source)
            mutants.extend(
                generate_mutants(
                    display_path,
                    source,
                    set(site_files[display_path]),
                    self.operators,
                )
            )
        if max_mutants is not None:
            mutants = mutants[:max_mutants]
        return mutants, file_shas, sites.n_sites

    def run(
        self,
        packages: tuple[str, ...] = TARGET_PACKAGES,
        *,
        only_files: Iterable[str] | None = None,
        max_mutants: int | None = None,
        progress: Callable[[int, int, MutantVerdict], None] | None = None,
    ) -> MutationRun:
        started = wall_clock()
        mutants, file_shas, n_sites = self.collect_mutants(
            packages, only_files=only_files, max_mutants=max_mutants
        )
        tree_sha = _tree_sha(self.repo_root / SRC_ROOT)
        baseline = self.baseline_fingerprint(tree_sha)

        cached: dict[str, MutantVerdict] = {}
        todo: list[Mutant] = []
        for mutant in mutants:
            hit = self.cache.lookup(
                file_shas[mutant.path], mutant.mutant_id
            )
            if hit is not None:
                cached[mutant.mutant_id] = hit
            else:
                todo.append(mutant)

        tasks = [
            MutantTask(
                mutant=mutant,
                repo_root=str(self.repo_root),
                tree_sha=tree_sha,
                baseline_fingerprint=baseline,
                tiers=self.tiers,
            )
            for mutant in todo
        ]
        fresh: list[MutantVerdict] = []
        if tasks:
            executor = SweepExecutor(self.jobs)
            before = set(self.repo_root.glob(".mutate-shadow/w*"))
            try:
                fresh = executor.map_tasks(_evaluate_mutant, tasks, progress)
            finally:
                # The run's trees: its pool workers', and this process's
                # when the tasks ran in-process, whose memo goes too.
                ours = set(self.repo_root.glob(".mutate-shadow/w*")) - before
                ours.add(_shadow_dir(self.repo_root, os.getpid()))
                for tree in ours:
                    shutil.rmtree(tree, ignore_errors=True)
                _WORKER.clear()
        for verdict in fresh:
            self.cache.store(file_shas[verdict.path], verdict)
        self.cache.save()

        by_id = dict(cached)
        by_id.update({v.mutant_id: v for v in fresh})
        verdicts = [by_id[m.mutant_id] for m in mutants]
        return MutationRun(
            verdicts=verdicts,
            n_files=len(file_shas),
            n_sites=n_sites,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            wall_seconds=wall_clock() - started,
            baseline_fingerprint=baseline,
        )
