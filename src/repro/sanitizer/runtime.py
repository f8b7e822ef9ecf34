"""The sanitizer runtime: event-boundary sweeps over live node state.

:class:`SanitizerRuntime` attaches to the simulator's observer seam
(:meth:`~repro.net.simulator.Simulator.attach`; it leaves the heap pop
alone and asks for the after-event probe) and, every
``stride`` processed events, sweeps each node.  There is one sweep
strategy: a node is dirty iff its main-chain tip moved since the last
sweep, and clean nodes are skipped.  For dirty nodes, block checkers
run once per newly adopted main-chain block (oldest first) and every
state checker's
:meth:`~repro.sanitizer.checkers.InvariantChecker.check_state` runs
once.  INV104 additionally looks signature verdicts up in the
process-wide :class:`~repro.sanitizer.checkers.SignatureCache`, which
outlives the run (within one run each ``Microblock`` already memoises
its verdict).

**audit** mode runs the same sweeps *plus* a periodic from-scratch
walk (every ``audit_stride`` sweeps and once at finalize) using fresh
replica checkers that share no state with the live set (the signature
replica consults no ``SignatureCache`` at all): every
node's whole main chain through every block hook, every state hook
unconditionally.  It is the independent reference for the sweep: any
audit finding the incremental path has not already reported is a
dirty-tracking or cache bug in the sanitizer itself and is surfaced as
an ``audit-divergence`` violation alongside the missed finding.
Transient violations that appeared and cleared between audits are
legitimately absent from an audit, so the asserted relation is *audit
findings ⊆ incremental findings*, per ``(code, node)``.

Violations are collected (deduplicated per ``(code, node)`` so one
broken invariant does not flood the report) and, when a tracer is
attached, emitted as schema-v1 ``invariant_violation`` trace events.

The nodes the runtime was installed with stay readable as ``nodes``
after :meth:`SanitizerRuntime.finalize`, which is how callers take an
end-of-run :func:`~repro.sanitizer.digests.state_fingerprint`.

Everything here is read-only with respect to simulation state: no
events scheduled, no RNG draws, no node mutation.  That is the whole
bit-identicality argument, and ``tests/test_determinism.py`` pins it.
Skipping a read (the dirty tracker's only trick) is trivially
unobservable to the simulation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from ..clock import wall_clock
from .checkers import InvariantChecker
from .violations import ViolationRecord, make_violation

if TYPE_CHECKING:
    from ..bitcoin.blocks import Block
    from ..bitcoin.node import ChainNode
    from ..net.simulator import Simulator
    from ..obs.trace import Tracer
    from ..prof.runtime import ProfilerRuntime

#: Check modes the runtime understands (``audit`` = incremental sweeps
#: + periodic from-scratch cross-checks).
RUNTIME_MODES = ("incremental", "audit")

#: Audit cadence, in *sweeps* (not events), for ``mode="audit"``.  Each
#: audit re-walks every node's entire main chain from scratch, so the
#: cadence is deliberately sparse — with the default event stride of 64
#: this is one audit per ~64k simulator events, plus the unconditional
#: audit at finalize.
DEFAULT_AUDIT_STRIDE = 1024

#: A node's tip hash, read with no Python-level call: the ``_tip``
#: behind its block tree's ``tip`` property.
_tip_of = attrgetter("chain._tip")


class AuditDivergence(InvariantChecker):
    """Marker for audit findings the incremental path missed.

    Not a protocol invariant: it flags a bug in the *sanitizer* — the
    dirty-set tracker skipped a node it should not have, or the
    signature cache served a wrong verdict.  Recorded alongside the
    missed finding itself.
    """

    code = "SAN901"
    name = "audit-divergence"
    description = (
        "The periodic full-sweep audit found a violation the "
        "incremental path had not reported."
    )


class _TimedChecker:
    """A checker whose block/state hook calls are timed for a profiler.

    Same call, same return value — bracketed by two
    :func:`~repro.clock.wall_clock` reads whose difference goes to
    ``profiler.record_checker`` under the checker's invariant code.
    Checkers return eager lists, so timing the call captures the whole
    verification cost.  Built only when a profiler is attached, so
    unprofiled checked runs never pay the clock reads.
    """

    def __init__(
        self, checker: InvariantChecker, profiler: ProfilerRuntime
    ) -> None:
        self.code = checker.code
        self._check_block = checker.check_block
        self._check_state = checker.check_state
        self._record = profiler.record_checker

    def check_block(
        self, node: ChainNode, node_id: int, block: Block, now: float
    ) -> list[ViolationRecord]:
        started = wall_clock()
        violations = self._check_block(node, node_id, block, now)
        self._record(self.code, wall_clock() - started)
        return violations

    def check_state(
        self, node: ChainNode, node_id: int, now: float
    ) -> list[ViolationRecord]:
        started = wall_clock()
        violations = self._check_state(node, node_id, now)
        self._record(self.code, wall_clock() - started)
        return violations


class SanitizerRuntime:
    """Runs invariant checkers during a simulation."""

    def __init__(
        self,
        checkers: Iterable[InvariantChecker],
        *,
        stride: int = 64,
        mode: str = "incremental",
        audit_stride: int | None = None,
        tracer: Tracer | None = None,
        profiler: ProfilerRuntime | None = None,
    ) -> None:
        if mode not in RUNTIME_MODES:
            raise ValueError(
                f"unknown sanitizer mode {mode!r} (choose from {RUNTIME_MODES})"
            )
        self.checkers = list(checkers)
        self.stride = max(1, int(stride))
        self.mode = mode
        self.tracer = tracer
        if audit_stride is None:
            audit_stride = DEFAULT_AUDIT_STRIDE if mode == "audit" else 0
        self.audit_stride = max(0, int(audit_stride))
        self.violations: list[ViolationRecord] = []
        self.sweeps = 0
        self.audits = 0
        self._sim: Simulator | None = None
        self.nodes: Sequence[ChainNode] = ()
        self._seen_blocks: list[set[bytes]] = []
        self._reported: set[tuple[str, int]] = set()
        self._sweep_countdown = self.stride
        self._audit_countdown = self.audit_stride
        # Dirty tracking: the tip hash each node had at its last
        # sweep; None = never swept.
        self._last_tip: list[bytes | None] = []
        # Fresh uncached replicas for the periodic audit, built lazily.
        self._audit_checkers: list[InvariantChecker] | None = None
        self._audit_marker = AuditDivergence()
        base = InvariantChecker
        # Partitions for the sweep: skip hook calls that are base-class
        # no-ops.
        self._block_checkers: list[InvariantChecker | _TimedChecker] = [
            checker
            for checker in self.checkers
            if type(checker).check_block is not base.check_block
        ]
        self._state_checkers: list[InvariantChecker | _TimedChecker] = [
            checker
            for checker in self.checkers
            if type(checker).check_state is not base.check_state
        ]
        if profiler is not None:
            # A repro.prof ProfilerRuntime: attribute wall time per
            # invariant code by wrapping each partitioned checker once.
            # Call order, violation recording, and everything the
            # simulation can observe are unchanged.
            self._block_checkers = [
                _TimedChecker(checker, profiler)
                for checker in self._block_checkers
            ]
            self._state_checkers = [
                _TimedChecker(checker, profiler)
                for checker in self._state_checkers
            ]

    # -- lifecycle ------------------------------------------------------

    def install(self, sim: Simulator, nodes: Sequence[ChainNode]) -> None:
        """Attach to a simulator and the nodes to sweep."""
        self._sim = sim
        self.nodes = list(nodes)
        self._seen_blocks = [set() for _ in self.nodes]
        self._last_tip = [None for _ in self.nodes]
        sim.attach(self)

    def finalize(self) -> None:
        """Final sweep (+ audit), then detach from the simulator."""
        if self._sim is None:
            return
        self._sweep()
        if self.checkers and self.audit_stride > 0:
            self._audit()
        self._sim.detach(self)
        self._sim = None

    # -- the probe ------------------------------------------------------

    def wrap_dispatch(self, heappop, probe):
        """The observer seam: leave the pop alone, run ``_probe`` per event.

        An earlier observer's probe (none in the shipped wiring — the
        sanitizer attaches first) keeps running, ahead of this one.
        """
        if probe is None:
            return heappop, self._probe

        def chained() -> None:
            probe()
            self._probe()

        return heappop, chained

    def _probe(self) -> None:
        self._sweep_countdown -= 1
        if self._sweep_countdown <= 0:
            self._sweep_countdown = self.stride
            self._sweep()

    # -- sweeping -------------------------------------------------------

    def _sweep(self) -> None:
        if not self.checkers or self._sim is None:
            return
        self._sweep_incremental()
        if self.audit_stride > 0:
            self._audit_countdown -= 1
            if self._audit_countdown <= 0:
                self._audit_countdown = self.audit_stride
                self._audit()

    def _sweep_incremental(self) -> None:
        self.sweeps += 1
        nodes = self.nodes
        tips = list(map(_tip_of, nodes))
        last = self._last_tip
        if tips == last:
            return
        moved = [index for index, tip in enumerate(tips) if tip != last[index]]
        self._last_tip = tips
        now = self._sim.now
        for index in moved:
            node = nodes[index]
            get = node.chain.get
            node_id = node.node_id
            seen = self._seen_blocks[index]
            fresh = []
            cursor = get(tips[index])
            while cursor is not None and cursor.hash not in seen:
                fresh.append(cursor)
                cursor = get(cursor.header.prev_hash)
            for block in reversed(fresh):
                seen.add(block.hash)
                for checker in self._block_checkers:
                    for violation in checker.check_block(
                        node, node_id, block, now
                    ):
                        self._record(violation)
            for checker in self._state_checkers:
                for violation in checker.check_state(node, node_id, now):
                    self._record(violation)

    # -- the audit ------------------------------------------------------

    def _audit_replicas(self) -> list[InvariantChecker]:
        """Fresh checker instances for the from-scratch audit.

        Built once and reused across audits (stateful checkers like
        tip-monotonicity then track across audit points too).

        The INV104 replica is built with ``cache=None``: it calls
        ``block.verify_signature`` directly, so a wrong verdict in the
        process-wide :class:`~repro.sanitizer.checkers.SignatureCache`
        cannot leak into the audit.  Repeat audits of the same chain
        prefix stay cheap because each ``Microblock`` memoises its own
        verdict per key.
        """
        if self._audit_checkers is None:
            self._audit_checkers = [
                type(checker)() for checker in self.checkers
            ]
        return self._audit_checkers

    def _audit(self) -> None:
        """From-scratch full sweep cross-checking the incremental path.

        Walks every node's entire main chain (ignoring the seen-sets)
        and runs every replica checker's block and state hooks.  Any
        finding whose ``(code, node)`` the incremental path has not
        reported is recorded, plus an ``audit-divergence`` marker.
        """
        if self._sim is None:
            return
        now = self._sim.now
        self.audits += 1
        replicas = self._audit_replicas()
        findings: list[ViolationRecord] = []
        for node in self.nodes:
            node_id = node.node_id
            chain = node.chain
            cursor: Block | None = chain.tip_block
            blocks = []
            while cursor is not None:
                blocks.append(cursor)
                cursor = chain.get(cursor.header.prev_hash)
            for block in reversed(blocks):
                for checker in replicas:
                    findings.extend(
                        checker.check_block(node, node_id, block, now)
                    )
            for checker in replicas:
                findings.extend(checker.check_state(node, node_id, now))
        for violation in findings:
            if (violation.code, violation.node) in self._reported:
                continue
            self._record(violation)
            self._record(
                make_violation(
                    self._audit_marker,
                    violation.node,
                    now,
                    "full-sweep audit caught a violation the incremental "
                    "path missed",
                    missed_code=violation.code,
                    audit=self.audits,
                )
            )

    def _record(self, violation: ViolationRecord) -> None:
        key = (violation.code, violation.node)
        if key in self._reported:
            return
        self._reported.add(key)
        self.violations.append(violation)
        if self.tracer is not None:
            self.tracer.emit(
                "invariant_violation", violation.time, **violation.to_dict()
            )


def sanitizer_for(
    config,
    *,
    tracer: Tracer | None = None,
    profiler: ProfilerRuntime | None = None,
) -> SanitizerRuntime | None:
    """The runtime ``config`` asks for, or ``None`` for an unchecked one.

    A checked config (``config.check``) gets its protocol adapter's
    checkers in ``config.check_mode`` on ``config.check_stride``.  Sweep
    workers rebuild the same runtime from the same config, which is how
    a pool cell is checked like a serial run.
    """
    if not config.check:
        return None
    from ..protocols import get_adapter

    return SanitizerRuntime(
        get_adapter(config.protocol).invariant_checkers(),
        stride=config.check_stride,
        mode=config.check_mode,
        tracer=tracer,
        profiler=profiler,
    )
