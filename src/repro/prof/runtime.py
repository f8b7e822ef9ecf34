"""The profiler runtime: hot-loop phase attribution.

:class:`ProfilerRuntime` attaches to the simulator's one observer seam
(:meth:`repro.net.simulator.Simulator.attach`) and wraps the two things
the dispatch loop calls per event — the heap pop and the after-event
probe — in wall-clock reads.  Callback classification and per-phase and
per-node accumulation happen here; an unprofiled run executes none of
it.

Design constraints, in priority order:

* **Zero perturbation.**  The runtime never schedules events, never
  draws randomness, never touches node state.  All it consumes is the
  heap entry the loop popped anyway and wall-clock deltas from
  :func:`repro.clock.wall_clock`.  Profiled runs are bit-identical to
  bare runs, including ``events_processed`` (pinned in
  ``tests/test_determinism.py``).
* **Cheap attribution.**  Callbacks are classified once per distinct
  function (a dict keyed on the underlying function object, built
  lazily), so the steady-state per-event cost is two dict probes and
  float adds — the wall-clock reads dominate.
* **No layer coupling.**  Classification matches ``__qualname__``
  strings, so the profiler never imports protocol modules and unknown
  callbacks (custom adapters, tests) degrade to an ``other:`` phase
  rather than breaking.

The profiler never touches the trace: a profiled run's ``--obs`` trace
is byte-identical to the unprofiled run's, and NG leader epochs are
folded from that trace by :class:`repro.obs.analyze.TraceSummary`.
"""

from __future__ import annotations

from ..clock import wall_clock
from .profile import (
    PHASE_DISPATCH,
    PHASE_HEAPPOP,
    PHASE_SANITIZE,
    PhaseStat,
    Profile,
)

# Classification tags: how to derive (phase, node) from a callback.
_TAG_STATIC = 0  # fixed phase string, no node attribution
_TAG_NODE = 1  # fixed phase string, node = callback.__self__.node_id
_TAG_SAMPLER = 2  # phase = "obs:" + sampler class name
_TAG_DELIVER = 3  # phase by message kind (and object kind), node = dst

# Known hot callbacks by qualified name.  Anything else lands in
# "other:<qualname>" — visible in reports rather than silently dropped.
_KNOWN_CALLBACKS: dict[str, tuple[str | None, int]] = {
    "Network._deliver": (None, _TAG_DELIVER),
    "MiningScheduler._fire": ("mining:block", _TAG_STATIC),
    "NGNode._maybe_generate_microblock": ("mining:microblock", _TAG_NODE),
    "GossipNode._on_request_timeout": ("gossip:timeout", _TAG_NODE),
    "GossipNode._accept": ("gossip:verify", _TAG_NODE),
    "PeriodicSampler._fire": (None, _TAG_SAMPLER),
}


class ProfilerRuntime:
    """Accumulates phase/node/checker attribution for one experiment."""

    def __init__(self) -> None:
        # Phase name -> [calls, seconds].  Plain lists: the two-element
        # mutation pattern is the cheapest accumulator CPython offers.
        self._phases: dict[str, list] = {}
        # Underlying function object -> (phase | None, tag).
        self._by_func: dict[object, tuple[str | None, int]] = {}
        # (message kind, object kind | None) -> phase string, built once.
        self._deliver_phases: dict[tuple[str, str | None], str] = {}
        self._node_calls: list[int] = []
        self._node_seconds: list[float] = []
        self._pop_calls = 0
        self._pop_seconds = 0.0
        self._probe_calls = 0
        self._probe_seconds = 0.0
        self._checkers: dict[str, list] = {}
        self._loop_wall = 0.0

    # -- wiring --------------------------------------------------------------

    def install(self, sim, n_nodes: int) -> None:
        """Attach to the simulator's dispatch loop and size per-node arrays."""
        self._node_calls = [0] * n_nodes
        self._node_seconds = [0.0] * n_nodes
        sim.attach(self)

    # -- the dispatch seam (called at the top of each Simulator.run) ---------

    def wrap_dispatch(self, heappop, probe):
        """A timed pop and an after-event probe around the given pair.

        The pop remembers the ``(time, sequence, callback, args,
        handle)`` entry it removed; the probe — running right after that
        entry's callback — attributes the callback to it and times the
        inner probe (the sanitizer's, when one attached first) as
        ``sanitize``.  Both extend the loop wall to their own last clock
        read.  A pop never followed by a probe was a cancelled entry's:
        its time stays unattributed inside the loop wall, so it lands —
        with the loop's own work and this bookkeeping — in the
        ``dispatch`` residual, also when it is the cancelled entry of a
        getdata retry timer queue — whose re-arm, pushing the queue's
        next timer, lands there too.  The queue keeps one entry on the
        heap and a run cancels one event of its own, so there are few:
        2 after a 1000-node Bitcoin run (``btc_scale_1000``'s config,
        seed 11), where one scheduled timer per getdata, uncompacted,
        left 19,981, 1.1–1.2% of its simulate wall.
        """
        clock = wall_clock
        attribute = self._attribute
        entry = None
        pop_seconds = popped_at = 0.0
        mark = clock()

        def timed_pop(heap):
            nonlocal entry, pop_seconds, popped_at, mark
            before = clock()
            entry = heappop(heap)
            popped_at = clock()
            pop_seconds = popped_at - before
            self._loop_wall += popped_at - mark
            mark = popped_at
            return entry

        def after_event() -> None:
            nonlocal mark
            attribute(entry, pop_seconds, clock() - popped_at)
            now = clock()
            if probe is not None:
                before = now
                probe()
                now = clock()
                self._probe_calls += 1
                self._probe_seconds += now - before
            self._loop_wall += now - mark
            mark = now

        return timed_pop, after_event

    def _attribute(
        self, entry, pop_seconds: float, callback_seconds: float
    ) -> None:
        """Attribute one dispatched heap entry's pop and callback cost."""
        self._pop_calls += 1
        self._pop_seconds += pop_seconds
        callback = entry[2]
        func = getattr(callback, "__func__", callback)
        classified = self._by_func.get(func)
        if classified is None:
            qualname = getattr(func, "__qualname__", None) or repr(func)
            classified = _KNOWN_CALLBACKS.get(qualname)
            if classified is None:
                classified = ("other:" + qualname, _TAG_STATIC)
            self._by_func[func] = classified
        phase, tag = classified
        node = -1
        if tag == _TAG_DELIVER:
            args = entry[3]
            message = args[2]
            kind = message.kind
            if kind == "object":
                key = (kind, message.payload.kind)
            elif kind == "inv":
                key = (kind, message.payload[1])
            else:
                key = (kind, None)
            phase = self._deliver_phases.get(key)
            if phase is None:
                phase = "deliver:" + (
                    key[0] if key[1] is None else f"{key[0]}:{key[1]}"
                )
                self._deliver_phases[key] = phase
            node = args[1]
        elif tag == _TAG_NODE:
            node = getattr(callback.__self__, "node_id", -1)
        elif tag == _TAG_SAMPLER:
            phase = "obs:" + type(callback.__self__).__name__
        stat = self._phases.get(phase)
        if stat is None:
            stat = self._phases[phase] = [0, 0.0]
        stat[0] += 1
        stat[1] += callback_seconds
        if 0 <= node < len(self._node_calls):
            self._node_calls[node] += 1
            self._node_seconds[node] += callback_seconds

    # -- sanitizer attribution (invoked by SanitizerRuntime._sweep) ----------

    def record_checker(self, code: str, seconds: float) -> None:
        """One checker call's cost, keyed by invariant code (INV1xx)."""
        stat = self._checkers.get(code)
        if stat is None:
            stat = self._checkers[code] = [0, 0.0]
        stat[0] += 1
        stat[1] += seconds

    # -- assembly ------------------------------------------------------------

    def build_profile(
        self,
        meta: dict,
        wall_setup: float,
        wall_simulate: float,
        events: int,
        end_time: float = 0.0,
    ) -> Profile:
        """Fold everything accumulated into a :class:`Profile`.

        The ``dispatch`` phase absorbs the loop's residual wall time —
        heap scanning, cancelled-event pops, and the profiler's own
        bookkeeping — so the phase table always sums to the measured
        loop wall.  ``end_time`` is unused: it closed the open epoch
        spans the profile no longer carries, and stays only because
        ``bench/workloads.py`` passes it (``bench/`` changes only with
        the benchmark).
        """
        phases = {
            name: PhaseStat(calls=stat[0], seconds=stat[1])
            for name, stat in self._phases.items()
        }
        phases[PHASE_HEAPPOP] = PhaseStat(
            calls=self._pop_calls, seconds=self._pop_seconds
        )
        if self._probe_calls:
            phases[PHASE_SANITIZE] = PhaseStat(
                calls=self._probe_calls, seconds=self._probe_seconds
            )
        accounted = sum(stat.seconds for stat in phases.values())
        phases[PHASE_DISPATCH] = PhaseStat(
            calls=events, seconds=max(self._loop_wall - accounted, 0.0)
        )
        return Profile(
            meta=dict(meta),
            wall_setup_seconds=wall_setup,
            wall_simulate_seconds=wall_simulate,
            loop_wall_seconds=self._loop_wall,
            events_processed=events,
            phases=phases,
            checkers={
                code: PhaseStat(calls=stat[0], seconds=stat[1])
                for code, stat in self._checkers.items()
            },
            nodes=[
                [calls, seconds]
                for calls, seconds in zip(self._node_calls, self._node_seconds)
            ],
        )
