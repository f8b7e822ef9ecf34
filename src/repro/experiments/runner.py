"""The experiment runner: build a network, run a protocol, measure.

Mirrors the paper's methodology end to end: a random ≥5-degree graph
with histogram latencies and ~100 kbit/s pair bandwidth, mining replaced
by an exponential scheduler with pool-shaped power, mempools effectively
pre-seeded (payloads are the artificial identical transactions), a run
of 50–100 blocks, and the six Section 6 metrics computed afterwards.

The runner is protocol-agnostic: node construction and lifecycle hooks
live behind :func:`~repro.protocols.get_adapter`, so adding a protocol
means a :class:`~repro.protocols.Protocol` member and an adapter class
in :mod:`repro.protocols` — not editing this file.
Fault injection (:mod:`repro.scenarios`) rides on ``config.scenario``
and is wired here when present; a bare run never touches the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..clock import wall_clock
from ..metrics import (
    ObservationLog,
    consensus_delay,
    fairness,
    mining_power_utilization,
    time_to_prune,
    time_to_win,
    transaction_frequency,
)
from ..metrics.fairness import mined
from ..mining.power import exponential_shares
from ..net.latency import default_histogram
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.topology import random_topology
from ..obs.facade import Observability
from ..protocols import get_adapter
from .config import ExperimentConfig, Protocol

__all__ = [
    "ExperimentResult",
    "NoBlocksMinedError",
    "build_network",
    "run_experiment",
    "Protocol",
]


class NoBlocksMinedError(RuntimeError):
    """The run ended with no key/PoW block on its main chain.

    Mining is a Poisson process, so a short window can stay empty, and
    the Section 6 metrics are ratios over main-chain blocks.
    """


@dataclass(frozen=True)
class ExperimentResult:
    """The six paper metrics plus execution counters for one run."""

    config: ExperimentConfig
    consensus_delay: float
    fairness: float
    mining_power_utilization: float
    time_to_prune: float
    time_to_win: float
    transaction_frequency: float
    blocks_generated: int
    main_chain_length: int
    duration: float
    # Execution counters (perf accounting, not paper metrics).
    events_processed: int = 0
    messages_delivered: int = 0
    # Faults the scenario engine actually fired (0 for bare runs).
    faults_injected: int = 0
    # Invariant violations the sanitizer found (empty unless
    # config.check).  This is the one canonical surface: a tuple of
    # frozen ViolationRecords that participates in equality and pickles
    # through sweep workers.
    violations: tuple = field(default=(), repr=False)
    # Wall-clock phases and the observability snapshot.  Excluded from
    # equality: wall time is machine noise, and the snapshot must not
    # break the parallel-equals-serial determinism guarantee.
    wall_setup_seconds: float = field(default=0.0, compare=False)
    wall_simulate_seconds: float = field(default=0.0, compare=False)
    obs: dict | None = field(default=None, compare=False, repr=False)

    def as_row(self) -> dict[str, float]:
        """Flat numeric dict, convenient for table printing."""
        return {
            "consensus_delay": self.consensus_delay,
            "fairness": self.fairness,
            "mining_power_utilization": self.mining_power_utilization,
            "time_to_prune": self.time_to_prune,
            "time_to_win": self.time_to_win,
            "transaction_frequency": self.transaction_frequency,
        }


def build_network(
    config: ExperimentConfig, sim: Simulator, obs=None
) -> Network:
    """The Section 7 network: random graph + histogram latencies."""
    topo_rng = random.Random(config.seed * 7919 + 13)
    topology = random_topology(
        config.n_nodes, min_degree=config.min_degree, rng=topo_rng
    )
    histogram = default_histogram(seed=config.latency_seed)
    latency_rng = random.Random(config.seed * 104729 + 29)
    return Network(
        sim,
        topology,
        histogram,
        bandwidth_bps=config.bandwidth_bps,
        latency_rng=latency_rng,
        obs=obs,
    )


def run_experiment(
    config: ExperimentConfig, obs=None, sanitizer=None, profiler=None
) -> tuple[ExperimentResult, ObservationLog]:
    """Run one full experiment and compute all metrics.

    ``obs`` overrides the observability wiring (tests inject in-memory
    sinks this way); by default it is built from the config —
    :data:`~repro.obs.facade.NULL_OBS` unless ``config.obs_dir`` is
    set.  ``sanitizer`` overrides the checked-mode wiring the same way:
    pass a prepared :class:`~repro.sanitizer.runtime.SanitizerRuntime`
    (one with no checkers keeps the nodes readable as ``nodes`` for an
    end-of-run state fingerprint), or leave it to be built from the
    protocol adapter's checker set when ``config.check`` is on.
    ``profiler`` (a :class:`~repro.prof.runtime.ProfilerRuntime`)
    attaches to the simulator's dispatch loop after the sanitizer and —
    combined with ``config.check`` — times each invariant checker; it
    observes wall time only, so a profiled run is bit-identical to a
    bare one and writes the same trace.  Setup
    (topology, links, nodes) and simulation are timed separately so
    event-rate figures cover only the simulate phase.
    """
    setup_started = wall_clock()
    adapter = get_adapter(config.protocol)
    sim = Simulator(seed=config.seed)
    if obs is None:
        obs = Observability.from_config(config)
    if sanitizer is None and config.check:
        from ..sanitizer.runtime import sanitizer_for

        sanitizer = sanitizer_for(config, tracer=obs.tracer, profiler=profiler)
    network = build_network(config, sim, obs=obs)
    log = ObservationLog(config.n_nodes, tracer=obs.tracer)
    shares = exponential_shares(config.n_nodes, config.power_exponent)
    nodes, scheduler = adapter.build_nodes(config, sim, network, log, shares)
    horizon = config.duration + config.cooldown
    meta = {
        "protocol": config.protocol.value,
        "n_nodes": config.n_nodes,
        "seed": config.seed,
        "block_rate": config.block_rate,
        "block_size_bytes": config.block_size_bytes,
    }
    if config.scenario is not None:
        meta["scenario"] = config.scenario.get("name", "unnamed")
    obs.install(sim, network, nodes, horizon, meta=meta)
    if sanitizer is not None:
        sanitizer.install(sim, nodes)
    engine = None
    if config.scenario is not None:
        from ..scenarios.engine import ScenarioEngine

        engine = ScenarioEngine(
            config.scenario,
            sim=sim,
            network=network,
            nodes=nodes,
            adapter=adapter,
            scheduler=scheduler,
            shares=shares,
            seed=config.seed,
            tracer=obs.tracer,
        )
        engine.install()
    if profiler is not None:
        profiler.install(sim, config.n_nodes)
    wall_setup = wall_clock() - setup_started
    simulate_started = wall_clock()
    try:
        scheduler.start()
        sim.run(until=config.duration)
        scheduler.stop()
        sim.run(until=horizon)
    except BaseException:
        # The trace keeps every record emitted before the raise and gets
        # no trace_end: a reader sees a truncated run, not a short one.
        if obs.tracer is not None:
            obs.tracer.close()
        raise
    wall_simulate = wall_clock() - simulate_started
    if sanitizer is not None:
        sanitizer.finalize()
    log.finalize(horizon)
    snapshot = obs.finalize(end_time=horizon)
    main_chain = log.main_chain()
    if not mined(map(log.index.info, main_chain)):
        is_ng = config.protocol is Protocol.BITCOIN_NG
        rate = config.key_block_rate if is_ng else config.block_rate
        raise NoBlocksMinedError(
            f"no key/PoW block reached the main chain in "
            f"{config.duration:g} s of simulated mining "
            f"({config.duration * rate:g} expected); ask for more "
            "blocks or try another seed"
        )
    result = ExperimentResult(
        config=config,
        consensus_delay=consensus_delay(log),
        fairness=fairness(log, power_shares=shares),
        mining_power_utilization=mining_power_utilization(log),
        time_to_prune=time_to_prune(log),
        time_to_win=time_to_win(log),
        transaction_frequency=transaction_frequency(log),
        blocks_generated=len(log.index),
        main_chain_length=len(main_chain),
        duration=log.duration,
        events_processed=sim.events_processed,
        messages_delivered=network.messages_delivered,
        faults_injected=engine.faults_fired if engine is not None else 0,
        violations=(
            tuple(sanitizer.violations) if sanitizer is not None else ()
        ),
        wall_setup_seconds=wall_setup,
        wall_simulate_seconds=wall_simulate,
        obs=snapshot,
    )
    # Nodes ↔ network and simulator → queued events → nodes are the
    # world's only reference cycles.  Cut, the world is freed as this
    # frame returns; left, every finished run of a sweep waits dead for
    # a full collection, which then takes 30–60 ms wherever the
    # collector's counters say: a later cell's setup as readily as not.
    network.detach_all()
    sim.discard_pending()
    return result, log
