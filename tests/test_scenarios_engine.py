"""Fault-injection engine: behavior, determinism, and adapter wiring.

The contract under test: an empty scenario is bit-identical to a bare
run, the same scenario and seed replays identically (serially and
through the process-pool executor), and each fault kind drives the
simulation the way Section 7's robustness discussion expects.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    Protocol,
    run_experiment,
)
from repro.experiments.parallel import SweepExecutor
from repro.mining.power import exponential_shares
from repro.metrics import ObservationLog
from repro.net.simulator import Simulator
from repro.obs.facade import Observability
from repro.obs.trace import MemorySink, Tracer
from repro.protocols import get_adapter
from repro.scenarios import SCENARIO_VERSION, ScenarioEngine, ScenarioError
from repro.experiments.runner import build_network

CONFIG = ExperimentConfig(
    n_nodes=20,
    target_blocks=20,
    target_key_blocks=6,
    block_rate=0.1,
    key_block_rate=1 / 60,
    block_size_bytes=5000,
    cooldown=20.0,
    seed=9,
)

ALL_PROTOCOLS = (Protocol.BITCOIN, Protocol.BITCOIN_NG, Protocol.GHOST)


def _scenario(*faults, name="test"):
    return {"version": SCENARIO_VERSION, "name": name, "faults": list(faults)}


def _fingerprint(log):
    blocks = sorted(
        (info.hash, info.miner, info.gen_time)
        for info in log.index.all_blocks()
    )
    arrivals = [sorted(node_arrivals.items()) for node_arrivals in log.arrivals]
    return blocks, arrivals, log.main_chain()


def _traced_run(config):
    sink = MemorySink()
    result, log = run_experiment(config, obs=Observability(tracer=Tracer(sink)))
    return result, log, sink.records


def _events(records, name):
    return [r for r in records if r["ev"] == name]


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_empty_scenario_bit_identical_to_bare_run(protocol):
    base = CONFIG.with_(protocol=protocol)
    bare, log_bare = run_experiment(base)
    empty, log_empty = run_experiment(base.with_(scenario=_scenario()))
    assert _fingerprint(log_bare) == _fingerprint(log_empty)
    assert bare.events_processed == empty.events_processed
    assert bare.messages_delivered == empty.messages_delivered
    assert bare.as_row() == empty.as_row()
    assert empty.faults_injected == 0


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_same_scenario_and_seed_reproduces(protocol):
    scenario = _scenario(
        {"at": 30.0, "kind": "crash", "node": 3, "down_for": 60.0},
        {"at": 80.0, "kind": "partition", "split": "halves"},
        {"at": 130.0, "kind": "heal"},
        {"at": 150.0, "kind": "loss", "rate": 0.05},
        {"at": 180.0, "kind": "loss", "rate": 0.0},
    )
    config = CONFIG.with_(protocol=protocol, scenario=scenario)
    result_a, log_a = run_experiment(config)
    result_b, log_b = run_experiment(config)
    assert _fingerprint(log_a) == _fingerprint(log_b)
    assert result_a == result_b
    assert result_a.faults_injected == 5


def test_scenario_runs_reproduce_across_process_pool():
    scenario = _scenario(
        {"at": 40.0, "kind": "crash", "node": 2, "down_for": 50.0},
        {"at": 120.0, "kind": "loss", "rate": 0.1},
        {"at": 160.0, "kind": "loss", "rate": 0.0},
    )
    configs = [
        CONFIG.with_(protocol=protocol, scenario=scenario, seed=seed)
        for protocol in ALL_PROTOCOLS
        for seed in (1, 2)
    ]
    serial = SweepExecutor(jobs=1).map(configs)
    parallel = SweepExecutor(jobs=2).map(configs)
    assert serial == parallel
    assert all(result.faults_injected == 3 for result in serial)


def test_scenario_changes_the_execution():
    lossy = _scenario({"at": 10.0, "kind": "loss", "rate": 0.2})
    _, log_bare = run_experiment(CONFIG)
    _, log_lossy = run_experiment(CONFIG.with_(scenario=lossy))
    assert _fingerprint(log_bare) != _fingerprint(log_lossy)


# -- crash / restart ---------------------------------------------------------


def test_crashed_node_mines_nothing_and_resyncs_on_restart():
    scenario = _scenario(
        {"at": 20.0, "kind": "crash", "node": 0, "down_for": 100.0}
    )
    result, log, records = _traced_run(CONFIG.with_(scenario=scenario))
    crash = _events(records, "node_crash")
    restart = _events(records, "node_restart")
    assert [e["node"] for e in crash] == [0]
    assert [e["node"] for e in restart] == [0]
    assert crash[0]["t"] == 20.0
    assert restart[0]["t"] == 120.0
    # No block generated by the crashed miner during the outage.
    for info in log.index.all_blocks():
        if info.miner == 0:
            assert not 20.0 <= info.gen_time < 120.0
    # After resync the node's final tip agrees with the network.
    assert result.faults_injected == 1


def test_explicit_restart_fault_restores_node():
    scenario = _scenario(
        {"at": 25.0, "kind": "crash", "node": 4},
        {"at": 95.0, "kind": "restart", "node": 4},
    )
    for protocol in ALL_PROTOCOLS:
        config = CONFIG.with_(protocol=protocol, scenario=scenario)
        _, log, records = _traced_run(config)
        assert [e["t"] for e in _events(records, "node_restart")] == [95.0]
        # The restarted node saw every main-chain block in the end: the
        # tips it solicits arrive as orphans and it backfills the outage.
        main = log.main_chain()
        for block_hash in main:
            assert block_hash in log.arrivals[4], protocol


def test_restart_without_crash_is_a_no_op():
    scenario = _scenario({"at": 40.0, "kind": "restart", "node": 1})
    _, log_bare = run_experiment(CONFIG)
    result, log, records = _traced_run(CONFIG.with_(scenario=scenario))
    assert _events(records, "node_restart") == []
    assert _fingerprint(log) == _fingerprint(log_bare)
    assert result.faults_injected == 1  # fired, decided to do nothing


def test_crashing_only_powered_miner_raises():
    shares = [0.0] * CONFIG.n_nodes
    shares[7] = 1.0
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, scheduler = adapter.build_nodes(CONFIG, sim, network, log, shares)
    engine = ScenarioEngine(
        _scenario({"at": 5.0, "kind": "crash", "node": 7}),
        sim=sim,
        network=network,
        nodes=nodes,
        adapter=adapter,
        scheduler=scheduler,
    )
    engine.install()
    scheduler.start()
    with pytest.raises(ScenarioError):
        sim.run(until=10.0)


def test_node_id_out_of_range_rejected_at_construction():
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, scheduler = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    with pytest.raises(ScenarioError):
        ScenarioEngine(
            _scenario({"at": 5.0, "kind": "crash", "node": CONFIG.n_nodes}),
            sim=sim,
            network=network,
            nodes=nodes,
            adapter=adapter,
            scheduler=scheduler,
        )


def test_install_twice_rejected():
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, scheduler = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    engine = ScenarioEngine(
        _scenario(), sim=sim, network=network, nodes=nodes, adapter=adapter
    )
    assert engine.install() == 0
    with pytest.raises(RuntimeError):
        engine.install()


# -- leader faults (Bitcoin-NG) ---------------------------------------------


def test_ng_leader_crash_stops_microblocks_until_next_key_block():
    # Generous key-block spacing so the crash lands mid-epoch.
    config = CONFIG.with_(
        protocol=Protocol.BITCOIN_NG,
        key_block_rate=1 / 150.0,
        target_key_blocks=4,
        scenario=_scenario(
            {"at": 120.0, "kind": "crash", "node": "leader", "down_for": 200.0}
        ),
    )
    result, log, records = _traced_run(config)
    crashes = _events(records, "node_crash")
    if not crashes:
        pytest.skip("no leader elected by the crash time at this seed")
    crashed = crashes[0]["node"]
    crash_t = crashes[0]["t"]
    # The crashed leader abdicates: an epoch_end at the crash instant.
    ends = [
        e
        for e in _events(records, "epoch_end")
        if e["leader"] == crashed and e["t"] == crash_t
    ]
    assert ends
    # Between the crash and the next key block, nobody serializes:
    # no microblock generation events in that window.
    key_gens = sorted(
        e["t"]
        for e in _events(records, "block_gen")
        if e["kind"] == "key" and e["t"] > crash_t
    )
    window_end = key_gens[0] if key_gens else result.duration
    micro_in_window = [
        e
        for e in _events(records, "block_gen")
        if e["kind"] == "micro" and crash_t < e["t"] < window_end
    ]
    assert micro_in_window == []


def test_leader_crash_skipped_when_no_leader_exists():
    # Crash "leader" at t=0: only the genesis epoch exists, whose key
    # belongs to no node — the fault is skipped, not an error.
    config = CONFIG.with_(
        protocol=Protocol.BITCOIN_NG,
        scenario=_scenario({"at": 0.0, "kind": "crash", "node": "leader"}),
    )
    result, _, records = _traced_run(config)
    assert _events(records, "node_crash") == []
    assert result.faults_injected == 1


def test_leader_fault_on_leaderless_protocol_is_skipped():
    config = CONFIG.with_(
        protocol=Protocol.BITCOIN,
        scenario=_scenario({"at": 50.0, "kind": "crash", "node": "leader"}),
    )
    result, log, records = _traced_run(config)
    _, log_bare = run_experiment(CONFIG.with_(protocol=Protocol.BITCOIN))
    assert _events(records, "node_crash") == []
    assert _fingerprint(log) == _fingerprint(log_bare)


# -- partitions --------------------------------------------------------------


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_partition_both_sides_mine_then_heaviest_chain_wins(protocol):
    # Long split: both halves keep mining their own chains, then the
    # heal lets the heavier fork win everywhere (scheduler-driven
    # version of the manual PartitionController tests).
    config = CONFIG.with_(
        protocol=protocol,
        target_blocks=30,
        cooldown=60.0,
        # Uniform power and frequent key blocks, so both halves are
        # effectively certain to mine during the 150 s split.
        power_exponent=0.0,
        key_block_rate=1 / 15.0,
        scenario=_scenario(
            {"at": 20.0, "kind": "partition", "split": "halves"},
            {"at": 170.0, "kind": "heal"},
        ),
    )
    result, log, records = _traced_run(config)
    assert [e["ev"] for e in _events(records, "partition")] == ["partition"]
    heal = _events(records, "heal")
    assert len(heal) == 1 and heal[0]["restored"] > 0
    # Both halves generated blocks during the split.
    split_miners = {
        info.miner
        for info in log.index.all_blocks()
        if 25.0 < info.gen_time < 170.0
    }
    half = config.n_nodes // 2
    assert any(m < half for m in split_miners)
    assert any(m >= half for m in split_miners)
    # After the heal every node converged on one main chain: its last
    # block reached all nodes, and every node adopted it as its tip.
    main = log.main_chain()
    assert len(main) > 1
    for arrivals, history in zip(log.arrivals, log.tip_histories):
        assert main[-1] in arrivals
        assert history.tips[-1] == main[-1]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_partition_heal_leaves_one_tip_and_no_orphans(protocol):
    # What crosses the healed cut first is the other half's *newest*
    # block, an orphan to its receivers; each node must backfill the
    # ancestors from the sender until its buffer drains.  (GHOST nodes
    # used to skip the backfill and stay split forever.)
    config = CONFIG.with_(
        protocol=protocol, power_exponent=0.0, key_block_rate=1 / 15.0
    )
    adapter = get_adapter(protocol)
    sim = Simulator(seed=config.seed)
    network = build_network(config, sim)
    shares = exponential_shares(config.n_nodes, config.power_exponent)
    nodes, scheduler = adapter.build_nodes(
        config, sim, network, ObservationLog(config.n_nodes), shares
    )
    ScenarioEngine(
        _scenario(
            {"at": 20.0, "kind": "partition", "split": "halves"},
            {"at": 170.0, "kind": "heal"},
        ),
        sim=sim,
        network=network,
        nodes=nodes,
        adapter=adapter,
        scheduler=scheduler,
        shares=shares,
        seed=config.seed,
    ).install()
    scheduler.start()
    sim.run(until=230.0)
    scheduler.stop()
    sim.run(until=830.0)
    assert len({node.tip for node in nodes}) == 1
    assert [node.chain.orphan_count() for node in nodes] == [0] * len(nodes)


def test_partition_explicit_groups_and_resplit():
    config = CONFIG.with_(
        scenario=_scenario(
            {"at": 30.0, "kind": "partition", "groups": [[0, 1, 2], [3, 4]]},
            # A second partition while one is active replaces it.
            {"at": 60.0, "kind": "partition", "split": "halves"},
            {"at": 90.0, "kind": "heal"},
        ),
        n_nodes=10,
    )
    result, _, records = _traced_run(config)
    assert len(_events(records, "partition")) == 2
    assert len(_events(records, "heal")) == 1
    assert result.faults_injected == 3


def test_heal_without_partition_is_a_no_op():
    config = CONFIG.with_(scenario=_scenario({"at": 10.0, "kind": "heal"}))
    _, log, records = _traced_run(config)
    _, log_bare = run_experiment(CONFIG)
    assert _events(records, "heal") == []
    assert _fingerprint(log) == _fingerprint(log_bare)


# -- link degradation and loss ----------------------------------------------


def test_degrade_slows_propagation_and_restore_recovers():
    config = CONFIG.with_(
        scenario=_scenario(
            {"at": 20.0, "kind": "degrade", "latency_mult": 50.0,
             "bandwidth_mult": 0.02},
            {"at": 120.0, "kind": "restore"},
        )
    )
    result, log, records = _traced_run(config)
    degrade = _events(records, "link_degrade")
    assert len(degrade) == 1 and degrade[0]["links"] > 0
    restore = _events(records, "link_restore")
    assert len(restore) == 1 and restore[0]["links"] == degrade[0]["links"]
    # Propagation measurably differs from the bare run.
    _, log_bare = run_experiment(CONFIG)
    assert _fingerprint(log) != _fingerprint(log_bare)


def test_restore_without_degrade_emits_nothing():
    config = CONFIG.with_(scenario=_scenario({"at": 15.0, "kind": "restore"}))
    _, log, records = _traced_run(config)
    _, log_bare = run_experiment(CONFIG)
    assert _events(records, "link_restore") == []
    assert _fingerprint(log) == _fingerprint(log_bare)


def test_loss_window_drops_messages_deterministically():
    config = CONFIG.with_(
        scenario=_scenario(
            {"at": 10.0, "kind": "loss", "rate": 0.3},
            {"at": 150.0, "kind": "loss", "rate": 0.0},
        )
    )
    result_a, log_a = run_experiment(config)
    result_b, log_b = run_experiment(config)
    bare, _ = run_experiment(CONFIG)
    assert _fingerprint(log_a) == _fingerprint(log_b)
    assert result_a.messages_delivered < bare.messages_delivered
