"""End-to-end experiment runs at small scale (integration)."""

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import (
    NoBlocksMinedError,
    build_network,
    run_experiment,
)

SMALL = ExperimentConfig(
    n_nodes=25,
    target_blocks=25,
    target_key_blocks=8,
    block_rate=0.05,
    block_size_bytes=10_000,
    cooldown=20.0,
    seed=3,
)


@pytest.fixture(scope="module")
def bitcoin_run():
    return run_experiment(SMALL.with_(protocol=Protocol.BITCOIN))


@pytest.fixture(scope="module")
def ng_run():
    return run_experiment(
        SMALL.with_(protocol=Protocol.BITCOIN_NG, key_block_rate=0.02)
    )


def test_bitcoin_produces_blocks(bitcoin_run):
    result, log = bitcoin_run
    assert result.blocks_generated > 10
    assert 1 <= result.main_chain_length <= result.blocks_generated


def test_bitcoin_metric_ranges(bitcoin_run):
    result, _ = bitcoin_run
    assert 0 < result.mining_power_utilization <= 1.0
    assert result.fairness > 0
    assert result.consensus_delay >= 0
    assert result.time_to_prune >= 0
    assert result.time_to_win >= 0
    assert result.transaction_frequency > 0


def test_bitcoin_deterministic():
    config = SMALL.with_(protocol=Protocol.BITCOIN)
    first, _ = run_experiment(config)
    second, _ = run_experiment(config)
    assert first.as_row() == second.as_row()


def test_seed_changes_outcome():
    first, _ = run_experiment(SMALL.with_(protocol=Protocol.BITCOIN, seed=1))
    second, _ = run_experiment(SMALL.with_(protocol=Protocol.BITCOIN, seed=2))
    assert first.as_row() != second.as_row()


def test_ng_has_both_block_kinds(ng_run):
    _, log = ng_run
    kinds = {info.kind for info in log.index.all_blocks()}
    assert kinds == {"key", "micro"}


def test_ng_utilization_optimal(ng_run):
    # Microblock forks carry no work: utilization must be exactly the
    # key-block main/total ratio, which stays near 1.
    result, _ = ng_run
    assert result.mining_power_utilization >= 0.9


def test_ng_serializes_transactions(ng_run):
    result, _ = ng_run
    assert result.transaction_frequency > 0


def test_ghost_runs():
    result, log = run_experiment(SMALL.with_(protocol=Protocol.GHOST))
    assert result.blocks_generated > 10
    assert 0 < result.mining_power_utilization <= 1.0


@pytest.mark.parametrize("seed", [0, 2])
def test_window_without_a_key_block_raises_naming_the_window(seed):
    config = SMALL.with_(
        protocol=Protocol.BITCOIN_NG, n_nodes=8, seed=seed, target_blocks=3,
        target_key_blocks=1, block_rate=0.1, key_block_rate=0.01,
    )
    with pytest.raises(NoBlocksMinedError, match=r"100 s .*\(1 expected\)"):
        run_experiment(config)


def test_network_matches_paper_shape():
    from repro.net.simulator import Simulator

    config = SMALL
    sim = Simulator(seed=0)
    network = build_network(config, sim)
    assert network.topology.n_nodes == config.n_nodes
    for node in range(config.n_nodes):
        assert network.topology.degree(node) >= config.min_degree
    assert network.topology.is_connected()


def test_as_row_keys(bitcoin_run):
    result, _ = bitcoin_run
    row = result.as_row()
    assert set(row) == {
        "consensus_delay",
        "fairness",
        "mining_power_utilization",
        "time_to_prune",
        "time_to_win",
        "transaction_frequency",
    }


def test_back_to_back_runs_share_no_identity_or_verdict(count_calls):
    """Derived keys and contextless verdicts live on the run's own node
    and block objects, so a second run in the process starts cold."""
    import repro.core.blocks as blocks_mod
    from repro.crypto import ecdsa
    from repro.crypto.keys import PrivateKey

    spies = {
        "identities": count_calls(PrivateKey, "public_key"),
        "leader-key verdicts": count_calls(ecdsa, "point_from_bytes"),
        "commitment verdicts": count_calls(blocks_mod, "sha256d"),
    }
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG, key_block_rate=0.02)
    first, _ = run_experiment(config)
    first_work = {what: list(calls) for what, calls in spies.items()}
    for calls in spies.values():
        del calls[:]
    second, _ = run_experiment(config)
    assert second.as_row() == first.as_row()
    assert spies == first_work and all(first_work.values())
    # Once per mining node and once per key block -- not once per node.
    assert len(spies["identities"]) < config.n_nodes
    assert len(spies["leader-key verdicts"]) <= first.blocks_generated


def test_microblocks_are_signed_when_read_and_targets_decoded_once(count_calls):
    """A bare NG run reads no microblock signature, so it signs none; a
    checked run's signature cache reads each one, so it signs each
    microblock once.  A header's target is decoded once per PoW block,
    not once per receiver."""
    import repro.core.blocks as blocks_mod
    import repro.core.node as node_mod
    from repro.crypto.keys import PrivateKey

    spies = {
        "signs": count_calls(PrivateKey, "sign"),
        "target decodes": count_calls(blocks_mod, "target_from_compact"),
        "microblocks": count_calls(node_mod, "build_microblock"),
        "key blocks": count_calls(node_mod, "build_key_block"),
    }
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG, key_block_rate=0.02)
    counts = {}
    for check in (False, True):
        for calls in spies.values():
            del calls[:]
        run_experiment(config.with_(check=check))
        counts[check] = {what: len(calls) for what, calls in spies.items()}
    bare, checked = counts[False], counts[True]
    assert bare["microblocks"] > 0 and bare["signs"] == 0
    assert checked["signs"] == checked["microblocks"] == bare["microblocks"]
    for run in (bare, checked):
        assert run["target decodes"] == run["key blocks"] > 0


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_a_finished_run_leaves_no_world_for_the_collector(protocol, monkeypatch):
    """Nodes <-> network and simulator -> queued events are cut when the
    run ends, so the world dies by reference count — a sweep's cells do
    not pile up dead until a full collection lands in one of them."""
    import gc
    import weakref

    import repro.experiments.runner as runner_mod

    worlds = []

    def remembering(config, sim, obs=None):
        network = build_network(config, sim, obs=obs)
        worlds.append((weakref.ref(network), weakref.ref(sim)))
        return network

    monkeypatch.setattr(runner_mod, "build_network", remembering)
    config = SMALL.with_(protocol=protocol, key_block_rate=0.02)
    gc.collect()
    gc.disable()  # reference counts alone must do it
    try:
        result, log = run_experiment(config)
        [(network, sim)] = worlds
        assert network() is None and sim() is None
    finally:
        gc.enable()
    assert result.blocks_generated == len(log.index) > 0


def test_a_finished_run_frees_every_node_its_timer_queue_held(monkeypatch):
    """The getdata retry timers of a run share one queue, which holds
    the nodes whose timers it keeps; ``discard_pending`` empties it, so
    no node outlives the run either."""
    import gc
    import weakref

    from repro.net.gossip import RequestTimers
    from repro.net.network import Network

    nodes, queues, arms = [], [], []
    attach, arm = Network.attach, RequestTimers.arm

    def remembering(self, node_id, handler):
        nodes.append(weakref.ref(handler))
        queues.append(handler.sim.request_timers)
        attach(self, node_id, handler)

    def counting(self, *args):
        arms.append(1)  # not the arguments: they hold a node
        arm(self, *args)

    monkeypatch.setattr(Network, "attach", remembering)
    monkeypatch.setattr(RequestTimers, "arm", counting)
    gc.collect()
    gc.disable()  # reference counts alone must do it
    try:
        result, _log = run_experiment(SMALL)
        assert nodes and all(node() is None for node in nodes)
    finally:
        gc.enable()
    [queue, *_] = queues
    assert all(other is queue for other in queues)
    assert arms and not queue.entries and queue.armed is None
    assert result.blocks_generated > 0
