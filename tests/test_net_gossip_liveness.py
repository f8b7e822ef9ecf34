"""Gossip under faults stays live; the announcer filter stays neutral.

The liveness tier is ``ng_instrumented_100``'s schedule (leader crash,
partition into halves, heal, a 5% loss window) scaled down to 30 nodes
and run for all three protocols under the auditing sanitizer: whatever
relay does, after the cooldown the network has one tip, no orphans, no
violations, and no handshake left half-open.  The neutrality tests tap
a fault-free 60-node run and check the filter's two promises: no inv
goes to a peer already recorded as an announcer of that id, and every
node still receives every object.  The count guard taps the same NG run:
every inv that reaches ``_on_inv`` sends a getdata or records an
announcer.
"""

import pytest

from repro.core.genesis import make_ng_genesis
from repro.core.node import NGNode
from repro.core.params import NGParams
from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.experiments.runner import build_network
from repro.metrics.collector import ObservationLog
from repro.metrics import ObservationLog
from repro.mining.power import exponential_shares
from repro.net.gossip import GossipNode
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.protocols import get_adapter
from repro.sanitizer.runtime import sanitizer_for
from repro.scenarios import ScenarioEngine

from .conftest import nothing_armed

ALL_PROTOCOLS = tuple(Protocol)

# Two request timeouts (120 s each) fit in the cooldown, so a getdata
# lost at the very end of the loss window still times out, retries and
# completes before the final state is read.
BASE = ExperimentConfig(
    n_nodes=30,
    block_size_bytes=8000,
    cooldown=300.0,
    seed=9,
    check=True,
    check_mode="audit",
)
SHAPES = {
    Protocol.BITCOIN: dict(target_blocks=16, block_rate=0.1),
    Protocol.GHOST: dict(target_blocks=16, block_rate=0.1),
    Protocol.BITCOIN_NG: dict(
        target_blocks=60, target_key_blocks=4, block_rate=0.4, key_block_rate=0.025
    ),
}


def _schedule(duration: float) -> dict:
    return {
        "version": 1,
        "name": "crash-partition-loss",
        "faults": [
            {
                "at": 0.15 * duration,
                "kind": "crash",
                "node": "leader",
                "down_for": 0.30 * duration,
            },
            {"at": 0.375 * duration, "kind": "partition", "split": "halves"},
            {"at": 0.65 * duration, "kind": "heal"},
            {"at": 0.75 * duration, "kind": "loss", "rate": 0.05},
            {"at": 0.95 * duration, "kind": "loss", "rate": 0.0},
        ],
    }


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.value)
def test_crash_partition_heal_loss_converges_with_nothing_outstanding(protocol):
    config = BASE.with_(protocol=protocol, **SHAPES[protocol])
    adapter = get_adapter(protocol)
    sim = Simulator(seed=config.seed)
    network = build_network(config, sim)
    shares = exponential_shares(config.n_nodes, config.power_exponent)
    nodes, scheduler = adapter.build_nodes(
        config, sim, network, ObservationLog(config.n_nodes), shares
    )
    runtime = sanitizer_for(config)
    runtime.install(sim, nodes)
    engine = ScenarioEngine(
        _schedule(config.duration),
        sim=sim,
        network=network,
        nodes=nodes,
        adapter=adapter,
        scheduler=scheduler,
        shares=shares,
        seed=config.seed,
    )
    engine.install()
    scheduler.start()
    sim.run(until=config.duration)
    scheduler.stop()
    # An NG leader streams microblocks through the cooldown; silence it
    # so what is read afterwards is a quiet network, not a block in flight.
    for node in nodes:
        adapter.on_crash(node, sim=sim, network=network)
    sim.run(until=config.duration + config.cooldown)
    runtime.finalize()
    assert engine.faults_fired == 5
    assert runtime.violations == []
    assert runtime.audits > 0
    assert len({node.tip for node in nodes}) == 1
    assert [node.chain.orphan_count() for node in nodes] == [0] * len(nodes)
    for node in nodes:
        assert not node._requested
        assert not node._alt_sources
        assert nothing_armed(node)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a getdata for an object the peer lacks is dropped silently, "
    "so the far node waits out the 120 s request timer",
)
def test_key_block_that_overtakes_its_parent_microblock_connects_two_hops_out():
    """Line 0 - 1 - 2.  Leader 0 streams a 50 kB microblock and, a
    second later, mines a key block on it.  The small key block
    overtakes the bulk transfer, so node 1 holds it as an orphan and
    relays it anyway.  Node 2 asks node 1 for the missing microblock,
    which node 1 does not have yet: the getdata is dropped, the
    microblock stays in node 2's ``_requested``, and node 1's later inv
    of it is parked as an alternate source until the timer fires, after
    the horizon.
    """
    sim = Simulator(seed=0)
    topology = Topology(3)
    topology.add_edge(0, 1)
    topology.add_edge(1, 2)
    network = Network(sim, topology, constant_histogram(0.1))
    params = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
    genesis = make_ng_genesis()
    log = ObservationLog(3)
    leader, middle, far = (
        NGNode(i, sim, network, genesis, params, log=log, check_signatures=False)
        for i in range(3)
    )
    leader.generate_key_block()  # its first microblock is due at t = 10
    mined = []
    sim.schedule_at(11.0, lambda: mined.append(leader.generate_key_block()))
    sim.run(until=60.0)
    [key] = mined
    assert key.hash in middle.chain
    assert far.chain.orphan_count() == 0
    assert key.hash in far.chain


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.value)
def test_no_inv_to_a_recorded_announcer_and_everyone_gets_everything(
    protocol, monkeypatch
):
    heard: dict[tuple[int, bytes], set[int]] = {}
    resent: list[tuple[int, int]] = []
    on_inv = GossipNode._on_inv
    multicast = Network.multicast

    def recording_on_inv(self, sender, payload):
        if payload[0] not in self._store:
            heard.setdefault((self.node_id, payload[0]), set()).add(sender)
        on_inv(self, sender, payload)

    def checking_multicast(self, src, message, exclude=()):
        if message.kind == "inv":
            announcers = heard.get((src, message.payload[0]), set())
            told = set(self.topology.neighbors(src)) - set(exclude)
            resent.extend((src, peer) for peer in told & announcers)
        multicast(self, src, message, exclude)

    monkeypatch.setattr(GossipNode, "_on_inv", recording_on_inv)
    monkeypatch.setattr(Network, "multicast", checking_multicast)
    config = ExperimentConfig(
        protocol=protocol,
        n_nodes=60,
        seed=11,
        target_blocks=24,
        target_key_blocks=3,
        block_rate=0.2,
        key_block_rate=0.02,
        block_size_bytes=8000,
        cooldown=15.0,
    )
    result, log = run_experiment(config)
    assert resent == []
    # The filter had something to do: most nodes heard several announcers.
    assert sum(len(peers) > 1 for peers in heard.values()) > len(heard) // 2
    everything = {info.hash for info in log.index.all_blocks()}
    assert len(everything) == result.blocks_generated
    for arrivals in log.arrivals:
        assert set(arrivals) == everything


def test_every_handled_inv_sends_a_getdata_or_records_an_announcer(monkeypatch):
    """``on_message`` drops an inv for an object already stored or
    rejected, so each ``_on_inv`` call does work: it sends a getdata or
    records one more announcer.  A count, not a wall: an inv let through
    to a handler that then ignores it shows up here on any host."""
    calls = 0
    idle: list[tuple[int, int]] = []
    on_inv = GossipNode._on_inv

    def counting_on_inv(self, sender, payload):
        nonlocal calls
        calls += 1
        obj_id = payload[0]
        was_requested = obj_id in self._requested
        announcers = len(self._alt_sources.get(obj_id, ()))
        on_inv(self, sender, payload)
        if was_requested:
            did_work = len(self._alt_sources.get(obj_id, ())) > announcers
        else:
            did_work = obj_id in self._requested
        if not did_work:
            idle.append((self.node_id, sender))

    monkeypatch.setattr(GossipNode, "_on_inv", counting_on_inv)
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG,
        n_nodes=60,
        seed=11,
        target_blocks=24,
        target_key_blocks=3,
        block_rate=0.2,
        key_block_rate=0.02,
        block_size_bytes=8000,
        cooldown=15.0,
    )
    run_experiment(config)
    assert calls > 0
    assert not idle, f"{len(idle):,} of {calls:,} _on_inv calls did nothing"
