"""The protocol adapters: the runner's only protocol surface."""

import pytest

from repro.experiments import ExperimentConfig, Protocol
from repro.metrics import ObservationLog
from repro.mining.power import exponential_shares
from repro.net.simulator import Simulator
from repro.experiments.runner import build_network
from repro.protocols import (
    BitcoinAdapter,
    BitcoinNGAdapter,
    GhostAdapter,
    ProtocolAdapter,
    get_adapter,
)

CONFIG = ExperimentConfig(
    n_nodes=10,
    target_blocks=10,
    target_key_blocks=3,
    block_rate=0.1,
    block_size_bytes=5000,
    cooldown=20.0,
)


def test_every_protocol_member_has_an_adapter():
    for protocol in Protocol:
        assert isinstance(get_adapter(protocol), ProtocolAdapter)
        # Enum member and its wire name resolve identically.
        assert get_adapter(protocol.value) is get_adapter(protocol)
    assert isinstance(get_adapter(Protocol.BITCOIN), BitcoinAdapter)
    assert isinstance(get_adapter(Protocol.BITCOIN_NG), BitcoinNGAdapter)
    assert isinstance(get_adapter(Protocol.GHOST), GhostAdapter)


def test_unknown_protocol_lists_registered():
    with pytest.raises(ValueError, match="no-such-protocol.*bitcoin, bitcoin-ng, ghost"):
        get_adapter("no-such-protocol")


def test_build_nodes_matches_runner_construction():
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    shares = exponential_shares(CONFIG.n_nodes)
    nodes, scheduler = adapter.build_nodes(CONFIG, sim, network, log, shares)
    assert len(nodes) == CONFIG.n_nodes
    assert scheduler.block_rate == CONFIG.block_rate


def test_leaderless_adapters_report_no_leader():
    adapter = get_adapter(Protocol.BITCOIN)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, _ = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    assert adapter.current_leader(nodes) is None


def test_ng_adapter_tracks_the_leader():
    adapter = get_adapter(Protocol.BITCOIN_NG)
    sim = Simulator(seed=0)
    network = build_network(CONFIG, sim)
    log = ObservationLog(CONFIG.n_nodes)
    nodes, _ = adapter.build_nodes(
        CONFIG, sim, network, log, exponential_shares(CONFIG.n_nodes)
    )
    assert adapter.current_leader(nodes) is None  # genesis epoch
    nodes[3].generate_key_block()
    # Bounded run: a leading NG node keeps a microblock timer alive, so
    # an unbounded run would never drain the event queue.
    sim.run(until=5.0)
    assert adapter.current_leader(nodes) == 3


def test_known_string_protocol_becomes_enum_member():
    config = ExperimentConfig(protocol="bitcoin-ng")
    assert config.protocol is Protocol.BITCOIN_NG


def test_default_lifecycle_hooks_resync(monkeypatch):
    class Recorder:
        def __init__(self):
            self.calls = []

        def reset_relay_state(self):
            self.calls.append("reset")

        def request_tips(self):
            self.calls.append("tips")

    class MinimalAdapter(ProtocolAdapter):
        def build_nodes(self, config, sim, network, log, shares):
            raise NotImplementedError

    adapter = MinimalAdapter()
    node = Recorder()
    adapter.on_crash(node, sim=None, network=None)  # default: no-op
    assert node.calls == []
    adapter.on_restart(node, sim=None, network=None)
    assert node.calls == ["reset", "tips"]


def test_ng_identities_are_derived_on_first_use_not_per_node_built(count_calls):
    from repro.crypto import ecdsa
    from repro.crypto.keys import PrivateKey

    expected = PrivateKey.from_seed("ng-node-417").public_key().to_bytes()
    derivations = count_calls(ecdsa, "point_mul")
    config = CONFIG.with_(n_nodes=1000)
    adapter = get_adapter(Protocol.BITCOIN_NG)
    sim = Simulator(seed=0)
    nodes, _ = adapter.build_nodes(
        config,
        sim,
        build_network(config, sim),
        ObservationLog(config.n_nodes),
        exponential_shares(config.n_nodes),
    )
    secrets = [node.key.secret for node in nodes]
    assert len(secrets) == 1000
    # (The genesis block derives its own, protocol-defined key.)
    assert not {args[0] for args in derivations} & set(secrets)
    del derivations[:]
    block = nodes[417].generate_key_block()
    assert derivations == [(secrets[417],)]
    assert block.header.leader_pubkey == nodes[417].pubkey_bytes == expected
    nodes[417].generate_key_block()
    assert len(derivations) == 1  # cached, not re-derived per key block
