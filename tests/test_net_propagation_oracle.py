"""Gossip delivers a block that propagates alone along its first-inv path.

While no other transfer is in flight, the link rule is simple enough
to solve by hand.  Node ``w``'s first inv for a block comes from the
neighbour ``u`` that minimises ``arr(u) + L_uw + INV/bw``; ``w`` asks
``u`` for the body, which lands ``(L_wu + GETDATA/bw) + (L_uw +
size/bw)`` later, and ``w`` accepts it — and relays it — after
``verification_seconds_per_byte * size`` more.  Processing nodes in
arrival order makes that a Dijkstra over the topology.

The oracle below shares no code with ``repro.net.gossip`` or
``repro.net.network``: it reads only the latencies and bandwidths of
``build_network(config, Simulator(seed))``, which draws the same links
as the run, and the wire sizes of Bitcoin's framing, spelled out here.
Every (block, node) arrival the run logs must match it.  Blocks are
spaced so that no two propagation windows overlap; each test asserts
the spacing rather than filtering afterwards.
"""

from __future__ import annotations

import heapq

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.runner import build_network
from repro.net.links import SMALL_MESSAGE_CUTOFF
from repro.net.simulator import Simulator
from repro.protocols import Protocol

# An inv or getdata with one entry: 24-byte header + 37-byte payload.
INV_BYTES = 61
GETDATA_BYTES = 61
TOLERANCE = 1e-9
# Run to run this differs only in the protocol, bandwidth and block size.
BASE = dict(n_nodes=30, cooldown=60.0)


def oracle_arrivals(network, miner, gen_time, size, verify_per_byte):
    """Contention-free arrival of one block at every reachable node."""
    arrival = {miner: gen_time}
    first_inv: dict[int, float] = {}
    done: set[int] = set()
    pending = [(gen_time, miner)]
    while pending:
        at, u = heapq.heappop(pending)
        if u in done or at != arrival[u]:
            continue  # finalized already, or a superseded estimate
        done.add(u)
        for w in network.topology.neighbors(u):
            if w in done:
                continue
            out, back = network.link(u, w), network.link(w, u)
            inv = at + out.latency + INV_BYTES / out.bandwidth
            if inv < first_inv.get(w, float("inf")):
                first_inv[w] = inv
                arrival[w] = (
                    inv
                    + back.latency
                    + GETDATA_BYTES / back.bandwidth
                    + out.latency
                    + size / out.bandwidth
                    + verify_per_byte * size
                )
                heapq.heappush(pending, (arrival[w], w))
    return arrival


def check_against_oracle(config: ExperimentConfig) -> list[int]:
    """Compare every logged arrival with the oracle; return block sizes."""
    _, log = run_experiment(config)
    network = build_network(config, Simulator(config.seed))
    blocks = sorted(log.index.all_blocks(), key=lambda info: info.gen_time)
    assert len(blocks) >= 3
    horizon = config.duration + config.cooldown
    for index, info in enumerate(blocks):
        expected = oracle_arrivals(
            network,
            info.miner,
            info.gen_time,
            info.size,
            config.verification_seconds_per_byte,
        )
        assert len(expected) == config.n_nodes  # a connected graph
        window_end = max(expected.values())
        following = (
            blocks[index + 1].gen_time if index + 1 < len(blocks) else horizon
        )
        # The precondition, asserted: this block is everywhere before
        # the next one exists (or the run ends).
        assert window_end < following, (index, window_end, following)
        for node, at in expected.items():
            seen = log.arrival_time(node, info.hash)
            assert seen == pytest.approx(at, abs=TOLERANCE), (
                index,
                info.kind,
                node,
            )
    return [info.size for info in blocks]


@pytest.mark.parametrize("protocol", [Protocol.BITCOIN, Protocol.GHOST])
@pytest.mark.parametrize(
    "bandwidth, block_bytes",
    [(1e15, 20_000), (None, 1_000), (None, 20_000)],
    ids=["unbounded", "default-small", "default-bulk"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_blocks_arrive_when_the_oracle_says(
    protocol, bandwidth, block_bytes, seed
):
    overrides = {} if bandwidth is None else {"bandwidth_bps": bandwidth}
    sizes = check_against_oracle(
        ExperimentConfig(
            protocol=protocol,
            seed=seed,
            block_rate=0.002,
            target_blocks=6,
            block_size_bytes=block_bytes,
            **overrides,
            **BASE,
        )
    )
    # Each case stays on its side of the interleaving cutoff.
    small = block_bytes < SMALL_MESSAGE_CUTOFF
    assert all((size <= SMALL_MESSAGE_CUTOFF) == small for size in sizes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_key_blocks_and_microblocks_arrive_when_the_oracle_says(seed):
    sizes = check_against_oracle(
        ExperimentConfig(
            protocol=Protocol.BITCOIN_NG,
            seed=seed,
            key_block_rate=0.001,
            target_key_blocks=4,
            block_rate=0.002,
            target_blocks=8,
            block_size_bytes=20_000,
            **BASE,
        )
    )
    # Key blocks interleave, microblocks queue: both link paths ran.
    assert min(sizes) <= SMALL_MESSAGE_CUTOFF < max(sizes)


@pytest.mark.parametrize(
    "protocol", [Protocol.BITCOIN, Protocol.BITCOIN_NG], ids=["bitcoin", "ng"]
)
def test_verification_delay_is_paid_once_per_hop(protocol):
    check_against_oracle(
        ExperimentConfig(
            protocol=protocol,
            seed=0,
            key_block_rate=0.001,
            target_key_blocks=3,
            block_rate=0.002,
            target_blocks=6,
            block_size_bytes=20_000,
            verification_seconds_per_byte=2e-5,
            **BASE,
        )
    )
