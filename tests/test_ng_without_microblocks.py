"""Bitcoin-NG with an empty microblock plane is Bitcoin (§4).

A key block is a Bitcoin block that elects a leader, and microblocks
carry no weight.  So an NG run whose microblock interval is the whole
run generates no microblock, and it must build the same block tree as
a Bitcoin run of the same seed at the same block rate.  The two runs
go through separately written fork-choice code (``BlockTree._choose_tip``
and ``NGChain._choose_tip``), so each is an oracle for the other.

The near-infinite bandwidth makes a 128-byte Bitcoin block and a
161-byte key block cost the same time on the wire; at the default
bandwidth the size difference moves arrival times, so which ties occur,
and the runs diverge as they should.  The time metrics keep float fuzz
from those sizes, hence the tolerance.

The fork-choice axis pairs GHOST with NG under GHOST over key blocks
(``ng_ghost_fork_choice``): one rule (``HeaviestSubtree._choose_tip``)
over two trees, so it checks that each tree hands the rule the same
weights, and that a tie is broken by the same one draw in both.
"""

import json
import pathlib

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.protocols import Protocol

SCENARIO = json.loads(
    (pathlib.Path(__file__).parent.parent / "examples" / "partition_heal.json")
    .read_text(encoding="utf-8")
)
RATE = 0.1
BLOCKS = 40
TIME_METRICS = ("consensus_delay", "time_to_prune", "time_to_win")


def _assert_same_tree(block_protocol, seed, scenario, ng_ghost_fork_choice):
    common = dict(n_nodes=30, bandwidth_bps=1e15, seed=seed, scenario=scenario)
    blocks, blocks_log = run_experiment(
        ExperimentConfig(
            protocol=block_protocol,
            block_rate=RATE,
            target_blocks=BLOCKS,
            **common,
        )
    )
    ng, ng_log = run_experiment(
        ExperimentConfig(
            protocol=Protocol.BITCOIN_NG,
            key_block_rate=RATE,
            target_key_blocks=BLOCKS,
            target_blocks=1,
            block_rate=RATE / BLOCKS,
            ng_ghost_fork_choice=ng_ghost_fork_choice,
            **common,
        )
    )
    ng_blocks = ng_log.index.all_blocks()
    assert not any(info.kind == "micro" for info in ng_blocks)
    assert [(info.gen_time, info.miner) for info in ng_blocks] == [
        (info.gen_time, info.miner) for info in blocks_log.index.all_blocks()
    ]
    # Every pair forks, so both fork-choice paths were exercised.
    assert blocks.mining_power_utilization < 1
    assert ng.main_chain_length == blocks.main_chain_length
    assert ng.mining_power_utilization == blocks.mining_power_utilization
    assert ng.fairness == blocks.fairness
    for metric in TIME_METRICS:
        assert getattr(ng, metric) == pytest.approx(
            getattr(blocks, metric), abs=1e-6
        ), metric


SEEDS = pytest.mark.parametrize("seed", range(8))
SCENARIOS = pytest.mark.parametrize(
    "scenario", [None, SCENARIO], ids=["bare", "partition_heal"]
)


@SCENARIOS
@SEEDS
def test_ng_without_microblocks_builds_bitcoins_tree(seed, scenario):
    _assert_same_tree(Protocol.BITCOIN, seed, scenario, ng_ghost_fork_choice=False)


@SCENARIOS
@SEEDS
def test_ghost_ng_without_microblocks_builds_ghosts_tree(seed, scenario):
    _assert_same_tree(Protocol.GHOST, seed, scenario, ng_ghost_fork_choice=True)
