"""One fact, one check: a block's chain work, by the log and by the tree.

The observation log's ``BlockIndex`` sums each block's work when it is
generated, before any tree has connected it; the first tree that
connects a block writes the block's own ``cumulative_work`` (and
height, and NG's epoch facts) onto it, and every other tree reads
them.  The two are computed apart, so each checks the other: for every
block any node connected, they must agree.  Every node's tree must
also pass its from-scratch ``assert_consistent``, which checks each
fact on the block against the parent's.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.protocols import Protocol
from repro.sanitizer.runtime import SanitizerRuntime

SCENARIO = json.loads(
    (pathlib.Path(__file__).parent.parent / "examples" / "partition_heal.json")
    .read_text(encoding="utf-8")
)


@pytest.mark.parametrize("scenario", [None, SCENARIO], ids=["bare", "partition_heal"])
@pytest.mark.parametrize(
    "protocol", [Protocol.BITCOIN, Protocol.GHOST, Protocol.BITCOIN_NG]
)
def test_log_and_tree_agree_on_every_blocks_chain_work(protocol, scenario):
    config = ExperimentConfig(
        protocol=protocol,
        n_nodes=30,
        seed=3,
        target_blocks=40,
        target_key_blocks=6,
        block_rate=0.1,
        key_block_rate=0.02,
        block_size_bytes=8_000,
        scenario=scenario,
    )
    # A checker-less sanitizer hands back the nodes and changes nothing.
    runtime = SanitizerRuntime(())
    _, log = run_experiment(config, sanitizer=runtime)
    connected = {}
    for node in runtime.nodes:
        tree = node.chain
        tree.assert_consistent()
        for block_hash in tree.main_chain() + tree.pruned_blocks():
            connected[block_hash] = tree.get(block_hash)
    generated = {info.hash for info in log.index.all_blocks()}
    assert generated <= connected.keys()  # every block reached some tree
    assert len(connected) == len(generated) + 1  # and the genesis
    for block_hash, block in connected.items():
        assert block.cumulative_work == log.index.cumulative_work(block_hash)
        if block_hash in generated:
            assert block.height >= 1
    # Forks happened, so facts were set off the main chain too.
    assert any(tree.pruned_blocks() for tree in (n.chain for n in runtime.nodes))
