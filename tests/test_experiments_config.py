"""Experiment configuration and derived quantities."""

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    Protocol,
    constant_throughput_block_size,
)


def test_duration_from_target_blocks():
    config = ExperimentConfig(block_rate=0.1, target_blocks=60)
    assert config.duration == pytest.approx(600.0)


def test_ng_duration_covers_key_blocks():
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG,
        block_rate=1.0,  # 60 microblocks = 60 s only...
        target_blocks=60,
        key_block_rate=0.01,
        target_key_blocks=20,  # ...but 20 key blocks need 2000 s.
    )
    assert config.duration == pytest.approx(2000.0)


def test_txs_per_block():
    config = ExperimentConfig(block_size_bytes=4760, tx_size=476)
    assert config.txs_per_block == 10


def test_with_override():
    base = ExperimentConfig()
    changed = base.with_(n_nodes=42, seed=9)
    assert changed.n_nodes == 42
    assert changed.seed == 9
    assert base.n_nodes != 42  # original untouched


def test_constant_throughput_sizing():
    # One 1 MB block every 10 minutes ≈ 3.5 tx/s at 476-byte txs.
    size = constant_throughput_block_size(1.0 / 600.0)
    assert size == pytest.approx(1_000_000, rel=0.01)
    # Ten times the frequency → a tenth the size.
    assert constant_throughput_block_size(1.0 / 60.0) == pytest.approx(
        100_000, rel=0.01
    )


def test_constant_throughput_minimum_one_tx():
    assert constant_throughput_block_size(100.0) == 476


def test_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_nodes=1)
    with pytest.raises(ValueError):
        ExperimentConfig(block_rate=0)
    with pytest.raises(ValueError):
        ExperimentConfig(block_size_bytes=0)
    with pytest.raises(ValueError):
        ExperimentConfig(target_blocks=0)
    with pytest.raises(ValueError):
        ExperimentConfig(target_key_blocks=0)


def test_node_count_must_exceed_min_degree():
    # Caught at construction, not mid-setup inside random_topology.
    for n_nodes in (4, 5):
        with pytest.raises(ValueError, match="min_degree must be below"):
            ExperimentConfig(n_nodes=n_nodes)
    with pytest.raises(ValueError, match="min_degree must be below"):
        ExperimentConfig(n_nodes=10, min_degree=10)
    assert ExperimentConfig(n_nodes=6).n_nodes == 6
    assert ExperimentConfig(n_nodes=3, min_degree=2).min_degree == 2


def test_to_dict_from_dict_round_trip():
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG,
        n_nodes=30,
        seed=7,
        block_rate=0.05,
        obs_dir="out",
        scenario={
            "version": 1,
            "name": "rt",
            "faults": [{"at": 10, "kind": "heal"}],
        },
    )
    data = config.to_dict()
    assert data["protocol"] == "bitcoin-ng"
    assert data["relay_mode"] == "inv"
    assert data["scenario"]["name"] == "rt"
    rebuilt = ExperimentConfig.from_dict(data)
    assert rebuilt == config


def test_to_dict_is_json_serializable():
    import json

    config = ExperimentConfig(
        scenario={"version": 1, "faults": [{"at": 3, "kind": "restore"}]}
    )
    rebuilt = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict({"n_nodes": 10, "block_sizee": 100})


def test_unknown_protocol_fails_at_construction():
    # A typo fails where the config is built, naming the three protocols,
    # not later as a missing adapter inside run_experiment.
    for bad in ("bitcion", "Bitcoin", None, 3):
        with pytest.raises(ValueError, match="bitcoin, bitcoin-ng, ghost"):
            ExperimentConfig.from_dict({"protocol": bad, "n_nodes": 10})
    with pytest.raises(ValueError, match="'bitcion'"):
        ExperimentConfig(protocol="bitcion")
    for protocol in Protocol:
        config = ExperimentConfig.from_dict({"protocol": protocol.value})
        assert config.protocol is protocol


def test_scenario_normalized_on_construction():
    config = ExperimentConfig(
        scenario={
            "version": 1,
            "faults": [
                {"at": 20, "kind": "heal"},
                {"at": 5, "kind": "restore"},
            ],
        }
    )
    assert [f["at"] for f in config.scenario["faults"]] == [5.0, 20.0]
    assert config.scenario["name"] == "scenario"


def test_invalid_scenario_rejected_at_config_time():
    from repro.scenarios import ScenarioError

    with pytest.raises(ScenarioError):
        ExperimentConfig(scenario={"version": 1, "faults": [{"kind": "bad"}]})


def test_equivalent_scenarios_compare_equal():
    a = ExperimentConfig(
        scenario={"version": 1, "faults": [{"at": 4, "kind": "heal"}]}
    )
    b = ExperimentConfig(
        scenario={"version": 1, "faults": [{"at": 4.0, "kind": "heal"}]}
    )
    assert a == b


def test_scenario_config_is_picklable():
    import pickle

    config = ExperimentConfig(
        scenario={"version": 1, "faults": [{"at": 1, "kind": "heal"}]}
    )
    assert pickle.loads(pickle.dumps(config)) == config
