"""NG parameter validation and derived rates."""

import pytest

from repro.core.params import PAPER_EVALUATION_PARAMS, NGParams


def test_paper_defaults():
    params = NGParams()
    assert params.leader_fee_fraction == 0.40
    assert params.poison_bounty_fraction == 0.05
    assert params.coinbase_maturity == 100


def test_evaluation_params_match_section_8():
    assert PAPER_EVALUATION_PARAMS.key_block_interval == 100.0
    assert PAPER_EVALUATION_PARAMS.min_microblock_interval == 10.0


def test_derived_rates():
    params = NGParams(key_block_interval=50.0, min_microblock_interval=5.0)
    assert params.key_block_rate == pytest.approx(0.02)


def test_validation():
    with pytest.raises(ValueError):
        NGParams(key_block_interval=0)
    with pytest.raises(ValueError):
        NGParams(min_microblock_interval=-1)
    with pytest.raises(ValueError):
        NGParams(leader_fee_fraction=1.5)
    with pytest.raises(ValueError):
        NGParams(poison_bounty_fraction=-0.1)
    with pytest.raises(ValueError):
        NGParams(max_microblock_bytes=0)
    with pytest.raises(ValueError):
        NGParams(coinbase_maturity=-1)


def test_frozen():
    params = NGParams()
    with pytest.raises(Exception):
        params.leader_fee_fraction = 0.5  # type: ignore[misc]


def test_boundary_parameter_values_are_legal():
    # Each guard excludes its boundary's bad side only: sub-second key
    # block intervals, no microblock rate cap, a 1-byte microblock cap,
    # and maturity 0 (spend coinbases immediately) are all meaningful
    # configurations.
    assert NGParams(key_block_interval=0.5).key_block_interval == 0.5
    assert NGParams(min_microblock_interval=0.0).min_microblock_interval == 0
    assert NGParams(max_microblock_bytes=1).max_microblock_bytes == 1
    assert NGParams(coinbase_maturity=0).coinbase_maturity == 0


def test_fraction_upper_bounds_enforced():
    with pytest.raises(ValueError):
        NGParams(poison_bounty_fraction=1.5)
    # The closed upper end of [0, 1] itself is legal.
    assert NGParams(poison_bounty_fraction=1.0).poison_bounty_fraction == 1.0
    assert NGParams(leader_fee_fraction=1.0).leader_fee_fraction == 1.0
