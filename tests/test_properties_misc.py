"""Property-based tests: scheduler, fee split, incentives, events."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incentives import (
    incentive_window,
    is_incentive_compatible,
    max_leader_fraction,
    min_leader_fraction,
)
from repro.core.remuneration import split_fee
from repro.net.links import SMALL_MESSAGE_CUTOFF
from repro.net.simulator import Simulator

from .test_net_links import OneLink


@given(
    st.integers(min_value=0, max_value=10**12),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_split_fee_conserves_and_orders(fee, fraction):
    current, following = split_fee(fee, fraction)
    assert current + following == fee
    assert current >= 0 and following >= 0
    assert current <= fee


@given(st.floats(min_value=0.0, max_value=0.49, allow_nan=False))
def test_incentive_bounds_ordering(alpha):
    lower = min_leader_fraction(alpha)
    upper = max_leader_fraction(alpha)
    assert 0.0 <= lower < 1.0
    assert 0.0 < upper <= 0.5
    window = incentive_window(alpha)
    if window.feasible:
        mid = (lower + upper) / 2
        assert is_incentive_compatible(alpha, mid)


@given(st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
def test_window_interior_compatible_exterior_not(alpha):
    window = incentive_window(alpha)
    if window.feasible and window.width > 1e-6:
        inside = (window.lower + window.upper) / 2
        assert is_incentive_compatible(alpha, inside)
        below = max(0.0, window.lower - 0.05)
        if below < window.lower - 1e-9:
            assert not is_incentive_compatible(alpha, below)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_event_queue_pops_in_order(times):
    sim = Simulator()
    popped = []
    for t in times:
        sim.schedule_at(t, lambda: popped.append(sim.now))
    sim.run()
    assert popped == sorted(times)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=2000, max_value=100_000),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_link_bulk_arrivals_fifo_monotone(sends):
    """Bulk messages on one directed link arrive in send order (FIFO)."""
    sends = sorted(sends, key=lambda pair: pair[0])
    arrivals = OneLink(0.05, 10_000).transfer(*sends)
    assert arrivals == sorted(arrivals)
    for (now, size), arrival in zip(sends, arrivals):
        assert arrival >= now + 0.05 + size / 10_000 - 1e-9


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=100_000),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_link_small_messages_never_blocked(sends):
    """Small messages always arrive after exactly their own cost."""
    sends = sorted(sends, key=lambda pair: pair[0])
    import pytest

    arrivals = OneLink(0.05, 10_000).transfer(*sends)
    for (now, size), arrival in zip(sends, arrivals):
        if size <= SMALL_MESSAGE_CUTOFF:
            assert arrival == pytest.approx(now + 0.05 + size / 10_000)
