import gc
import signal
import time

import pytest

from bench.hostspeed import INTERVAL_S, REFERENCE_S, HostSpeedProbe, Window, piece


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_factor_is_speed_less_the_probes_own_share():
    window = Window(
        wall_s=2.0, on_cpu_share=0.9, probes=250, probe_share=0.1, speed=0.8
    )
    assert window.factor == pytest.approx(0.648)


def test_piece_does_not_feed_the_garbage_collector():
    """Hundreds of tracked allocations per piece would trigger the
    workload's collections early; a stray one or two would not."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(100):
            piece()
        assert gc.get_count()[0] - before < 10
    finally:
        gc.enable()


def test_probe_samples_a_busy_window_and_cleans_up():
    previous = signal.getsignal(signal.SIGPROF)
    with HostSpeedProbe() as probe:
        mark = probe.mark()
        _spin(0.3)
        window = probe.window(mark)
        later = probe.mark()
        _spin(0.1)
        assert probe.window(later).probes < window.probes
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert 0.3 <= window.wall_s < 0.6
    # One probe per tick, give or take a loaded host.
    assert 0.5 * 0.3 / INTERVAL_S <= window.probes <= 0.3 / INTERVAL_S + 1
    assert 0.0 < window.probe_share < 0.5
    # The piece takes REFERENCE_S on the reference host: same order here.
    assert 0.1 < window.speed < 10.0
    assert REFERENCE_S < INTERVAL_S / 4


def test_a_window_no_probe_fired_in_is_an_error():
    with HostSpeedProbe() as probe:
        mark = probe.mark()
        with pytest.raises(RuntimeError):
            probe.window(mark)
