"""Tracing leaves nothing behind and changes nothing simulated."""

from repro.crypto.keys import PublicKey
from repro.experiments import runner
from repro.net.simulator import Simulator

from bench.trace import TracedRun, stage_targets
from bench.workloads import WORKLOADS, Tracing
from bench.spans import SpanRecorder


def test_wrappers_are_gone_and_a_bare_run_is_identical_afterwards():
    workload = WORKLOADS["ng_micro_60"]
    inputs = workload.inputs(3, quick=True)
    targets = stage_targets(Tracing(SpanRecorder("probe")))
    before = [vars(owner)[attr] for owner, attr, *_ in targets]
    bare_before = workload.execute(inputs)

    run = TracedRun(workload, inputs, "test")

    assert [vars(owner)[attr] for owner, attr, *_ in targets] == before
    assert not hasattr(Simulator.run, "__wrapped__")
    assert not hasattr(runner.build_network, "__wrapped__")
    assert not hasattr(PublicKey.verify, "__wrapped__")
    assert run.failures == []
    assert run.traced.outcome == run.reference.outcome == bare_before.outcome
    bare_after = workload.execute(inputs)
    assert bare_after.outcome == bare_before.outcome
    assert bare_after.counts == bare_before.counts


def test_ledgers_cover_their_walls():
    workload = WORKLOADS["btc_scale_1000"]
    run = TracedRun(workload, workload.inputs(3, quick=True), "test")
    assert run.failures == []
    assert 0.95 <= run.metrics["experiments.ledger.coverage"] <= 1.05
    assert run.metrics["prof.phase_coverage"] >= 0.98
    totals = run.tracing.recorder.totals()
    root = totals["run"]
    assert abs(sum(t.self_s for t in totals.values()) - root.busy_s) < 1e-6
    assert run.metrics["bitcoin.deliver_block.calls"] > 0
    assert run.metrics["core.deliver_micro.calls"] == 0
    assert "sum of rows" in run.ledger()


def test_setting_up_alone_puts_the_simulator_back():
    original = Simulator.run
    for name in ("ng_micro_60", "ng_instrumented_100"):
        workload = WORKLOADS[name]
        inputs = workload.inputs(3, quick=True)
        bare_before = workload.execute(inputs)
        assert workload.set_up_only(inputs) > 0.0
        assert vars(Simulator)["run"] is original
        assert workload.execute(inputs).outcome == bare_before.outcome
    assert WORKLOADS["fig8_sweep_60"].set_up_only(None) is None
