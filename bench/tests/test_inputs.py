from bench.payments import make_plan
from bench.workloads import LOTTERY_SEED, WORKLOADS


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in WORKLOADS.values():
        assert workload.inputs(11) == workload.inputs(11), workload.name
        assert workload.inputs(11) != workload.inputs(12), workload.name


def test_the_seed_redraws_latencies_not_the_lottery():
    config = WORKLOADS["ng_scale_1000"].inputs(11)
    assert config.latency_seed == 11
    assert config.seed == LOTTERY_SEED


def test_payment_plan_is_an_open_loop_schedule_of_one_coin_payments():
    plan = make_plan(5, LOTTERY_SEED)
    assert len(plan.payments) == 100
    dues = [payment.due for payment in plan.payments]
    assert dues == sorted(dues)
    assert abs((dues[-1] - dues[0]) - 99 / 5.0) < 1e-9  # 5 per simulated second
    per_payer = {}
    for payment in plan.payments:
        assert payment.payer != payment.recipient
        per_payer[payment.payer] = per_payer.get(payment.payer, 0) + 1
    assert set(per_payer.values()) == {5}


def test_instrumented_scenario_scales_with_the_run():
    full = WORKLOADS["ng_instrumented_100"].inputs(1)
    assert [round(fault["at"], 9) for fault in full.scenario["faults"]] == [
        60.0, 150.0, 260.0, 300.0, 380.0,
    ]  # fmt: skip
    quick = WORKLOADS["ng_instrumented_100"].inputs(1, quick=True)
    assert all(f["at"] < quick.duration for f in quick.scenario["faults"])
