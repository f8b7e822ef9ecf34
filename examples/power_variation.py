#!/usr/bin/env python3
"""Mining power variation: the alt-coin death spiral vs Bitcoin-NG.

Section 5.2 of the paper: when miners leave (exchange-rate moves, a
more profitable chain), block production stalls until difficulty
retargets — "potentially orders of magnitude longer" for small coins.
Bitcoin's *transaction serialization* stalls with it; Bitcoin-NG keeps
serializing in microblocks at the unchanged rate.

This example shows both: the raw difficulty control loop, and a live
two-protocol simulation with a 75% power drop mid-run.

Run:  python examples/power_variation.py
"""

from repro.experiments import ExperimentConfig, build_network, run_power_drop
from repro.metrics import ObservationLog
from repro.mining.power import exponential_shares
from repro.net.simulator import Simulator
from repro.protocols import Protocol, get_adapter


def difficulty_control_loop() -> None:
    print("1. the difficulty control loop (10 s blocks, 100-block window)")
    report = run_power_drop(
        target_interval=10.0, window=100, drop_to=0.25, seed=1
    )
    print(f"   interval before drop:        {report.interval_before:6.1f} s")
    print(f"   interval during the stall:   {report.interval_during_stall:6.1f} s"
          f"  ({report.stall_factor:.1f}x slower)")
    print(f"   interval after retargeting:  {report.interval_after_recovery:6.1f} s")
    print(f"   blocks mined until recovery: {report.blocks_to_recover}")


def live_comparison() -> None:
    print("\n2. live protocols: 75% of mining power leaves at t=500 s")
    config = ExperimentConfig(
        n_nodes=40,
        block_rate=1.0 / 10.0,
        key_block_rate=1.0 / 50.0,
        block_size_bytes=16_660,
        target_blocks=100,
        seed=4,
    )
    factor = {}
    for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG):
        sim = Simulator(seed=config.seed)
        network = build_network(config, sim)
        log = ObservationLog(config.n_nodes)
        shares = exponential_shares(config.n_nodes)
        cfg = config.with_(protocol=protocol)
        nodes, scheduler = get_adapter(protocol).build_nodes(
            cfg, sim, network, log, shares
        )
        scheduler.start()
        sim.run(until=500.0)
        scheduler.set_block_rate(scheduler.block_rate * 0.25)
        sim.run(until=1000.0)
        scheduler.stop()
        sim.run(until=1030.0)
        log.finalize(1030.0)
        main = log.main_chain()
        before = sum(
            log.index.info(h).n_tx
            for h in main
            if log.index.info(h).gen_time < 500
        ) / 500.0
        after = sum(
            log.index.info(h).n_tx
            for h in main
            if log.index.info(h).gen_time >= 500
        ) / 530.0
        factor[protocol] = after / before
        print(f"   {protocol.value:>11}: {before:5.2f} tx/s before, "
              f"{after:5.2f} tx/s after the drop "
              f"({factor[protocol]:5.2f}x)")
    assert factor[Protocol.BITCOIN_NG] > factor[Protocol.BITCOIN], factor
    print("\nBitcoin's serialization collapses with its block rate; NG's\n"
          "microblocks keep the ledger moving while only leader election\n"
          "slows (reduced censorship resistance, unchanged throughput).")


def main() -> None:
    difficulty_control_loop()
    live_comparison()


if __name__ == "__main__":
    main()
