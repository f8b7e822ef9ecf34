#!/usr/bin/env python3
"""The paper's headline result at example scale: the frequency sweep.

Reproduces a miniature Figure 8a: as block frequency rises, Bitcoin's
mining power utilization and time-to-prune degrade (forks!), while
Bitcoin-NG — whose contention is confined to rare key blocks — stays
at the optimum.  Full-scale sweeps live in benchmarks/.

Run:  python examples/frequency_tradeoff.py
"""

from repro.experiments import (
    ExperimentConfig,
    Protocol,
    format_series,
    format_sweep_table,
    frequency_sweep,
)


def main() -> None:
    base = ExperimentConfig(
        n_nodes=40,
        target_blocks=40,
        target_key_blocks=10,
        cooldown=30.0,
        seed=1,
    )
    print("sweeping block/microblock frequency (constant 3.5 tx/s payload)")
    print("this runs six small experiments; give it ~a minute\n")
    sweep = frequency_sweep(base, frequencies=(0.05, 0.2, 0.5))
    print(format_sweep_table(sweep))
    print("\nmining power utilization by frequency "
          "(Bitcoin degrades, NG does not):\n")
    print(format_series(sweep, "mining_power_utilization"))
    print("\ntime to prune (seconds):\n")
    print(format_series(sweep, "time_to_prune"))
    at_half = {p.protocol: p for p in sweep.points if p.x == 0.5}
    ng, bitcoin = (
        at_half[protocol].mean("mining_power_utilization")
        for protocol in (Protocol.BITCOIN_NG, Protocol.BITCOIN)
    )
    assert ng >= bitcoin, (ng, bitcoin)
    print(f"\nat 0.5 blocks/s NG keeps utilization {ng:.3f} "
          f">= Bitcoin's {bitcoin:.3f}")


if __name__ == "__main__":
    main()
