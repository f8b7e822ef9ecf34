"""repro — a full reproduction of Bitcoin-NG (Eyal et al., NSDI 2016).

Bitcoin-NG decouples Nakamoto consensus into leader election
(proof-of-work *key blocks*) and transaction serialization
(leader-signed *microblocks*), scaling throughput to node capacity and
latency to network propagation time while keeping Bitcoin's trust model.

Package map
-----------
``repro.core``
    The paper's contribution: key blocks, microblocks, epochs, the
    40/60 fee split, poison transactions, and the Section 5 incentive
    analysis.
``repro.bitcoin`` / ``repro.ghost``
    The baselines: Bitcoin's heaviest-chain protocol and the GHOST
    heaviest-subtree rule.
``repro.crypto`` / ``repro.ledger``
    From-scratch substrates: secp256k1 ECDSA, Merkle trees, proof-of-
    work targets; UTXO transactions, validation, mempool.
``repro.net`` / ``repro.mining``
    The testbed: a deterministic discrete-event network (latency
    histograms, per-link bandwidth, inv/getdata gossip) and simulated
    mining (exponential scheduler, pool-shaped power).
``repro.metrics``
    The Section 6 metrics: consensus delay, fairness, mining power
    utilization, time to prune, time to win, transaction frequency.
``repro.experiments``
    The Figure 7/8 harness: runner, sweeps, propagation study,
    reporting.
``repro.protocols``
    The closed map from each protocol to the adapter the runner builds
    its nodes through; a new protocol is a ``Protocol`` member plus an
    adapter class there.
``repro.scenarios``
    Deterministic fault injection: declarative JSON scenarios scheduling
    crashes, restarts, partitions, link degradation, and message loss.
``repro.attacks``
    Security studies: selfish mining, microblock-fork double spends and
    poison response, censorship, fee-strategy simulations.
``repro.wallet``
    User-side machinery: deterministic key chains, coin selection,
    payment building.
``repro.analysis`` / ``repro.stats``
    Closed-form fork/growth models and shared statistics helpers.
``repro.cli``
    The ``python -m repro`` command line.

Quickstart
----------
>>> from repro.experiments import ExperimentConfig, Protocol, run_experiment
>>> config = ExperimentConfig(protocol=Protocol.BITCOIN_NG, n_nodes=50,
...                           block_rate=0.1, block_size_bytes=20_000,
...                           target_blocks=40)
>>> result, log = run_experiment(config)
>>> 0 <= result.mining_power_utilization <= 1
True
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "attacks",
    "bitcoin",
    "core",
    "crypto",
    "experiments",
    "ghost",
    "ledger",
    "metrics",
    "mining",
    "net",
    "protocols",
    "scenarios",
    "stats",
    "wallet",
]
