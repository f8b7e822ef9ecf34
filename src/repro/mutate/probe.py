"""Subprocess probe: one sanitized simulation + golden fingerprint.

Run as ``python -m repro.mutate.probe`` with ``PYTHONPATH`` pointing at
a (possibly mutated) shadow tree.  One short Bitcoin-NG run feeds two
kill tiers at once:

* **sanitizer** — the protocol adapter's full invariant-checker set;
  every :class:`ViolationRecord` comes back verbatim;
* **golden** — the same digest fingerprint the golden-equivalence suite
  pins (event/message/block counts, main-chain length, tip set, and a
  truncated sha over every node's state digest), compared against the
  clean tree's baseline by the engine.

The probe prints exactly one JSON object on stdout and exits 0 even
when violations fired — a non-zero exit (or garbage on stdout) means
the *mutant crashed the simulation*, which the engine scores as a
golden-tier kill in its own right.  Importing mutated code can fail in
arbitrary ways, so everything after arg parsing runs under one broad
try/except that still reports JSON.
"""

from __future__ import annotations

import json
import sys
import traceback


def run_probe() -> dict:
    """Execute the probe simulation; JSON-ready verdict payload."""
    from repro.experiments import ExperimentConfig, run_experiment
    from repro.protocols import Protocol, get_adapter
    from repro.sanitizer.digests import state_fingerprint
    from repro.sanitizer.runtime import SanitizerRuntime

    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG,
        n_nodes=10,
        seed=11,
        target_blocks=30,
        target_key_blocks=5,
        block_rate=0.2,
        # Fast key blocks: the main chain must keep several of them with
        # microblock runs in between, or no epoch with fees behind it
        # ever closes and the remuneration path computes nothing.
        key_block_rate=0.05,
        block_size_bytes=8_000,
        # Nonzero, odd-valued fees: the 40%/60% split and its rounding
        # dust are live in every coinbase, so fee-split mutants perturb
        # block hashes (golden) or trip INV102 (sanitizer).  Zero fees
        # — the paper's testbed setting — would leave that whole
        # mechanism invisible to the probe.
        fee_per_tx=7,
        cooldown=15.0,
    )
    adapter = get_adapter(config.protocol)
    runtime = SanitizerRuntime(adapter.invariant_checkers(), stride=16)
    result, _log = run_experiment(config, sanitizer=runtime)
    runtime.finalize()
    tips, state = state_fingerprint(runtime.nodes)
    return {
        "ok": True,
        "violations": [
            {"code": v.code, "name": v.name, "message": v.message}
            for v in runtime.violations
        ],
        "fingerprint": [
            result.events_processed,
            result.messages_delivered,
            result.blocks_generated,
            result.main_chain_length,
            tips,
            state,
        ],
    }


def main() -> int:
    try:
        payload = run_probe()
    except BaseException:  # noqa: BLE001 - mutants fail arbitrarily
        payload = {
            "ok": False,
            "error": traceback.format_exc(limit=5),
        }
    json.dump(payload, sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
