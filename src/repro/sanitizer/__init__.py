"""repro.sanitizer: runtime protocol-invariant checking + race detection.

The dynamic half of the correctness-tooling stack.  :mod:`repro.lint`
proves determinism/layering properties *statically*; this package
validates the paper's protocol invariants against *live* simulation
state (checked mode, ``--check``) and bisects two same-seed executions
to the first divergent event (``repro check diverge``) when a
nondeterminism bug slips through anyway.

* :mod:`.checkers` — the invariant catalog (INV1xx codes): value
  conservation, the 40/60 fee split, coinbase maturity, microblock
  signature/rate/size rules, key-block-only chain weight, poison
  forfeiture, tip monotonicity, and mempool/UTXO cross-consistency.
  Checkers subclass :class:`InvariantChecker` (``check_block`` /
  ``check_state`` / ``on_event`` / ``check_dirty`` plus a ``depends``
  component set); INV104 holds the process-wide :class:`SignatureCache`,
  which carries (leader, microblock) verdicts across the executions of
  one process — inside a run each ``Microblock`` memoises its own.
* :mod:`.runtime` — :class:`SanitizerRuntime`, the event-boundary probe
  that sweeps node state through the checkers and captures state
  digests.  One sweep (dirty-set tracking), two modes: ``incremental``
  (the default) and ``audit`` (the same sweeps plus a periodic
  from-scratch walk with independent replica checkers, asserting the
  sweep missed nothing).  Zero cost when disabled; bit-identical when
  enabled.
* :mod:`.digests` — canonical per-node state digests (tip hash, chain
  weight, mempool fingerprint, UTXO root) and their JSONL stream format.
* :mod:`.bisect` — binary search over two digest streams for the first
  divergent event.
* :mod:`.cli` — the ``repro check`` subcommands.
"""

from .bisect import Divergence, find_divergence
from .checkers import (
    InvariantChecker,
    NodeDelta,
    SignatureCache,
    chain_checkers,
    ghost_checkers,
    ng_checkers,
    shared_signature_cache,
)
from .digests import DigestSnapshot, NodeDigest, node_digest
from .runtime import (
    RUNTIME_MODES,
    AuditDivergence,
    SanitizerRuntime,
    sanitizer_for,
)
from .violations import InvariantViolation, ViolationRecord

__all__ = [
    "AuditDivergence",
    "Divergence",
    "DigestSnapshot",
    "InvariantChecker",
    "InvariantViolation",
    "NodeDelta",
    "NodeDigest",
    "RUNTIME_MODES",
    "SanitizerRuntime",
    "SignatureCache",
    "ViolationRecord",
    "chain_checkers",
    "find_divergence",
    "ghost_checkers",
    "ng_checkers",
    "node_digest",
    "sanitizer_for",
    "shared_signature_cache",
]
