"""repro.sanitizer: runtime protocol-invariant checking + state digests.

The dynamic half of the correctness-tooling stack.  :mod:`repro.lint`
proves determinism/layering properties *statically*; this package
validates the paper's protocol invariants against *live* simulation
state (checked mode, ``--check``) and fingerprints a finished run's
node state, which the golden-equivalence pins compare bit for bit.

* :mod:`.checkers` — the invariant catalog (INV1xx codes): value
  conservation, the 40/60 fee split, microblock leader signatures and
  tip monotonicity.  Checkers subclass :class:`InvariantChecker`
  (``check_block`` / ``check_state``); INV104 holds the process-wide
  :class:`SignatureCache`, which carries (leader, microblock) verdicts
  across the executions of one process — inside a run each
  ``Microblock`` memoises its own.
* :mod:`.runtime` — :class:`SanitizerRuntime`, the event-boundary probe
  that sweeps node state through the checkers.  One sweep (a node is
  swept when its tip moved), two modes: ``incremental`` (the default)
  and ``audit`` (the same sweeps plus a periodic from-scratch walk with
  independent replica checkers, asserting the sweep missed nothing).  Zero cost
  when disabled; bit-identical when enabled.
* :mod:`.digests` — canonical per-node state digests (tip hash, chain
  weight, mempool fingerprint, UTXO root) and :func:`state_fingerprint`,
  their one-hash fold over every node at the end of a run.
"""

from .checkers import (
    InvariantChecker,
    SignatureCache,
    ng_checkers,
    shared_signature_cache,
)
from .digests import NodeDigest, node_digest, state_fingerprint
from .runtime import (
    RUNTIME_MODES,
    AuditDivergence,
    SanitizerRuntime,
    sanitizer_for,
)
from .violations import ViolationRecord

__all__ = [
    "AuditDivergence",
    "InvariantChecker",
    "NodeDigest",
    "RUNTIME_MODES",
    "SanitizerRuntime",
    "SignatureCache",
    "ViolationRecord",
    "ng_checkers",
    "node_digest",
    "sanitizer_for",
    "shared_signature_cache",
    "state_fingerprint",
]
