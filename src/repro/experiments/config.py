"""Experiment configuration.

Captures everything Section 7 fixes about the testbed: node count,
topology degree, latency histogram, pairwise bandwidth, the mining-power
distribution, and the per-protocol block parameters the two sweeps vary.
Also the two run-shaping extensions: the observability directory
(:mod:`repro.obs`) and the fault-injection scenario
(:mod:`repro.scenarios`) — both live on the config so they round-trip
through process-pool sweep workers like any other axis.

Configs are value objects: derive variants with :meth:`with_`, and
serialize with :meth:`to_dict` / :meth:`from_dict` — never poke
attributes (the dataclass is frozen precisely so nothing can).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..bitcoin.blocks import ARTIFICIAL_TX_SIZE
from ..metrics.throughput import OPERATIONAL_BITCOIN_TX_RATE
from ..mining.power import PAPER_EXPONENT
from ..net.gossip import RelayMode
from ..net.links import DEFAULT_BANDWIDTH_BPS

# Re-exported: the enum lives in repro.protocols with the adapters it
# keys, and bench/ workloads import it from here.
from ..protocols import Protocol

__all__ = [
    "CHECK_MODES",
    "ExperimentConfig",
    "Protocol",
    "constant_throughput_block_size",
    "resolve_check_mode",
]

#: ``ExperimentConfig.check_mode`` values — also the ``--check`` choices
#: and the mode names ``REPRO_CHECK`` accepts.
CHECK_MODES = ("incremental", "audit")


def resolve_check_mode(
    flag_value: str | None, env_value: str = ""
) -> str | None:
    """The requested check mode, or ``None`` for an unchecked run.

    ``flag_value`` is the ``--check`` argument (``None`` absent, a mode
    string present); ``env_value`` is the raw ``REPRO_CHECK`` contents —
    empty/``0`` off, ``1`` the default incremental mode, a mode name
    that mode.  Anything else raises :class:`ValueError`: a mistyped
    mode must not quietly run a weaker check than the one asked for.
    No environment variable is read here; :mod:`repro.cli` does that.
    """
    if flag_value is not None:
        return flag_value
    if env_value in ("", "0"):
        return None
    if env_value == "1":
        return "incremental"
    if env_value in CHECK_MODES:
        return env_value
    raise ValueError(
        f"REPRO_CHECK={env_value!r} is not a check mode: use 0 (off), "
        f"1 (incremental) or one of {', '.join(CHECK_MODES)}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's full parameterization."""

    protocol: Protocol = Protocol.BITCOIN
    # Testbed shape (the paper used 1000 nodes; the default here is
    # sized for laptop benchmarks — raise it for fidelity runs).
    n_nodes: int = 100
    min_degree: int = 5
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    latency_seed: int = 2015
    power_exponent: float = PAPER_EXPONENT
    seed: int = 0
    relay_mode: RelayMode = RelayMode.INV

    # Block parameters.
    block_rate: float = 1.0 / 600.0  # Bitcoin blocks or NG microblocks /s
    block_size_bytes: int = 1_000_000  # Bitcoin block or NG microblock size
    tx_size: int = ARTIFICIAL_TX_SIZE
    key_block_rate: float = 1.0 / 100.0  # NG only
    # Satoshis of entry fee each synthetic transaction carries (NG
    # only).  Zero — the paper's testbed setting — leaves the 40%/60%
    # remuneration machinery computing empty splits; nonzero makes key
    # block coinbases carry real fee shares, which the fee-split
    # invariant (INV102) and the mutation probe key on.
    fee_per_tx: int = 0

    # Run length: the paper runs "for 50-100 Bitcoin blocks or
    # Bitcoin-NG microblocks" per execution.
    target_blocks: int = 60
    # For Bitcoin-NG, additionally run long enough for this many key
    # blocks, so fairness/utilization (computed over key blocks) have a
    # meaningful sample even at high microblock frequencies.
    target_key_blocks: int = 20
    # Extra settle time (in propagation terms) after mining stops.
    cooldown: float = 30.0

    # Verification cost model (seconds per payload byte); nonzero makes
    # large blocks slower to relay, as the paper observed.
    verification_seconds_per_byte: float = 0.0

    # Section 9 future work: resolve key-block forks with the GHOST
    # heaviest-subtree rule instead of the heaviest chain (NG only).
    ng_ghost_fork_choice: bool = False

    # Observability (repro.obs).  Setting ``obs_dir`` enables the full
    # instrumentation layer — JSONL event trace, its summary, and
    # periodic samplers — writing per-run files into that directory.
    # Living on the config means observability round-trips through
    # process-pool sweep workers: each worker rebuilds its own
    # instrumentation and writes files named by the cell's slug.
    obs_dir: str | None = None

    # Checked mode (repro.sanitizer).  When True, the run installs the
    # protocol's invariant checkers (via its adapter) and
    # sweeps node state every ``check_stride`` simulator events.
    # Checked runs are bit-identical to unchecked runs — checkers only
    # read state — and violations land on ``ExperimentResult.violations``.
    # ``check_mode`` is one of CHECK_MODES: "incremental" (dirty-set
    # sweeps + the verified-signature cache) or "audit" (the same plus
    # a periodic from-scratch walk with independent replica checkers,
    # asserting the sweeps missed nothing).
    check: bool = False
    check_mode: str = "incremental"
    check_stride: int = 64

    # Fault injection (repro.scenarios): a validated, schema-versioned
    # scenario dict, or None for a bare run.  Stored normalized, so two
    # configs built from equivalent specs compare equal; ``None`` and
    # an empty fault list both mean "inject nothing" and are
    # bit-identical to a bare run.
    scenario: dict | None = None

    def __post_init__(self) -> None:
        # A member, or its wire name ("bitcoin-ng"), becomes the member;
        # anything else is a ValueError naming the three.
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.n_nodes <= self.min_degree:
            raise ValueError("min_degree must be below node count")
        if self.block_rate <= 0 or self.key_block_rate <= 0:
            raise ValueError("rates must be positive")
        if self.block_size_bytes <= 0 or self.tx_size <= 0:
            raise ValueError("sizes must be positive")
        if self.fee_per_tx < 0:
            raise ValueError("fee_per_tx must be non-negative")
        if self.target_blocks < 1 or self.target_key_blocks < 1:
            raise ValueError("need at least one block")
        if self.check_stride < 1:
            raise ValueError("check_stride must be at least 1")
        if self.check_mode not in CHECK_MODES:
            raise ValueError(
                f"check_mode must be one of {CHECK_MODES}, "
                f"not {self.check_mode!r}"
            )
        if self.scenario is not None:
            from ..scenarios.spec import validate_scenario

            object.__setattr__(
                self, "scenario", validate_scenario(self.scenario)
            )

    @property
    def duration(self) -> float:
        """Mining time needed to produce ``target_blocks`` on average.

        Bitcoin-NG runs also cover ``target_key_blocks`` key blocks.
        """
        base = self.target_blocks / self.block_rate
        if self.protocol is Protocol.BITCOIN_NG:
            return max(base, self.target_key_blocks / self.key_block_rate)
        return base

    @property
    def txs_per_block(self) -> int:
        return max(0, self.block_size_bytes // self.tx_size)

    def with_(self, **overrides: object) -> "ExperimentConfig":
        """A modified copy (dataclasses.replace with a shorter name)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-friendly dict: enums become their wire-name strings.

        Round-trips exactly through :meth:`from_dict` —
        ``ExperimentConfig.from_dict(config.to_dict()) == config``.
        """
        data = dataclasses.asdict(self)
        data["protocol"] = self.protocol.value
        data["relay_mode"] = self.relay_mode.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (or hand-written
        JSON).  Unknown keys are an error — a typo should fail loudly,
        not silently run the defaults."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"unknown ExperimentConfig fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        relay_mode = kwargs.get("relay_mode")
        if isinstance(relay_mode, str):
            kwargs["relay_mode"] = RelayMode(relay_mode)
        return cls(**kwargs)


def constant_throughput_block_size(
    block_rate: float, tx_size: int = ARTIFICIAL_TX_SIZE
) -> int:
    """Block size holding payload throughput at the operational rate.

    The frequency sweep chooses "the block size (microblock size for
    Bitcoin-NG) such that the payload throughput is identical to that of
    Bitcoin's operational system, that is, one 1MB block every 10
    minutes" — i.e. ~3.5 tx/s regardless of frequency.
    """
    txs_per_block = max(1, round(OPERATIONAL_BITCOIN_TX_RATE / block_rate))
    return txs_per_block * tx_size
