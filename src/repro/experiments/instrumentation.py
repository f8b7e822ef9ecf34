"""One options object for the run-shaping instrumentation surface.

``repro run`` and ``repro sweep`` (and the ``repro check`` / ``repro
prof`` subcommands) share the same instrumentation flags: ``--check``
(with its mode), ``--obs``, and ``--scenario``.  Before this module each
subcommand parsed and wired them ad hoc; :class:`RunInstrumentation`
parses them **once** (:meth:`RunInstrumentation.from_args`), stamps them
onto an :class:`~repro.experiments.config.ExperimentConfig`
(:meth:`RunInstrumentation.apply`), and builds the sanitizer runtime
(:meth:`RunInstrumentation.build_sanitizer`) in one place.

Everything round-trips through the config: ``SweepExecutor`` workers
receive the config in a subprocess and rebuild identical instrumentation
from it (:meth:`RunInstrumentation.from_config`), which is how a sweep
cell in a pool worker ends up checked/observed exactly like a serial
run.  The CLI flags themselves are unchanged — they are thin aliases
into this object now.

No environment variables are read here: ``REPRO_CHECK`` is resolved in
:mod:`repro.cli`, the one config entry point (lint rule NG202), and
arrives as an already-resolved mode string.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from .config import CHECK_MODES, ExperimentConfig


def resolve_check_mode(
    flag_value: str | None, env_value: str = ""
) -> str | None:
    """The requested check mode, or ``None`` for an unchecked run.

    ``flag_value`` is the ``--check`` argument (``None`` absent, a mode
    string present); ``env_value`` is the raw ``REPRO_CHECK`` contents —
    empty/``0`` off, ``1`` the default incremental mode, a mode name
    that mode.  Anything else raises :class:`ValueError`: a mistyped
    mode must not quietly run a weaker check than the one asked for.
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
class RunInstrumentation:
    """Parsed instrumentation options for one run (or every sweep cell)."""

    check: bool = False
    check_mode: str = "incremental"
    check_stride: int = 64
    obs_dir: str | None = None
    scenario: dict | None = None

    @classmethod
    def from_args(
        cls,
        args: argparse.Namespace,
        *,
        check_mode: str | None = None,
    ) -> "RunInstrumentation":
        """Parse the shared flag surface from an argparse namespace.

        ``check_mode`` is the already-resolved mode (flag + environment,
        see :func:`resolve_check_mode`) or ``None`` for unchecked.
        Missing attributes simply leave their option off, so subcommands
        that expose only part of the surface work unchanged.
        """
        scenario = None
        scenario_path = getattr(args, "scenario", None)
        if scenario_path is not None:
            from ..scenarios import ScenarioError, load_scenario

            try:
                scenario = load_scenario(scenario_path)
            except ScenarioError as exc:
                raise SystemExit(f"error: {exc}")
        stride = getattr(args, "check_stride", None)
        return cls(
            check=check_mode is not None,
            check_mode=check_mode if check_mode is not None else "incremental",
            check_stride=stride if stride is not None else 64,
            obs_dir=getattr(args, "obs", None),
            scenario=scenario,
        )

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "RunInstrumentation":
        """The instrumentation a config describes (worker-side rebuild)."""
        return cls(
            check=config.check,
            check_mode=config.check_mode,
            check_stride=config.check_stride,
            obs_dir=config.obs_dir,
            scenario=config.scenario,
        )

    def apply(self, config: ExperimentConfig) -> ExperimentConfig:
        """Stamp these options onto a config (the single wiring point)."""
        return config.with_(
            check=self.check,
            check_mode=self.check_mode,
            check_stride=self.check_stride,
            obs_dir=self.obs_dir,
            scenario=self.scenario,
        )

    def build_sanitizer(
        self,
        adapter: object = None,
        *,
        tracer: object = None,
        profiler: object = None,
        digest_stride: int = 0,
    ):
        """The run's :class:`~repro.sanitizer.runtime.SanitizerRuntime`.

        ``None`` when neither checking nor digest capture is requested.
        ``adapter`` supplies the protocol's checker set (skipped for
        digest-only runs).
        """
        if not self.check and digest_stride <= 0:
            return None
        from ..sanitizer.runtime import SanitizerRuntime

        checkers = ()
        if self.check and adapter is not None:
            checkers = adapter.invariant_checkers()  # type: ignore[attr-defined]
        return SanitizerRuntime(
            checkers,
            stride=self.check_stride,
            mode=self.check_mode,
            tracer=tracer,
            digest_stride=digest_stride,
            profiler=profiler,
        )
