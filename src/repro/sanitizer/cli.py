"""The ``repro check`` subcommands: determinism race detection.

``repro check diverge`` compares two digest streams and bisects to the
first divergent event.  Two input modes:

* **file mode** — two positional files saved by ``repro check record``
  (e.g. from two git revisions, or a serial and a ``--jobs`` run);
* **run mode** — no files: the configured experiment runs twice
  in-process with identical config and seed, which must be identical
  unless something nondeterministic is lurking.

``repro check record`` captures one run's digest stream to a file.

Exit codes: 0 identical, 1 divergence found, 2 usage/input error.

No environment variables are read here — ``REPRO_CHECK`` is resolved in
:mod:`repro.cli`, the one config entry point (see lint rule NG202).
"""

from __future__ import annotations

import argparse
import sys


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    from ..experiments import CHECK_MODES
    from ..protocols import Protocol

    parser.add_argument(
        "--protocol",
        choices=sorted(protocol.value for protocol in Protocol),
        default="bitcoin-ng",
    )
    parser.add_argument("--nodes", type=int, default=30, help="network size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--blocks", type=int, default=20, help="target blocks per run"
    )
    parser.add_argument("--block-rate", type=float, default=0.2)
    parser.add_argument("--block-size", type=int, default=8_000)
    parser.add_argument("--key-block-rate", type=float, default=0.02)
    parser.add_argument(
        "--stride",
        type=int,
        default=64,
        help="capture a digest snapshot every N simulator events",
    )
    parser.add_argument(
        "--check",
        nargs="?",
        const="incremental",
        choices=CHECK_MODES,
        default=None,
        metavar="MODE",
        help="also run the protocol's invariant checkers during the "
        "digest run(s); in the run-twice diverge mode both runs use "
        "this same mode by construction",
    )


def _config_from_args(args: argparse.Namespace) -> object:
    from ..experiments import ExperimentConfig

    mode = getattr(args, "check", None)
    return ExperimentConfig(
        protocol=args.protocol,
        n_nodes=args.nodes,
        seed=args.seed,
        target_blocks=args.blocks,
        block_rate=args.block_rate,
        block_size_bytes=args.block_size,
        key_block_rate=args.key_block_rate,
        check=mode is not None,
        check_mode=mode if mode is not None else "incremental",
    )


def _digest_run(config: object, stride: int) -> list:
    """One experiment run capturing a digest stream.

    Checking rides along when the config asks for it, built through the
    same :class:`~repro.experiments.instrumentation.RunInstrumentation`
    path as ``repro run`` — so two calls with the same config check in
    the same mode, by construction.
    """
    from ..experiments import RunInstrumentation, run_experiment
    from ..protocols import get_adapter

    instrumentation = RunInstrumentation.from_config(config)  # type: ignore[arg-type]
    adapter = (
        get_adapter(config.protocol)  # type: ignore[attr-defined]
        if instrumentation.check
        else None
    )
    runtime = instrumentation.build_sanitizer(
        adapter, digest_stride=max(1, stride)
    )
    run_experiment(config, sanitizer=runtime)  # type: ignore[arg-type]
    return runtime.digests


def cmd_diverge(args: argparse.Namespace) -> int:
    from .bisect import find_divergence
    from .digests import load_stream

    if args.files:
        if len(args.files) != 2:
            print(
                "error: diverge needs exactly two digest-stream files "
                "(or none to run twice in-process)",
                file=sys.stderr,
            )
            return 2
        try:
            stream_a = load_stream(args.files[0])
            stream_b = load_stream(args.files[1])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"comparing {args.files[0]} vs {args.files[1]}")
    else:
        config = _config_from_args(args)
        stream_a = _digest_run(config, args.stride)
        stream_b = _digest_run(config, args.stride)
        print(
            f"comparing two in-process runs "
            f"(protocol={args.protocol}, seed={args.seed}, "
            f"stride={args.stride})"
        )
    divergence = find_divergence(stream_a, stream_b)
    if divergence is None:
        events = stream_a[-1].index if stream_a else 0
        print(
            f"identical: {len(stream_a)} snapshots over ~{events} events"
        )
        return 0
    print(divergence.format())
    return 1


def cmd_record(args: argparse.Namespace) -> int:
    from .digests import save_stream

    config = _config_from_args(args)
    snapshots = _digest_run(config, args.stride)
    save_stream(
        args.out,
        snapshots,
        meta={
            "protocol": args.protocol,
            "seed": args.seed,
            "stride": args.stride,
        },
    )
    print(f"recorded {len(snapshots)} snapshots to {args.out}")
    return 0


def add_check_parser(commands: argparse._SubParsersAction) -> None:
    """Register the ``check`` command group on the main CLI."""
    check_parser = commands.add_parser(
        "check",
        help="runtime determinism tooling: digest recording and bisection",
    )
    check_commands = check_parser.add_subparsers(
        dest="check_command", required=True
    )

    diverge_parser = check_commands.add_parser(
        "diverge",
        help="bisect two same-config runs to the first divergent event",
    )
    diverge_parser.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="two saved digest streams to compare (omit to run the "
        "configured experiment twice in-process)",
    )
    _add_run_options(diverge_parser)
    diverge_parser.set_defaults(handler=cmd_diverge)

    record_parser = check_commands.add_parser(
        "record", help="run once and save the digest stream to a file"
    )
    record_parser.add_argument(
        "--out", required=True, metavar="FILE", help="output path (JSONL)"
    )
    _add_run_options(record_parser)
    record_parser.set_defaults(handler=cmd_record)
