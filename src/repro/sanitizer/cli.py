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

The run itself is described by the flag block every experiment-running
subcommand shares (:func:`repro.cli.add_run_arguments`), and no
environment variable is read here — ``REPRO_CHECK`` is resolved by
:func:`repro.cli.config_from_args`, the one config entry point (see lint
rule NG202).
"""

from __future__ import annotations

import argparse
import sys


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    from ..cli import add_run_arguments

    add_run_arguments(
        parser,
        protocol=True,
        instrumentation=("check",),
        nodes=30,
        blocks=20,
        block_rate=0.2,
        block_size=8_000,
        key_block_rate=0.02,
    )
    parser.add_argument(
        "--stride",
        type=int,
        default=64,
        help="capture a digest snapshot every N simulator events",
    )


def _digest_run(args: argparse.Namespace) -> list:
    """One run of the configured experiment, capturing a digest stream.

    Checking rides along when the config asks for it (``--check`` or
    ``REPRO_CHECK``), through the same
    :func:`~repro.sanitizer.runtime.sanitizer_for` as ``repro run`` — so
    two calls with the same arguments check in the same mode, by
    construction.
    """
    from ..cli import config_from_args
    from ..experiments import run_experiment
    from .runtime import sanitizer_for

    if args.stride < 1:
        raise SystemExit("error: --stride must be at least 1")
    config = config_from_args(args)
    runtime = sanitizer_for(config, digest_stride=args.stride)
    run_experiment(config, sanitizer=runtime)
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
        stream_a = _digest_run(args)
        stream_b = _digest_run(args)
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
    from ..cli import reject_wrong_kind
    from .digests import save_stream

    reject_wrong_kind("--out", args.out, directory=False)
    snapshots = _digest_run(args)
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
