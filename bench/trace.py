"""The traced run: spans around stages, profiler phases, the ledger.

A traced run executes a workload once untraced (the reference) and
once with (a) spans around each stage the harness calls — recorded by
wrappers this module installs and removes — and (b) a
``ProfilerRuntime`` per simulation for the phases inside the dispatch
loop.  Both must simulate exactly the same thing.  The result is every
per-layer metric plus two ledgers: stage rows that sum to the run wall
and phase rows that sum to the simulate wall.
"""

from __future__ import annotations

import gc
from typing import Any

from repro.core import node as core_node
from repro.crypto.keys import PrivateKey, PublicKey
from repro.experiments import runner
from repro.ledger.mempool import Mempool
from repro.ledger.utxo import UtxoSet
from repro.metrics.collector import ObservationLog
from repro.net.simulator import Simulator
from repro.obs.facade import Observability
from repro.protocols import BitcoinAdapter, BitcoinNGAdapter
from repro.sanitizer.runtime import SanitizerRuntime
from repro.scenarios.engine import ScenarioEngine
from repro.wallet import Wallet

from . import payments, workloads
from .micro import micro_metrics
from .spans import SpanRecorder, SpanTotal
from .workloads import PAPER_METRICS, Sample, Tracing

STAGE_COVERAGE = (0.95, 1.05)
PHASE_COVERAGE_FLOOR = 0.98

# Per-layer metrics read straight off a span or phase total: which stems
# report their inclusive seconds, and which their call counts.
SPAN_BUSY = (
    "experiments.topology",
    "experiments.build_network",
    "experiments.build_nodes",
    "experiments.finalize",
    "net.simulator.run",
    "crypto.ecdsa.sign",
    "crypto.ecdsa.verify",
    "ledger.utxo.apply",
    "wallet.build_payment",
)
SPAN_CALLS = (
    "crypto.ecdsa.sign",
    "crypto.ecdsa.verify",
    "ledger.validate_spend",
    "ledger.utxo.apply",
    "ledger.mempool.add",
    "wallet.build_payment",
)
PHASE_BUSY_AND_CALLS = (
    "net.gossip.deliver_inv",
    "net.gossip.deliver_getdata",
    "core.deliver_key",
    "core.deliver_micro",
    "core.generate_microblock",
    "bitcoin.deliver_block",
    "mining.block",
)


def stage_targets(tracing: Tracing) -> list[tuple]:
    """``(owner, attribute, span name[, tap])`` for every call that gets
    a span; the taps collect the networks built."""
    keep_network = tracing.networks.append
    targets: list[tuple] = [
        (runner, "random_topology", "experiments.topology"),
        (runner, "build_network", "experiments.build_network", keep_network),
        (BitcoinAdapter, "build_nodes", "experiments.build_nodes"),
        (BitcoinNGAdapter, "build_nodes", "experiments.build_nodes"),
        (Observability, "install", "obs.install"),
        (SanitizerRuntime, "install", "sanitizer.install"),
        (ScenarioEngine, "install", "scenarios.install"),
        (Simulator, "run", "net.simulator.run"),
        (SanitizerRuntime, "finalize", "sanitizer.finalize"),
        (ObservationLog, "finalize", "experiments.finalize"),
        (Observability, "finalize", "experiments.finalize"),
        (ObservationLog, "main_chain", "metrics.main_chain"),
        # The payments workload builds its world from these directly.
        (payments, "random_topology", "experiments.topology"),
        (payments, "Network", "experiments.build_network", keep_network),
        (payments, "NGNode", "experiments.build_nodes"),
        (PrivateKey, "sign", "crypto.ecdsa.sign"),
        (PublicKey, "verify", "crypto.ecdsa.verify"),
        (core_node, "validate_spend", "ledger.validate_spend"),
        (UtxoSet, "apply", "ledger.utxo.apply"),
        (Mempool, "add", "ledger.mempool.add"),
        (Wallet, "build_payment", "wallet.build_payment"),
    ]
    for name in PAPER_METRICS:
        # run_experiment and the payments workload each bind their own name.
        targets.append((runner, name, f"metrics.{name}"))
        targets.append((workloads, name, f"metrics.{name}"))
    return targets


def phase_metric(phase: str) -> str:
    """The per-layer metric stem a profiler phase belongs to."""
    if phase.startswith("deliver:inv"):
        return "net.gossip.deliver_inv"
    return {
        "heappop": "net.simulator.heappop",
        "dispatch": "net.simulator.dispatch",
        "deliver:getdata": "net.gossip.deliver_getdata",
        "deliver:object:key": "core.deliver_key",
        "deliver:object:micro": "core.deliver_micro",
        "deliver:object:block": "bitcoin.deliver_block",
        "mining:microblock": "core.generate_microblock",
        "mining:block": "mining.block",
        "gossip:timeout": "net.gossip.timeout",
        "sanitize": "sanitizer.sweep",
    }.get(phase, phase)


def fold_phases(profiles: list) -> dict[str, SpanTotal]:
    """Sum the profiles' phases under their metric stems.

    A phase is a leaf of the dispatch loop, so its busy and self seconds
    are the same number.
    """
    folded: dict[str, SpanTotal] = {}
    for profile in profiles:
        for phase, stat in profile.phases.items():
            total = folded.setdefault(phase_metric(phase), SpanTotal())
            total.calls += stat.calls
            total.busy_s += stat.seconds
            total.self_s += stat.seconds
    return folded


def _simulated(sample: Sample) -> tuple:
    """What must be equal with and without tracing: the outcome and
    every count but the obs trace's size — the profiler adds its epoch
    spans (``prof_span`` records) to that file."""
    counts = {
        name: value
        for name, value in sample.counts.items()
        if not name.startswith("obs.trace.")
    }
    return sample.outcome, counts


class TracedRun:
    """Reference and traced execution of one workload, with its metrics."""

    def __init__(self, workload: Any, inputs: Any, run_id: str) -> None:
        self.workload = workload
        self.tracing = Tracing(SpanRecorder(run_id))
        gc.collect()
        self.reference: Sample = workload.execute(inputs)
        gc.collect()
        with self.tracing.recorder.patched(stage_targets(self.tracing)):
            self.traced: Sample = workload.execute(inputs, self.tracing)
        self.attempted = self.reference.attempted + self.traced.attempted
        self.failures = self.reference.failures + self.traced.failures
        if _simulated(self.traced) != _simulated(self.reference):
            self.failures.append("the traced run diverged from the untraced")
        self.metrics: dict[str, float] = {}
        if not self.failures:
            extras, attempted, failures = workload.extras(
                inputs, self.reference
            )
            self.attempted += attempted
            self.failures += failures
            self.metrics = {**self._layer_metrics(), **extras, **micro_metrics()}
            self.failures += self._coverage_failures()

    # -- assembly ------------------------------------------------------------

    def _layer_metrics(self) -> dict[str, float]:
        spans = self.tracing.recorder.totals()
        phases = fold_phases(self.tracing.profiles)
        traced = self.traced

        def span(name: str) -> SpanTotal:
            return spans.get(name, SpanTotal())

        def phase(name: str) -> SpanTotal:
            return phases.get(name, SpanTotal())

        run = span("run")
        metric_spans = [
            total for name, total in spans.items() if name.startswith("metrics.")
        ]
        simulate = sum(p.wall_simulate_seconds for p in self.tracing.profiles)
        attributed = sum(p.attributed_seconds for p in self.tracing.profiles)
        events = traced.counts["net.simulator.events"]
        inv = phase("net.gossip.deliver_inv")
        objects = sum(
            total.calls
            for name, total in phases.items()
            if name.startswith(("core.deliver_", "bitcoin.deliver_"))
            or name == "deliver:object:tx"
        )
        committed = traced.counts.get("payments.committed", 0)
        out = dict(traced.counts)
        out.pop("payments.committed", None)
        cells = out.get("experiments.sweep.cells")
        if cells:
            # Host-time figures come from the untraced execution.
            ref = self.reference
            out["experiments.sweep.overhead_s_per_cell"] = (
                ref.wall_s - ref.setup_s - ref.simulate_s
            ) / cells
        for stem in SPAN_BUSY:
            out[f"{stem}.busy_s"] = span(stem).busy_s
        for stem in SPAN_CALLS:
            out[f"{stem}.calls"] = span(stem).calls
        for stem in PHASE_BUSY_AND_CALLS:
            out[f"{stem}.busy_s"] = phase(stem).busy_s
            out[f"{stem}.calls"] = phase(stem).calls
        out.update(
            {
                "experiments.ledger.coverage": (
                    1.0 - run.self_s / run.busy_s if run.busy_s else 0.0
                ),
                "metrics.compute.busy_s": sum(t.self_s for t in metric_spans),
                "metrics.compute.calls": sum(t.calls for t in metric_spans),
                "net.simulator.us_per_event": (
                    self.reference.simulate_s / events * 1e6 if events else 0.0
                ),
                "net.simulator.heappop.self_s": phase("net.simulator.heappop").self_s,
                "net.simulator.dispatch.self_s": phase(
                    "net.simulator.dispatch"
                ).self_s,
                "net.network.bytes_delivered": sum(
                    network.bytes_delivered for network in self.tracing.networks
                ),
                "net.gossip.objects_per_inv": (
                    objects / inv.calls if inv.calls else 0.0
                ),
                "net.gossip.timeout.calls": phase("net.gossip.timeout").calls,
                "sanitizer.sweep.busy_s": phase("sanitizer.sweep").busy_s,
                "crypto.ecdsa.verifies_per_payment": (
                    span("crypto.ecdsa.verify").calls / committed
                    if committed
                    else 0.0
                ),
                "ledger.validate_spend.self_s": span(
                    "ledger.validate_spend"
                ).self_s,
                "prof.traced_over_untraced_ratio": (
                    traced.wall_s / self.reference.wall_s
                ),
                "prof.phase_coverage": attributed / simulate if simulate else 0.0,
            }
        )
        return out

    def _coverage_failures(self) -> list[str]:
        failures = []
        stage = self.metrics["experiments.ledger.coverage"]
        if not STAGE_COVERAGE[0] <= stage <= STAGE_COVERAGE[1]:
            failures.append(f"stage spans cover {stage:.3f} of the run wall")
        phases = self.metrics["prof.phase_coverage"]
        if phases < PHASE_COVERAGE_FLOOR:
            failures.append(f"phases cover {phases:.3f} of the simulate wall")
        return failures

    # -- presentation --------------------------------------------------------

    def ledger(self) -> str:
        """Stage rows summing to the run wall, phase rows to the simulate wall."""
        spans = self.tracing.recorder.totals()
        run = spans.get("run", SpanTotal())
        lines = [
            f"ledger {self.workload.name}: stages of the run wall "
            f"({run.busy_s:.4f} s, {run.calls} run)"
        ]
        rows = sorted(
            ((name, t) for name, t in spans.items() if name != "run"),
            key=lambda row: -row[1].self_s,
        )
        rows.append(("(untraced harness code)", SpanTotal(0, 0.0, run.self_s)))
        for name, total in rows:
            share = total.self_s / run.busy_s if run.busy_s else 0.0
            lines.append(
                f"  {name:<34}{total.calls:>9} calls"
                f"{total.self_s:>11.4f} s self{share:>8.1%}"
            )
        lines.append(
            f"  {'sum of rows':<34}{'':>15}"
            f"{sum(t.self_s for _, t in rows):>11.4f} s"
        )
        simulate = sum(p.wall_simulate_seconds for p in self.tracing.profiles)
        lines.append(
            f"ledger {self.workload.name}: phases of the simulate wall "
            f"({simulate:.4f} s)"
        )
        phases = fold_phases(self.tracing.profiles)
        attributed = 0.0
        for name, total in sorted(phases.items(), key=lambda r: -r[1].self_s):
            attributed += total.self_s
            share = total.self_s / simulate if simulate else 0.0
            lines.append(
                f"  {name:<34}{total.calls:>9} calls"
                f"{total.self_s:>11.4f} s self{share:>8.1%}"
            )
        lines.append(f"  {'sum of rows':<34}{'':>15}{attributed:>11.4f} s")
        return "\n".join(lines)
