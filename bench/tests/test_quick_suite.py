"""The whole command, end to end, at reduced size."""

import json
import subprocess
import sys
import time

from bench import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_suite_runs_all_six_workloads_traced(tmp_path):
    started = time.monotonic()
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--quick", "--traced", "--seconds", "2", "--out", str(tmp_path),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60.0
    (result_path,) = tmp_path.glob("result-*.json")
    data = json.loads(result_path.read_text())
    assert {"python", "platform", "cpus_in_affinity_mask", "git_commit", "git_dirty"} <= set(
        data["stamp"]
    )
    by_key = {(r["workload"], r["trace"]): r for r in data["results"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert set(by_key) == {(w, t) for w in workloads for t in (0, 1)}
    for (workload, trace), run in by_key.items():
        assert run["correct"] and run["failed"] == 0, (workload, trace)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in wanted}
        if trace:
            assert 0.95 <= run["metrics"]["experiments.ledger.coverage"]["value"] <= 1.05
            assert run["metrics"]["prof.phase_coverage"]["value"] >= 0.98
        else:
            assert all(m["value"] > 0 for m in run["metrics"].values())
            assert run["repeats"] >= 1
    for workload in workloads:
        assert f"ledger {workload}: stages of the run wall" in done.stdout
    assert "failed_share 0 ratio" in done.stdout
