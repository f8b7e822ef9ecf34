"""``--compare A.json B.json``: is B within bound of A, count for count?

For every workload and end-to-end metric the runs of each file give a
median and quartiles, and one verdict:

* *regressed* — B's median is worse than A's by more than the metric's
  bound;
* *unresolved* — either file's own spread is wider than the bound and
  the two sets of runs overlap, so the files cannot tell;
* *within bound* — otherwise.

Counts and simulated statistics repeat exactly for one seed, so they
are compared exactly, run by run.
"""

from __future__ import annotations

import json
from pathlib import Path

from .stats import quartiles, spread


def exact_unit(unit: str) -> bool:
    """Counts and simulated statistics: deterministic for a seed."""
    return unit == "count" or unit.startswith("sim_")


def _load(path: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data.get("results"), list):
        raise SystemExit(f"{path}: not a bench result file")
    return data


def end_to_end_values(
    results: list[dict], workload: str, metric: str
) -> list[float]:
    """One value per untraced run of ``workload`` in a result list."""
    return [
        run["metrics"][metric]["value"]
        for run in results
        if run["workload"] == workload
        and run["trace"] == 0
        and metric in run["metrics"]
    ]


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> str:
    _, median_a, _ = quartiles(a)
    _, median_b, _ = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / abs(median_a)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved"
    return "regressed" if worse_by > bound else "within bound"


def _exact_values(data: dict, units: dict[str, str]) -> dict[tuple, float]:
    """``(workload, seed, name) -> value`` for everything compared exactly."""
    found: dict[tuple, float] = {}
    for run in data["results"]:
        key = (run["workload"], run["seed"])
        # ``attempted`` is not exact: a run repeats as often as time allows.
        found[key + (f"failed (trace {run['trace']})",)] = run["failed"]
        for name, value in run.get("counts", {}).items():
            found[key + (name,)] = value
        for name, entry in run["metrics"].items():
            if exact_unit(units.get(name, entry["unit"])):
                found[key + (name,)] = entry["value"]
    return found


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print the comparison; 1 on a regression or a count mismatch."""
    data_a, data_b = _load(path_a), _load(path_b)
    failed = False
    print(f"A = {path_a}\nB = {path_b}")
    header = (
        f"{'workload':<22}{'metric':<20}"
        f"{'A median [q1, q3]':<34}{'B median [q1, q3]':<34}verdict"
    )
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = end_to_end_values(data_a["results"], workload, metric["name"])
            b = end_to_end_values(data_b["results"], workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            failed = failed or result == "regressed"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(
                f"{workload:<22}{metric['name']:<20}"
                f"{cells[0]:<34}{cells[1]:<34}{result}"
            )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact_a = _exact_values(data_a, units)
    exact_b = _exact_values(data_b, units)
    shared = sorted(set(exact_a) & set(exact_b))
    mismatches = [key for key in shared if exact_a[key] != exact_b[key]]
    print(f"{len(shared)} exact values compared, {len(mismatches)} differ")
    for workload, seed, name in mismatches:
        key = (workload, seed, name)
        print(
            f"  {workload} seed {seed} {name}: "
            f"A={exact_a[key]!r} B={exact_b[key]!r}"
        )
    return 1 if failed or mismatches else 0
