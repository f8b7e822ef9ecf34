import json

from bench.compare import compare, verdict


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [v * 1.05 for v in steady], "lower", 0.1) == "within bound"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "regressed"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.1) == "regressed"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == "within bound"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.5, 9.5, 12.5]
    assert verdict(noisy, [v * 1.15 for v in noisy], "lower", 0.1) == "unresolved"
    # Wide spread but every run of B beyond every run of A: resolved.
    assert verdict(noisy, [v * 3 for v in noisy], "lower", 0.1) == "regressed"


SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "run_ms_per_block", "unit": "ms", "better": "lower", "bound": 0.1}
    ],
    "per_layer": [{"name": "net.simulator.events", "unit": "count"}],
}


def _result_file(tmp_path, name, wall, events):
    runs = [
        {
            "workload": "w",
            "seed": seed,
            "trace": 0,
            "attempted": 3,
            "failed": 0,
            "metrics": {"run_ms_per_block": {"value": wall + seed / 100, "unit": "ms"}},
            "counts": {"net.simulator.events": events},
        }
        for seed in range(5)
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"results": runs}))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    base = _result_file(tmp_path, "a.json", 10.0, 1000)
    same = _result_file(tmp_path, "b.json", 10.3, 1000)
    slow = _result_file(tmp_path, "c.json", 12.0, 1000)
    moved = _result_file(tmp_path, "d.json", 10.0, 1001)
    assert compare(base, same, SPEC) == 0
    assert "within bound" in capsys.readouterr().out
    assert compare(base, slow, SPEC) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare(base, moved, SPEC) == 1
    assert "net.simulator.events: A=1000 B=1001" in capsys.readouterr().out
