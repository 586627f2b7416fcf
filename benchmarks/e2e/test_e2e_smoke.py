"""Keeps the benchmark harness from rotting: the smoke mode runs all
four workloads and the traced pass at ~1/40 size with the same output
checks.  Not part of the tier-1 suite (pytest.ini collects ``tests/``);
run it with ``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_smoke_run_checks_every_output_and_names_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke",
         "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, workload in result["workloads"].items():
        (run,) = workload["runs"]
        assert run["correct"] and run["failed"] == 0, (name, run["failures"])
        assert run["attempted"] >= 3
        missing = {m["name"] for m in spec["end_to_end"]} - set(run["metrics"])
        assert not missing, (name, missing)
        traced = workload["traced"]
        assert traced["correct"], (name, traced["failures"])
        missing = {m["name"] for m in spec["per_layer"]} \
            - set(traced["metrics"])
        assert not missing, (name, missing)


def test_compare_flags_an_out_of_bound_worsening(tmp_path):
    def result(rate):
        metrics = {
            "records_per_s": {"value": rate, "unit": "rec/s"},
            "job_mean_ms": {"value": 10.0, "unit": "ms"},
            "job_p90_ms": {"value": 20.0, "unit": "ms"},
            "jobs_per_s": {"value": 5.0, "unit": "jobs/s"},
            "peak_rss_mb": {"value": 100.0, "unit": "MB"},
            "setup_s": {"value": 1.0, "unit": "s"},
        }
        run = {"metrics": metrics, "failed": 0}
        return {"workloads": {"sam_text": {"runs": [run, run]}}}

    a, same, slow = (tmp_path / n for n in ("a.json", "same.json",
                                            "slow.json"))
    a.write_text(json.dumps(result(1000.0)))
    same.write_text(json.dumps(result(990.0)))
    slow.write_text(json.dumps(result(500.0)))

    def compare(left, right):
        return subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e", "compare", str(left),
             str(right)], cwd=ROOT, capture_output=True, text=True)

    assert compare(a, same).returncode == 0
    worse = compare(a, slow)
    assert worse.returncode == 1 and "WORSE" in worse.stdout
