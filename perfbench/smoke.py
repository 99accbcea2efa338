#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that:
  * the run is correct and reports at least one attempted operation;
  * every metric BENCHMARK.json names is printed with its unit, the
    end-to-end ones with --trace 0 and the per-layer ones with --trace 1;
  * the workload's own end-to-end metrics are printed with their units;
  * count-type layer metrics repeat exactly for one seed;
  * a deliberately wrong reference (--sabotage) makes error_rate non-zero,
    so the output checks are known to fire.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7

# The end-to-end metrics each workload prints under its own names.
OWN = {
    "sim_campaign": {"runs_per_s": "1/s", "final_verdict_ms": "ms"},
    "stream_refit": {"meas_per_s": "1/s", "snapshot_p50_ms": "ms",
                     "snapshot_p95_ms": "ms", "final_verdict_ms": "ms"},
    "ingest_bulk": {"meas_per_s": "1/s", "final_verdict_ms": "ms"},
    "serve_mixed": {"meas_per_s": "1/s", "ingest_p50_ms": "ms", "ingest_p95_ms": "ms",
                    "query_p50_ms": "ms", "query_p95_ms": "ms"},
}
COMMON = {"setup_s": "s", "error_rate": "ratio", "peak_rss_mb": "MB"}
# Layer metrics that are counts of deterministic work.
EXACT_UNITS = {"count", "B", "ops/meas", "B/meas"}
EXACT_RATIOS = {"serve.cache_hit_ratio", "serve.shard_skew"}
LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.rstrip("\n").split("\n")
    printed = {m[1]: (float(m[2]), m[3]) for m in map(LINE.match, lines[:-1]) if m}
    return json.loads(lines[-1]), printed


def expect_metrics(where, metrics, wanted):
    for name, unit in wanted.items():
        assert name in metrics, f"{where}: {name} not printed"
        got = metrics[name]["unit"] if isinstance(metrics[name], dict) else metrics[name][1]
        assert got == unit, f"{where}: {name} printed in {got}, not {unit}"


def main():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) == set(OWN), f"workloads {names} differ from {sorted(OWN)}"
    for workload in names:
        result, printed = run(workload, 0)
        assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(e2e), f"{workload}: {sorted(result['metrics'])}"
        expect_metrics(f"{workload} result", result["metrics"], e2e)
        expect_metrics(f"{workload} report", printed, {**COMMON, **OWN[workload]})
        assert printed["error_rate"][0] == 0.0

        first, _ = run(workload, 1)
        second, _ = run(workload, 1)
        assert first["correct"] and second["correct"], f"{workload} traced run incorrect"
        assert set(first["metrics"]) == set(layer), f"{workload}: {sorted(first['metrics'])}"
        expect_metrics(f"{workload} traced result", first["metrics"], layer)
        for name, m in first["metrics"].items():
            if m["unit"] in EXACT_UNITS or name in EXACT_RATIOS:
                again = second["metrics"][name]["value"]
                assert m["value"] == again, f"{workload}: {name} {m['value']} then {again}"

        broken, printed = run(workload, 0, "--sabotage")
        assert not broken["correct"] and broken["failed"] > 0, f"{workload}: {broken}"
        assert printed["error_rate"][0] > 0.0, f"{workload}: sabotage left error_rate at 0"
        print(f"ok {workload}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
