#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--tiny] [--sabotage]

The benchmark is its own cargo package (perfbench/Cargo.toml) built
against the library crates under crates/. Build output goes to
$CARGO_TARGET_DIR, or .bench_build at the repository root. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. The script exits non-zero, printing no result, when the sources
are missing, the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sim_campaign", "stream_refit", "ingest_bulk", "serve_mixed"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))).resolve()


def build(target):
    for needed in (HERE / "Cargo.toml", ROOT / "crates"):
        if not needed.exists():
            fail(f"cannot build: {needed} is missing", code=2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, env=env)
    if code != 0:
        fail(f"build failed with exit code {code}")
    binary = target / "release" / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def run_workload(binary, target, workload, args, extra, deadline):
    scratch = target / "perfbench-tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--trace-out", str(target / "perfbench-traces")]
    try:
        code, out = run_group(cmd + extra, deadline - time.monotonic(), capture=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stderr.write(out or "")
        fail(f"{workload} failed with exit code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} result has keys {sorted(result)}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    started = time.monotonic()
    target = target_dir()
    binary = build(target)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        # A single run ends within RUN_TIMEOUT_S of its start, unless a
        # fresh build used up that budget; "all" gives each workload one.
        now = time.monotonic()
        deadline = now + RUN_TIMEOUT_S
        if args.workload != "all":
            deadline = max(started + RUN_TIMEOUT_S, now + 90)
        lines, result = run_workload(binary, target, workload, args, extra, deadline)
        for line in lines:
            print(line)
        results[workload] = result
    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
