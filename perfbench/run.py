#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <interactive|bulk|served> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a cargo package of
its own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`) and runs it.

An untraced run starts the program three times, one after another, on
the same seed (so on the same inputs), each measuring a third of
`--seconds`. Every metric is the mean of the three processes' values:
one process's memory layout sets some costs for its whole life (on
`bulk`, Nibble jobs run ~25% faster or slower from one process to the
next on the same inputs), and the mean spreads that over three layouts.
A traced run is one process.

Prints a detail report (the processes' own reports, and every metric's
per-process values), then as the last line the result object
`{"correct", "attempted", "failed", "metrics"}`. Every line the program
prints is parsed as strict JSON (no bare NaN/Infinity). Exits non-zero
without printing a result if the build fails, the program fails, or its
output is malformed; exits non-zero after printing the result if an
answer check failed. With `--trace 1`, spans are written to
`perfbench/out/spans-<workload>-<seed>.jsonl`.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Processes per untraced run.
PROCESSES = 3
# Wall-clock budget of a whole run; a hang is a failure.
RUN_TIMEOUT_S = 170


def reject_constant(token):
    raise ValueError(f"non-finite number token {token!r}")


def parse_result(line):
    """Parses the result line strictly; raises ValueError if malformed."""
    result = json.loads(line, parse_constant=reject_constant)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result) if isinstance(result, dict) else result!r}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} keys {sorted(metric)}")
    return result


def build(env):
    manifest = ROOT / "perfbench" / "Cargo.toml"
    if not (ROOT / "crates").is_dir():
        print("perfbench: no crates/ directory next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return False
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def run_process(exe, args, seconds, deadline):
    """Runs the program once; returns (detail, result) or raises ValueError."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", f"perfbench/out/spans-{args.workload}-{args.seed}.jsonl"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise ValueError(f"no result within {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"no output (exit code {proc.returncode})")
    detail = json.loads(lines[-2], parse_constant=reject_constant)
    result = parse_result(lines[-1])
    if proc.returncode != 0 and result["correct"]:
        raise ValueError(f"exit code {proc.returncode}")
    return detail, result


def merge(results):
    """Sums the counts and takes each metric's mean over processes."""
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": {}}
    per_process = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        known = [v for v in values if v is not None]
        merged["metrics"][name] = {"value": statistics.fmean(known) if known else None,
                                   "unit": metric["unit"]}
        per_process[name] = values
    return merged, per_process


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["interactive", "bulk", "served"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S

    processes = 1 if args.trace else PROCESSES
    exe = target / "release" / "perfbench"
    runs = []
    try:
        for _ in range(processes):
            runs.append(run_process(exe, args, args.seconds / processes, deadline))
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result, per_process = merge([r for _, r in runs])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": bool(args.trace), "processes": [d for d, _ in runs],
                      "per_process": per_process}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    if not result["correct"]:
        print("perfbench: an answer check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
