#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(simbench/Cargo.toml) with path dependencies on the repository's crates;
it is built with `cargo build --release --offline`, every function
aligned to 64 bytes, into `$CARGO_TARGET_DIR` (default:
simbench/target). Build output goes to standard error. The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, without a
result, if the build or the run fails or the result is malformed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper", "scale1024", "serve_fleet", "replay"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    """Metric names and units the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Raises ValueError unless `result` has the contract's shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    metrics = result["metrics"]
    want = expected_metrics(trace)
    if set(metrics) != set(want):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(want))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if not NAME.match(name) or set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name!r} is malformed")
        if m["unit"] != want[name] or not UNIT.match(m["unit"]):
            raise ValueError(f"metric {name!r} has unit {m['unit']!r}, want {want[name]!r}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError(f"metric {name!r} is not a number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [0, 600]")

    # The simulator reads NEST_* knobs (jobs, cache, profiler); the
    # benchmark pins them itself, so none may leak in from outside.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEST_")}
    # Hot loops run up to 20% faster or slower depending on where the
    # linker happens to place them, which changes with any edit and with
    # the checkout's path. Aligning every function to 64 bytes gives each
    # function the same layout wherever it lands; the benchmark sets its
    # own compiler flags so that no outside flag changes that.
    for k in ("RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS", "CARGO_BUILD_RUSTFLAGS"):
        env.pop(k, None)
    env["RUSTFLAGS"] = "-C llvm-args=-align-all-functions=6"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    cmd = [os.path.join(target, "release", "nest-simbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(target, "simbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
        check_result(result, bool(args.trace))
    except (ValueError, KeyError, OSError) as e:
        fail(f"malformed result: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
