#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 15 --trace 0

Run from the repository root. The last line of stdout is one JSON object
with exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of the traced run. The exit code is 0 when every output
check passed, 1 when one failed and 2 when the run could not be set up.
Build output, the serve fixture and span files go under
``$CARGO_TARGET_DIR`` (default ``.bench_build``).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline-small", "churn-small", "serve-small")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target_dir):
    """Builds the release binary, sending cargo's output to stderr."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir, "release", "perfbench")


def run_child(argv):
    """Runs the binary; returns (exit code, parsed result line, peak RSS in MiB).

    glibc gives short-lived threads their own malloc arenas, and which arena
    the rtt stage's 15 per-region threads land in varies from run to run, so
    peak RSS of one churn-small run ranged 221-428 MiB. One arena makes it
    repeat (205 MiB); see the README."""
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, result, usage.ru_maxrss / 1024.0


def ensure_fixture(binary, target_dir, world_seed):
    """Cuts the serve fixture once per checkout, in its own process, so the
    study behind it counts toward neither serve set-up nor serve memory."""
    path = os.path.join(target_dir, "perfbench", f"fixture-small-{world_seed}.cmsnap")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        log(f"cutting the serve fixture {path}")
        code = subprocess.run(
            [binary, "fixture", "--world-seed", str(world_seed), "--out", tmp]
        ).returncode
        if code != 0:
            return None
        os.replace(tmp, path)
    return path


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="query seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--world-seed", type=int, default=2019)
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    if binary is None:
        log("build failed")
        return 2
    seeds = ["--seed", str(args.seed), "--world-seed", str(args.world_seed)]
    workload = ["--workload", args.workload]

    if args.trace:
        spans = os.path.join(
            target_dir, "perfbench", f"spans-{args.workload}-{args.seed}.jsonl"
        )
        code, result, _ = run_child([binary, "trace", *seeds, "--spans", spans])
        if result is None:
            log(f"traced run failed to start (exit {code})")
            return 2
        sources = {name: "traced" for name in result["metrics"]}
    else:
        own = [binary, "run", *workload, *seeds, "--seconds", str(args.seconds)]
        if args.workload == "serve-small":
            fixture = ensure_fixture(binary, target_dir, args.world_seed)
            if fixture is None:
                log("could not cut the serve fixture")
                return 2
            own += ["--fixture", fixture]
        code, result, peak_mib = run_child(own)
        if result is None:
            log(f"workload failed to start (exit {code})")
            return 2
        sources = {name: "small" for name in result["metrics"]}
        result["metrics"]["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
        sources["peak_rss_mib"] = "small"
        # Metrics the workload's own loop does not produce come from a fixed
        # tiny-scale probe in a separate process (see the README).
        pcode, probe, _ = run_child([binary, "probe", *workload, *seeds])
        if probe is None:
            log(f"tiny probe failed to start (exit {pcode})")
            return 2
        for name, metric in probe["metrics"].items():
            result["metrics"][name] = metric
            sources[name] = "tiny probe"
        result["correct"] = result["correct"] and probe["correct"]
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]

    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
        result["correct"] = False
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        value = m["value"]
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else f"{'null':>16}"
        print(f"# {name:<28} {shown} {m['unit']:<6} {sources[name]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
