#!/usr/bin/env python3
"""Replay benchmark for `experiments replay`: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload poisson_plain --seed 1 --seconds 25 --trace 0

It builds the `perfbench` package and the `experiments` CLI from source,
makes the workload's inputs from --seed, cross-checks the benchmark's replay
against the CLI, then measures for --seconds. With --trace 0 every replay
runs in a process of its own (so peak RSS is that replay's), a fixed
reference loop between replays gives the host's speed, and the metrics are
the end-to-end ones, host times scaled to a reference host speed; with
--trace 1 it repeats the traced pass and the metrics are the per-layer
ones. Metric names and units come from BENCHMARK.json. The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Requests per replay: each replay takes seconds, and the windowed workload
# holds O(requests) window cells, so its RSS is in the hundreds of MB.
REQUESTS = {
    "poisson_plain": 4_000_000,
    "diurnal_windows_log": 3_000_000,
    "csv_cache_faults": 4_000_000,
}
# The `experiments replay` flags of the shapes the CLI can generate itself.
CLI_FLAGS = {
    "poisson_plain": [],
    "diurnal_windows_log": [
        "--workload", "diurnal:base=4,amp=3,period=86400",
        "--window", "3600",
        "--completion-log", os.devnull,
    ],
}
CROSS_CHECK_REQUESTS = 100_000
MIN_REPLAYS = 3
SETUPS_PER_REPLAY = 3
# The reference loop's time on a typical host (the 2-vCPU Xeon of
# NOTES.md), seconds: host times are reported as if the host ran the loop
# in this time.
REFERENCE_S = 0.4
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "spindown_experiments", "--bin", "experiments"],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def child(args):
    """Run one process to completion: (last stdout line as JSON or None, rusage)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        proc.stdout.close()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"exit {proc.returncode}: {' '.join(args)}")
        return None, usage
    return json.loads(lines[-1]), usage


def calibrate(bench):
    """Seconds of one pass of the benchmark's reference loop."""
    result, _ = child([bench, "calibrate"])
    if result is None:
        sys.exit("perfbench: calibration failed")
    return result["calibrate_s"]


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    # The ceiling stops git from reporting an enclosing repository's
    # revision when the checkout is not a repository itself.
    git = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "mem_total": first_line("/proc/meminfo", "MemTotal"),
        "rustc": rustc.stdout.strip() or "unknown",
        "git": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)",
    }


def trace_input(bench, work, seed, rows):
    """The seeded CSV trace, generated once per seed and reused."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    name = f"trace-seed{seed}-rows{rows}.csv"
    path = os.path.join(inputs, name)
    if not os.path.exists(path):
        for old in os.listdir(inputs):  # keep one trace, not one per seed
            os.remove(os.path.join(inputs, old))
        if child([bench, "gen-trace", "--seed", str(seed), "--requests", str(rows),
                  "--out", path])[0] is None:
            sys.exit("perfbench: trace generation failed")
    return path


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cross_check(bench, cli, work, workload):
    """The benchmark's replay at the CLI's fixed seed must write the CLI's CSVs."""
    cli_out = fresh_dir(os.path.join(work, "cross", "cli"))
    bench_out = fresh_dir(os.path.join(work, "cross", "bench"))
    n = str(CROSS_CHECK_REQUESTS)
    cmd = [cli, "--out", cli_out, "--requests", n, *CLI_FLAGS[workload], "replay"]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        log("experiments replay failed")
        return False
    if child([bench, "replay", "--workload", workload, "--cli-seed", "--requests", n,
              "--out", bench_out])[0] is None:
        return False
    names = sorted(set(os.listdir(cli_out)) | set(os.listdir(bench_out)))
    for name in names:
        texts = []
        for d in (cli_out, bench_out):
            try:
                with open(os.path.join(d, name)) as f:
                    texts.append(f.read())
            except OSError:
                texts.append(None)
        if texts[0] != texts[1]:
            log(f"cross-check: {name} differs from the CLI's")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REQUESTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("perfbench: --seed must be non-negative")
    started = time.monotonic()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build(target)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = os.path.join(target, "release", "perfbench")
    cli = os.path.join(target, "release", "experiments")
    work = os.path.join(target, "perfbench")
    print(json.dumps({"machine": machine()}), flush=True)

    requests = REQUESTS[args.workload]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--requests", str(requests)]
    if args.workload == "csv_cache_faults":
        common += ["--trace-file", trace_input(bench, work, args.seed, requests)]
    counted, _ = child([bench, "count", *common])
    if counted is None:
        sys.exit("perfbench: could not count the workload's requests")
    common += ["--expect", str(int(counted["requests"]))]
    out = fresh_dir(os.path.join(work, "out", args.workload))

    ok = []  # one entry per operation: did it pass every check?
    if args.workload in CLI_FLAGS:
        ok.append(cross_check(bench, cli, work, args.workload))

    samples = {}  # metric -> values over the successful operations
    digests = set()

    def record(result, extra=None):
        passed = result is not None and not result["failed"]
        if result is not None:
            for msg in result["failed"]:
                log(f"check failed: {msg}")
            digests.add(result["digest"])
        if passed:
            for key, value in {**result, **(extra or {})}.items():
                if isinstance(value, (int, float)):
                    samples.setdefault(key, []).append(value)
        ok.append(passed)

    # Operations repeat while the next one, as long as the last, would end
    # by the deadline, so a run ends close to --seconds.
    deadline = time.monotonic() + args.seconds
    if args.trace:
        while True:
            began = time.monotonic()
            record(child([bench, "layers", *common, "--out", out])[0])
            if 2 * time.monotonic() - began > deadline:
                break
    else:
        # Host times are divided by the run's speed index: the reference
        # loop's mean time over REFERENCE_S. The loop runs before the first
        # replay and after each one, so it samples the host's speed across
        # the whole run, and the index takes out most of the host's drift.
        cal = [calibrate(bench)]
        setups, replays, last = [], 0, 0.0
        while replays < MIN_REPLAYS or time.monotonic() + last <= deadline:
            began = time.monotonic()
            for _ in range(SETUPS_PER_REPLAY):
                result, _ = child([bench, "setup", *common])
                ok.append(result is not None)
                if result is not None:
                    setups.append(result["setup_s"])
            result, usage = child([bench, "replay", *common, "--out", out])
            record(result, {"peak_rss_mb": usage.ru_maxrss / 1024})
            cal.append(calibrate(bench))
            replays, last = replays + 1, time.monotonic() - began
        if samples.get("run_s"):
            # Whole-run aggregates, not medians of replays: a replay's time
            # swings by up to 2x on a shared host, and the median of a
            # dozen such replays jumps between the fast and the slow ones.
            unscaled = {
                "throughput_req_s": sum(samples["requests"]) / sum(samples["run_s"]),
                "wall_s": statistics.mean(samples["wall_s"]),
                "setup_s": statistics.median(setups + samples["setup_s"]),
            }
            speed = statistics.mean(cal) / REFERENCE_S
            print(json.dumps({"speed_index": speed, "reference_passes": len(cal),
                              "unscaled": unscaled}), flush=True)
            samples["throughput_req_s"] = [unscaled["throughput_req_s"] * speed]
            samples["wall_s"] = [unscaled["wall_s"] / speed]
            samples["setup_s"] = [unscaled["setup_s"] / speed]
    if len(digests) > 1:  # the same seed must give the same simulated output
        log(f"digests differ across operations: {sorted(digests)}")
        ok.append(False)

    metrics = {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            sys.exit(f"perfbench: no successful measurement of {m['name']}")
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(f"digest {args.workload} seed={args.seed} {' '.join(sorted(digests))}")
    log(f"{len(ok)} operations in {time.monotonic() - started:.1f} s")
    failed = ok.count(False)
    print(json.dumps({"correct": failed == 0, "attempted": len(ok), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
