#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the repo's layer
libraries and the dynbcast binary (top-level CMake project, Release,
tools only) plus the benchmark runner under .bench_build/; later calls
reuse that build. The runner measures the workload for --seconds and
checks every output it produces; a second runner process at the same seed
then recomputes the run's row digest, which must match. This script turns
the raw samples into the metrics BENCHMARK.json declares (end-to-end with
--trace 0, per-layer with --trace 1) and prints, as the last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Sample counts, the run environment and any failed checks go to stderr.
A build or runner failure exits non-zero without printing a result."""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("thm31-adaptive", "oblivious-batch", "service-mixed",
             "sparse-frontier")
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
RUNNER_BUILD = os.path.join(BUILD, "runner")
RUN_LIMIT_S = 170.0
FIRST_RUN_LIMIT_S = 880.0
BUILD_JOBS = "4"


class BuildError(RuntimeError):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, env):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                             env=env)
    if rc != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        raise BuildError("command failed (%d): %s\n%s" % (rc, " ".join(cmd), tail))


def build():
    """Configures (once) and builds the repo and the runner; returns
    (runner binary, dynbcast binary, whether anything was configured)."""
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    # A compiler cache would write outside the checkout.
    env["CCACHE_DISABLE"] = "1"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    build_log = os.path.join(BUILD, "build.log")
    configured = False
    if not os.path.exists(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", REPO_BUILD] + generator + [
            "-DCMAKE_BUILD_TYPE=Release",
            "-DDYNBCAST_BUILD_TESTS=OFF",
            "-DDYNBCAST_BUILD_BENCHES=OFF",
            "-DDYNBCAST_BUILD_EXAMPLES=OFF",
            "-DDYNBCAST_BUILD_TOOLS=ON",
            "-DCCACHE_PROGRAM=",
        ], build_log, env)
        configured = True
    run_logged(["cmake", "--build", REPO_BUILD, "--target", "dynbcast",
                "-j", BUILD_JOBS], build_log, env)
    if not os.path.exists(os.path.join(RUNNER_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", RUNNER_BUILD] + generator + [
            "-DCMAKE_BUILD_TYPE=Release",
            "-DDYNBCAST_ROOT=" + ROOT,
            "-DDYNBCAST_LIB_DIR=" + REPO_BUILD,
        ], build_log, env)
        configured = True
    run_logged(["cmake", "--build", RUNNER_BUILD, "-j", BUILD_JOBS],
               build_log, env)
    return (os.path.join(RUNNER_BUILD, "perfbench_runner"),
            os.path.join(REPO_BUILD, "dynbcast"), configured)


def run_runner(cmd, timeout):
    """Runs the runner in its own process group and, however it ends,
    kills whatever is left in that group (the `serve` child it spawns) and
    waits until the group is gone. Returns (stdout, stderr, exit code),
    with exit code None on a timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += "runner exceeded the run time limit\n"
        returncode = None
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass
    return stdout, stderr, returncode


def remove_work(work):
    """Deletes a run's state dirs, then syncs. The checkout's disk may be
    mounted with online discard, where a deletion stalls fsyncs issued a
    few seconds later; syncing here takes that stall before the next run
    starts measuring."""
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.sync()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    declared = declared_metrics(args.trace)
    try:
        runner, dynbcast, configured = build()
    except (BuildError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    limit = FIRST_RUN_LIMIT_S if configured else RUN_LIMIT_S
    remaining = limit - (time.monotonic() - started)

    # Relative to the checkout root: the service's socket path must stay
    # short, and everything the run writes stays inside the checkout.
    work = os.path.join(".bench_build", "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    traces = os.path.join(BUILD, "traces")
    cmd = [runner, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--dynbcast=" + dynbcast, "--work-dir=" + work]
    # Writeback still pending from the build or from an earlier run's
    # deletions stalls the file creations of `serve` start-up (ext4
    # journal) and would land in this run's set-up time.
    os.sync()
    stdout, stderr, returncode = run_runner(cmd, max(remaining, 1.0))
    sys.stderr.write(stderr)
    if returncode != 0 or not stdout.strip():
        log("runner failed with exit code %s" % returncode)
        remove_work(work)
        return 1
    raw = json.loads(stdout.strip().splitlines()[-1])

    # Determinism across processes: a fresh runner at the same seed must
    # reproduce the run's row digest.
    remaining = limit - (time.monotonic() - started)
    stdout, stderr, returncode = run_runner(
        cmd + ["--digest-only=1"], max(remaining, 1.0))
    sys.stderr.write(stderr)
    again = (json.loads(stdout.strip().splitlines()[-1])["digest"]
             if returncode == 0 and stdout.strip() else None)
    log("row digest %s, second process %s" % (raw["digest"], again))
    outcomes = [harness.digest_failure(raw["digest"], again, args.seed)]

    if args.trace:
        trace_path = os.path.join(ROOT, raw["trace"]["file"])
        os.makedirs(traces, exist_ok=True)
        kept = os.path.join(traces, os.path.basename(trace_path))
        shutil.move(trace_path, kept)
        values = harness.per_layer_metrics(
            harness.load_trace(kept), raw["trace"]["traced_wall_s"],
            raw["trace"]["untraced_wall_s"], raw["trace"]["counters"])
        outcomes.append(harness.coverage_failure(values))
        log("trace written to %s (open in ui.perfetto.dev)"
            % os.path.relpath(kept, ROOT))
    else:
        values = harness.end_to_end_metrics(raw)
    remove_work(work)

    units = {d["name"]: d["unit"] for d in declared}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    try:
        harness.check_metric_names(metrics, declared)
    except ValueError as e:
        log("metric check failed: %s" % e)
        return 1

    log("workload %s seed %d: %d jobs in %.2f s busy; samples per kind %s"
        % (args.workload, args.seed, len(raw["jobs"]),
           sum(j["seconds"] for j in raw["jobs"]),
           harness.sample_counts(raw)))
    log("setup samples (s): %s" % raw["setup_s"])
    log("environment: %s" % raw["env"])
    attempted, failed, failures = harness.add_checks(raw, outcomes)
    for failure in failures:
        log("FAILED: " + failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
