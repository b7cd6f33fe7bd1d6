#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the hlm_serve daemon and the
hlm_perfbench binary from source (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload. hlm_perfbench's last stdout
line, one JSON object with "correct", "attempted", "failed" and
"metrics", is passed through as this script's last line; its tables go
to stderr. Exits non-zero without a result when the build or the run
fails, including when the repository sources are absent.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve_small", "serve_large", "serve_reload_churn", "offline_pipeline")
BUILD_TIMEOUT_S = 600  # plus RUN_TIMEOUT_S stays under the first run's 900 s
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def kill_group(proc):
    """Kills the run's process group and waits until every member is gone."""
    deadline = time.monotonic() + 10
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("repository sources not found next to perfbench/; run from the repo root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "hlm_perfbench", "hlm_serve_bin"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, build_dir)

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [
        os.path.join(build_dir, "hlm_perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--serve_bin", os.path.join(build_dir, "hlm", "tools", "hlm_serve"),
        "--work_dir", work_dir,
        "--trace_out", os.path.join(build_dir, f"perfbench-{args.workload}.trace.json"),
    ]
    # hlm_perfbench stops its daemons itself; the session group lets this
    # script also kill them if it dies, overruns, or this script is told
    # to stop.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        kill_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        kill_group(proc)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
