#!/usr/bin/env python3
"""Builds statim's end-to-end benchmark from this checkout and runs it.

    python3 e2ebench/run.py --workload c7552-greedy --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

Run it from anywhere; paths resolve against the checkout that holds this
file. The first run builds libstatim and the benchmark (Release) under
.bench_build/ at the checkout root; later runs only re-check the build
(about a second).
Every argument is passed to the statim_e2e binary (see src/main.cpp).
STATIM_* environment knobs are cleared so that every run measures the
library's defaults. Exits non-zero without printing a result when the
build fails, e.g. in a directory that holds only the benchmark.
"""
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(BUILD, "e2ebench")
    os.makedirs(BUILD, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                 "-DSTATIM_SOURCE_DIR=" + ROOT]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", build_dir, "--parallel", "4"]]
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(step))
                sys.exit(1)
    return os.path.join(build_dir, "statim_e2e")


def main(argv):
    binary = build()
    work = os.path.join(BUILD, "work")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("STATIM_")}
    command = [binary] + argv + ["--work-dir", work, "--trace-dir", traces]
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # benchmark (its dispatch workers exit on the closed pipe).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return subprocess.run(command, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
