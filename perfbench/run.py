#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report|orders|resume \
        --seed N --seconds S --trace 0|1

Every run configures and builds perfbench/ (the library stack from src/,
phoenixd, and the phx_perfbench binary) into .bench_build/perfbench as
RelWithDebInfo; after the first run only what changed is rebuilt. Build
output goes to stderr. phx_perfbench's stdout is passed through unchanged:
its last line is the JSON result. Scratch files (sockets, phoenixd data
dirs, span files) go to .bench_out/; sockets and data dirs that a killed
run left there are removed first. phx_perfbench runs in its own process
group, which is killed when it exits, times out, or this script gets
SIGTERM or SIGINT. Exits non-zero, without a result line, when the build
fails or a PHX_* tuning variable is set.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures and builds phx_perfbench and phoenixd (incremental)."""
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", "4",
              "--target", "phx_perfbench"]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def remove_stale_scratch():
    """Drops sockets and phoenixd data dirs that a killed run left behind."""
    if not os.path.isdir(OUT_DIR):
        return
    for name in os.listdir(OUT_DIR):
        path = os.path.join(OUT_DIR, name)
        if name.endswith(".sock"):
            os.unlink(path)
        elif name.startswith("resume-") and os.path.isdir(path):
            shutil.rmtree(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["report", "orders", "resume"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # The benchmark measures the program at its default Options.
    tuning = sorted(k for k in os.environ
                    if k.startswith("PHX_") and k != "PHX_SERVER_BIN")
    if tuning:
        fail("refusing to run with PHX_* tuning variables set: " +
             ", ".join(tuning))

    os.chdir(ROOT)
    remove_stale_scratch()
    build()
    cmd = [os.path.join(BUILD_DIR, "phx_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phoenixd", os.path.join(BUILD_DIR, "phx", "phoenixd"),
           "--out-dir", OUT_DIR, "--commit", source_id()]
    sys.stdout.flush()
    # Its own process group, so that the phoenixd children go with it even
    # when phx_perfbench dies or times out.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_term(signum, _frame):
        stop_group()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group()
    proc.wait()
    if code is None:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
