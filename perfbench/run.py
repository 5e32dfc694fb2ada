#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lubm-cpu --seed 1 --seconds 20 --trace 0

The first call configures and compiles the engine libraries and the
`perfbench` binary into `.bench_build/` (Release); later calls rebuild only
what changed. Build output goes to stderr. The binary's standard output,
whose last line is the JSON result, and its exit code are passed through.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 700
# Allowance on top of --seconds for data generation, the oracle and the
# timed setups.
RUN_ALLOWANCE_S = 145


_child = None  # The running subprocess, for the signal handler.


def _stop_child():
    """Kills the running subprocess's whole group (for example the
    compilers under cmake) and reaps it."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _on_signal(signum, _frame):
    _stop_child()
    sys.exit(128 + signum)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and returns its exit code; on
    timeout stops the group before TimeoutExpired propagates."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_child()
        raise


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure, CONFIGURE_TIMEOUT_S, stdout=sys.stderr) != 0:
            return None
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", "4"]
    if run(compile_cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def run_timeout(argv):
    """--seconds from `argv` plus the allowance; the binary rejects a
    missing or malformed value itself."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0.0
    return max(seconds, 0.0) + RUN_ALLOWANCE_S


def main():
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        binary = build()
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if binary is None:
        return 2
    sys.stdout.flush()
    try:
        return run([binary] + sys.argv[1:], run_timeout(sys.argv[1:]),
                   cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
