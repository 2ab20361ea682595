#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness's last stdout line is the JSON result.  Build output goes
to stderr.  A failed build or run exits non-zero without a result.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run(cmd, timeout, stdout):
    """Run cmd to completion in a process group of its own.  On timeout,
    or if this script is interrupted, kill the whole group (the harness
    forks a server process per serve session) and wait for cmd."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Keep every write inside the checkout: no shared build cache, and
    # the compiler's temporary files under the ignored output directory.
    os.environ["DUNE_CACHE"] = "disabled"
    tmp = os.path.join("perfbench", "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(tmp)
    rc = run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
             BUILD_TIMEOUT_S, sys.stderr)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return 1
    sys.stdout.flush()
    rc = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, None)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
