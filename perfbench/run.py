"""Benchmark launcher.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <check_n128|roundtrip_n64|cli_n4> \\
        --seed <n> --seconds <s> --trace <0|1>

Pins BLAS to one thread, puts the checkout's ``src`` on the import path and
runs worker.py in its own process group, so a timeout can stop the worker
and any set-up probe it started.  The worker prints a summary and, as its
last line, the JSON result.  Without ``src/detchan`` there is nothing to
measure and the launcher exits with status 2.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check_n128", "roundtrip_n64", "cli_n4")
#: The whole run, set-up included, must end well inside three minutes.
TIMEOUT_S = 170
#: One BLAS thread: two cores are shared with other tenants, and threaded
#: BLAS makes N = 128 timings depend on their load.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "detchan" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src / 'detchan'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s; stopped", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
