"""Set-up probe: a fresh interpreter that imports the library and runs one
operation, then prints monotonic timestamps as one JSON line.

Usage: python3 perfbench/probe.py <workload> <input>

``<input>`` is an .npz instance (check_n128, roundtrip_n64) or a JSON argv
list (cli_n4).  The time spent reading the .npz is reported as ``load_ns``
so the caller can leave the benchmark's own input handling out of set-up.
CLOCK_MONOTONIC is shared by all processes, so the caller subtracts its own
spawn timestamp from ``result_ns``.
"""

import time

BEGIN_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(workload: str, path: str) -> None:
    t0 = time.monotonic_ns()
    import numpy as np

    t1 = time.monotonic_ns()
    import detchan
    import detchan.cli

    t2 = time.monotonic_ns()
    load_ns = 0
    if workload == "cli_n4":
        with open(path, encoding="utf-8") as fh:
            argv = json.load(fh)
        load_ns = time.monotonic_ns() - t2
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = detchan.cli.main(argv)
        outcome = [code, len(out.getvalue())]
    else:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        load_ns = time.monotonic_ns() - t2
        initial = detchan.StateSet.from_vectors(arrays["initial"])
        final = detchan.StateSet.from_vectors(arrays["final"])
        if workload == "check_n128":
            outcome = detchan.feasibility_check(initial, final).verdict
        else:
            outcome = detchan.coherence_roundtrip(initial, final, arrays["coefficients"]).agree
    result_ns = time.monotonic_ns()
    print(json.dumps({
        "begin_ns": BEGIN_NS,
        "result_ns": result_ns,
        "load_ns": load_ns,
        "numpy_import_ns": t1 - t0,
        "detchan_import_ns": t2 - t1,
        "outcome": outcome,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:3])
