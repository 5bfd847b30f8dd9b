#!/usr/bin/env python3
"""Benchmark of ``pfsc report``: one op is run_pipeline + emit_report.

Run from the repository root:

    python3 benchmarks/run.py --workload mesh300-analytical --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object; the exit code is 0 only when every op's output checked out.
``--write-reference`` rewrites ``benchmarks/reference.json`` instead.
See benchmarks/README.md.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 before measuring.
"""

import os
import sys
import time
from pathlib import Path

#: BLAS threads, pinned in this process's environment before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

#: CPUs this process may use; it runs, with every process it starts, on
#: the first one only, so that the host-speed calibration (calibrate.py)
#: times the same CPU as the ops it brackets
CPUS = sorted(os.sched_getaffinity(0))

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main():
    if not (SRC / "pfsc" / "__init__.py").is_file():
        print(f"error: no pfsc sources under {SRC.name}/ of the checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, CPUS[:1])
    t0 = time.perf_counter()
    import pfsc

    import_s = time.perf_counter() - t0
    if Path(pfsc.__file__).resolve().parent != SRC / "pfsc":
        print(f"error: pfsc imported from {pfsc.__file__}, not src/", file=sys.stderr)
        return 2

    import harness

    return harness.main(sys.argv[1:], ROOT, import_s, BLAS_THREADS, CPUS)


if __name__ == "__main__":
    sys.exit(main())
