"""Set-up probe, run by ``run.py`` in a fresh interpreter:

    python3 perfbench/probe.py WORKLOAD SEED

Prints one JSON line with the time of ``import edgepow``, the time to build
the workload's inputs with it, and whether the import loaded networkx.  It
imports nothing of its own before timing the import, so that the import
is measured as a user's first command pays it; reading the benchmark's
data files is not timed.
"""
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import edgepow

    t1 = time.perf_counter()
    networkx_loaded = "networkx" in sys.modules
    if os.path.dirname(os.path.abspath(edgepow.__file__)) != os.path.join(SRC, "edgepow"):
        sys.exit(f"error: imported edgepow from {edgepow.__file__}, not {SRC}")
    import json

    import workloads

    expected = workloads.load_expected()
    t2 = time.perf_counter()
    workloads.build(workload, seed, expected)
    t3 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "setup_s": (t1 - t0) + (t3 - t2),
                "networkx_loaded": networkx_loaded,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
