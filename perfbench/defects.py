"""Reproducer of a known defect that the workloads leave out.

    python3 perfbench/defects.py [--runs 4]

``stab --p 2`` on a window above ``DENSE_EIG_CUTOFF`` takes its upper
constant from ``scipy.sparse.linalg.svds`` (ARPACK, started from numpy's
unseeded global random state) in ``stability._iterative_singular_extremes``,
so reruns on the same input can differ in the last digit.  The benchmark
requires byte-identical reruns and every workload to pass, so `ladder` runs
its window of 1280 at p = inf instead; this script runs the p = 2 analysis
``--runs`` times in one process on `ladder`'s banded matrix and prints every
distinct output.  Exits 1 while the defect stands, 0 once reruns agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run  # sets the one-thread BLAS environment before numpy loads
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=4)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from locop import cli

    window = workloads._LADDER["full"]["big_window"]
    seen = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        work = Path(tmp)
        workloads.build_inputs("ladder", run.DEFAULT_SEED, "full", work)
        out = work / "out" / "stab_p2.json"
        for _ in range(args.runs):
            rc = cli.main(["stab", "--matrix", str(work / "in" / "banded.json"),
                           "--p", "2", "--windows", str(window), "--out", str(out)])
            if rc != 0:
                print(f"stab --p 2 exited {rc}")
                return 1
            data = out.read_bytes()
            entry = json.loads(data)["entries"][0]
            seen.setdefault(hashlib.sha256(data).hexdigest()[:16],
                            (entry["lower"], entry["upper"]))
    for digest, (lower, upper) in seen.items():
        print(f"{digest}  lower {lower!r}  upper {upper!r}")
    print(f"{len(seen)} distinct report(s) from {args.runs} runs of stab --p 2 "
          f"--windows {window}")
    return 1 if len(seen) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
