"""One set-up sample: a fresh interpreter brought to the point where the
workload can run.

It imports locop, builds and writes the workload's inputs, and runs the
workload's warm-up analyses through ``cli.main``, in the current working
directory.  It then prints one JSON line with the exit code and the SHA-256
of every input and report it wrote; the parent process times the interval
from spawning this interpreter to reading that line.

    PYTHONPATH=src python3 perfbench/probe.py --workload ladder --seed 1 --size full
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import workloads


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    args = ap.parse_args()

    import locop  # noqa: F401  (the package import every CLI call pays)
    from locop import cli

    here = Path.cwd()
    inputs = workloads.build_inputs(args.workload, args.seed, args.size, here)
    rc, outputs = {}, {}
    for name, argv in workloads.warmup(args.workload, args.size):
        rc[name] = cli.main(argv)
        outputs[name] = {str(p.relative_to(here)): sha(p.read_bytes())
                         for p in workloads.output_files(here, name)}
    print(json.dumps({"rc": rc, "inputs": {k: sha(v) for k, v in inputs.items()},
                      "outputs": outputs}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
