"""Workload definitions: the inputs each workload builds and the analyses it runs.

Every analysis is a ``locop`` command line (``cli.main`` argv) whose paths
are relative to a work directory holding ``in/`` (inputs) and ``out/``
(reports), so two processes that build the same seed in different
directories produce byte-identical reports.

Sizes come in two scales: ``full`` is what the benchmark measures and
``tiny`` is the smoke scale, the same analysis list on smaller windows and
scales.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WORKLOADS = ("ladder", "kernel", "synth")
SIZES = ("full", "tiny")

# Window ladders.  Each window's interior (columns at least one band away
# from the edge) must keep more than 14 columns at p in {1, inf}, or the
# orthant-LP path (2^(m-1) LPs) would dominate the run; the small LP ladder
# below reaches that path on purpose and on few columns.
_LADDER = {
    "full": {"windows": (16, 32, 64), "p15_windows": (4, 8),
             "lp_windows": (4, 6), "big_window": 1280},
    "tiny": {"windows": (16, 32), "p15_windows": (4,),
             "lp_windows": (3, 4), "big_window": 1280},
}
_KERNEL = {
    "full": {"n": "3..5", "windows": (16, 32), "small_n": "3"},
    "tiny": {"n": "3..4", "windows": (16,), "small_n": "3"},
}
_SYNTH = {
    "full": {"index": 64, "p2_n0": "4,5", "p2_windows": "32,64",
             "p1_n0": "3,4", "p1_windows": "6,8",
             "pinf_n0": "3,4", "pinf_windows": "8,32"},
    "tiny": {"index": 32, "p2_n0": "3,4", "p2_windows": "16,32",
             "p1_n0": "3", "p1_windows": "4,6",
             "pinf_n0": "3", "pinf_windows": "6,20"},
}

# What the workload seed may change.  The descent's work follows its inputs:
# across seeds, banded_random's multistart time ranged 0.5-1.4 s and a free
# row permutation's 0.7-4.2 s (its band sets how many interior columns go to
# the LPs), which would swamp the host noise that wall_s is compared against.
# So the seed only shuffles rows of the permuted Toeplitz matrix, with a band
# that does not depend on it, and the program's multistart descent and
# banded_random get fixed seeds; the multistart result also moves by up to
# 10 % with its seed, and lower_rel_err_max must repeat on every seed.
DESCENT_SEED = 1
BANDED_SEED = 2

# Analyses that run first in every fresh interpreter (the set-up probe and
# the in-process warm-up): the workload's smallest analyses that together
# reach every library it calls.  On `ladder` that is linprog (the LP ladder)
# and the multistart descent (the p = 1.5 ladder); on `synth` linprog; on
# `kernel` scipy.signal.fftconvolve, which runs at the reference scale
# n + 3 = 8.  A lazy import moved into one of those paths therefore stays
# inside set-up time.
WARMUP = {"ladder": ("stab_p15_banded", "stab_lp_t131"),
          "kernel": ("kernel_p2_w16",),
          "synth": ("synth_hat_pinf",)}


def _block_permuted_rows(A, blocks, seed: int):
    """Rows of A shuffled within each block of a nested window ladder.

    A permutation of all rows would leave the leading windows singular;
    shuffling inside [0, w1), [w1, w2), ... keeps every ladder window a
    row permutation of the same window of A, so its stability constants
    are those of A while its band is scrambled.  Each block's first and
    last rows trade places, so the band, and with it the interior columns
    locop analyses and the work it does, is the same for every seed.
    """
    from locop.matalg import LocalizedMatrix

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    perm = np.arange(A.shape[0])
    lo = 0
    for hi in list(blocks) + [A.shape[0]]:
        if hi - lo > 1:
            block = rng.permutation(hi - lo)
            for pos, val in ((0, hi - lo - 1), (hi - lo - 1, 0)):
                at = int(np.flatnonzero(block == val)[0])
                block[at], block[pos] = block[pos], val
            perm[lo:hi] = lo + block
        lo = hi
    return LocalizedMatrix(A.rows, A.cols, perm[A.i], A.j, A.values.copy())


def gaussian_family(index_size: int):
    """Gaussian generators (sigma 0.5) with a fitted power modulus."""
    from locop.lattice import IndexSet
    from locop.profiles import GaussianProfile
    from locop.synthesis import GeneratorFamily

    sigma = 0.5
    fam = GeneratorFamily(IndexSet.integer_range(0, index_size - 1),
                          (GaussianProfile(sigma),),
                          GaussianProfile(sigma * math.sqrt(2.0)))
    return fam.calibrate_modulus()


def build_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Build the workload's inputs with the locop.corpus builders and write
    them under ``workdir/in``; returns {relative path: bytes}."""
    from locop import corpus
    from locop.reporting import dump_json_bytes

    files = {}
    (workdir / "out").mkdir(parents=True, exist_ok=True)

    def put(rel: str, data: bytes) -> None:
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        files[rel] = data

    def put_obj(rel: str, obj) -> None:
        put(rel, dump_json_bytes(obj.to_json_dict()))

    if workload == "ladder":
        cfg = _LADDER[size]
        top = cfg["windows"][-1]
        put_obj("in/t131.json", corpus.toeplitz_matrix([1.0, 3.0, 1.0], top))
        put_obj("in/t121.json", corpus.toeplitz_matrix([1.0, 2.0, 1.0], top))
        put_obj("in/perm131.json", _block_permuted_rows(
            corpus.toeplitz_matrix([1.0, 3.0, 1.0], top), cfg["windows"], seed))
        # band 1 keeps every ladder interior above the 14-column LP cap
        put_obj("in/banded.json", corpus.banded_random(
            cfg["big_window"], band=1, seed=BANDED_SEED))
        put("in/taps.csv", b"1\n3\n1\n")
        rows = {"dim": 1, "window": [[0.0, 64.0]],
                "points": [[float(i)] for i in range(64)]}
        cols = {"dim": 1, "window": [[0.0, 64.0]],
                "points": [[float(i)] for i in range(0, 64, 2)]}
        put("in/rows.json", dump_json_bytes(rows))
        put("in/cols.json", dump_json_bytes(cols))
        put("in/boxes.json", dump_json_bytes([[[0.0, 8.0]], [[10.0, 40.0]],
                                              [[60.0, 63.0]]]))
    elif workload == "kernel":
        put_obj("in/kernel.json", corpus.gaussian_kernel_op(0.1, 1.0))
    elif workload == "synth":
        n = _SYNTH[size]["index"]
        put_obj("in/hat.json", corpus.hat_family(n))
        put_obj("in/gauss.json", gaussian_family(n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def analyses(workload: str, size: str) -> list[tuple[str, list[str]]]:
    """(name, argv) for every analysis of one repetition, warm-up included."""
    s = str(DESCENT_SEED)
    out = []
    if workload == "ladder":
        cfg = _LADDER[size]
        wins = _csv(cfg["windows"])
        for m in ("t131", "t121", "perm131", "banded"):
            out.append((f"equiv_{m}", ["equiv", "--matrix", f"in/{m}.json",
                                       "--p", "1,2,inf", "--windows", wins,
                                       "--seed", s]))
        out += [
            ("stab_p15_banded", ["stab", "--matrix", "in/banded.json", "--p", "1.5",
                                 "--windows", _csv(cfg["p15_windows"]), "--seed", s]),
            ("stab_lp_t131", ["stab", "--matrix", "in/t131.json", "--p", "1,inf",
                              "--windows", _csv(cfg["lp_windows"]), "--seed", s]),
            # p = inf, not 2: above the cut-off the p = 2 upper constant comes
            # from ARPACK with a random start and its bytes differ between
            # runs (see README, known defect); at p = inf the multistart's warm
            # start still takes the banded eigensolve of the Gram matrix
            ("stab_big_banded", ["stab", "--matrix", "in/banded.json", "--p", "inf",
                                 "--windows", str(cfg["big_window"]), "--seed", s]),
            ("norms_banded", ["norms", "--matrix", "in/banded.json", "--alpha", "1"]),
            ("invdecay_t131", ["invdecay", "--matrix", "in/t131.json",
                               "--margin", str(cfg["windows"][-1] // 4)]),
            ("conv_taps", ["conv", "--seq", "in/taps.csv"]),
            ("density", ["density", "--rows", "in/rows.json", "--cols", "in/cols.json",
                         "--r0", "1", "--boxes", "in/boxes.json"]),
        ]
    elif workload == "kernel":
        cfg = _KERNEL[size]
        for w in cfg["windows"]:
            out.append((f"kernel_p2_w{w}", ["kernel", "--kernel", "in/kernel.json",
                                            "--p", "2", "--n", cfg["n"],
                                            "--window", str(w)]))
        small = cfg["windows"][0]
        for p in ("1", "inf"):
            out.append((f"kernel_p{p}_small", ["kernel", "--kernel", "in/kernel.json",
                                               "--p", p, "--n", cfg["small_n"],
                                               "--window", str(small),
                                               "--seed", s]))
    elif workload == "synth":
        cfg = _SYNTH[size]
        for fam in ("hat", "gauss"):
            path = f"in/{fam}.json"
            out += [
                (f"synth_{fam}_p2", ["synth", "--family", path, "--p", "2",
                                     "--n0", cfg["p2_n0"], "--window", cfg["p2_windows"]]),
                (f"synth_{fam}_p1", ["synth", "--family", path, "--p", "1",
                                     "--n0", cfg["p1_n0"], "--window", cfg["p1_windows"],
                                     "--seed", s]),
                (f"synth_{fam}_pinf", ["synth", "--family", path, "--p", "inf",
                                       "--n0", cfg["pinf_n0"],
                                       "--window", cfg["pinf_windows"], "--seed", s]),
            ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # every report goes to out/<name>.json (plus a .csv sibling when the
    # analysis has a curve)
    return [(name, argv + ["--out", f"out/{name}.json"]) for name, argv in out]


def warmup(workload: str, size: str) -> list[tuple[str, list[str]]]:
    return [a for a in analyses(workload, size) if a[0] in WARMUP[workload]]


def output_files(workdir: Path, name: str) -> list[Path]:
    """Files one analysis wrote (report and, when present, its CSV)."""
    return [p for p in (workdir / "out" / f"{name}.json", workdir / "out" / f"{name}.csv")
            if p.exists()]
