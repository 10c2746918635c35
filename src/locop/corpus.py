"""Deterministic test-corpus generators and the on-disk corpus writer.

Every builder returns a fully validated object; ``generate`` turns a
corpus spec into JSON files plus a manifest with SHA-256 checksums, and
running it twice with the same spec produces byte-identical output.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .errors import integer_field
from .kernelop import ConvolutionRule, KernelOperator
from .lattice import IndexSet
from .matalg import LocalizedMatrix, toeplitz_entries
from .profiles import GaussianProfile, bspline_profile, pp_inner_product, trapezoid_profile
from .reporting import dump_json_bytes, write_atomic
from .synthesis import GeneratorFamily, ModulusBound


def toeplitz_matrix(sequence, window: int) -> LocalizedMatrix:
    """Banded Toeplitz matrix on {0..window-1} with the given centered band.

    ``sequence`` has odd length; its middle value sits on the diagonal.
    """
    index = IndexSet.integer_range(0, window - 1)
    return LocalizedMatrix(index, index, *toeplitz_entries(sequence, window))


def permuted_rows(A: LocalizedMatrix, seed: int) -> LocalizedMatrix:
    """Rows of A shuffled by a seeded permutation (norms per column intact).

    Permuting output coordinates preserves every ||Ac||_p, so stability
    constants survive while offset-based localization is scrambled.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(A.shape[0])
    return LocalizedMatrix(A.rows, A.cols, perm[A.i], A.j, A.values.copy())


def banded_random(window: int, band: int = 2, scale: float = 0.25,
                  gap: float = 0.5, seed: int = 0) -> LocalizedMatrix:
    """Symmetric banded matrix with Gershgorin margin >= gap at every row.

    Off-diagonal values are an i.i.d. seeded stream indexed so that every
    leading window is a prefix of the same infinite model; the diagonal
    adds the absolute row sum *of the infinite model*, so finite sections
    only gain dominance at the boundary and the lower p-constants sit
    above ``gap`` uniformly in the window.
    """
    if band < 1 or window <= band:
        raise ValueError("need window > band >= 1")
    raw = {}
    for k in range(1, band + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(k,)))
        raw[k] = rng.uniform(-scale, scale, size=window + k)
    index = IndexSet.integer_range(0, window - 1)
    ii, jj, vv = [], [], []
    diag = np.full(window, gap)
    for k in range(1, band + 1):
        vals = raw[k]
        i = np.arange(0, window - k)
        ii.extend((i + k).tolist())
        jj.extend(i.tolist())
        vv.extend(vals[i + k].tolist())
        ii.extend(i.tolist())
        jj.extend((i + k).tolist())
        vv.extend(vals[i + k].tolist())
        all_i = np.arange(window)
        diag += np.abs(vals[all_i + k]) + np.abs(vals[all_i])
    ii.extend(range(window))
    jj.extend(range(window))
    vv.extend(diag.tolist())
    return LocalizedMatrix(index, index, ii, jj, vv)


def slanted_matrix(alpha: int, taps, window: int) -> LocalizedMatrix:
    """Entries at (i, alpha*i + d) for each tap offset d."""
    alpha = int(alpha)
    if alpha < 1:
        raise ValueError("slant factor must be a positive integer")
    try:
        taps = dict(taps)
    except (TypeError, ValueError):
        taps = {}
    if not taps:
        raise ValueError("taps must be a non-empty list of [offset, value] pairs "
                         "or an {offset: value} object")
    taps = {integer_field(d, "tap offset"): float(v) for d, v in taps.items()}
    rows = IndexSet.integer_range(0, window - 1)
    cols_lo = min(min(taps), 0)
    cols_hi = alpha * (window - 1) + max(max(taps), 0)
    cols = IndexSet.integer_range(cols_lo, cols_hi)
    ii, jj, vv = [], [], []
    for i in range(window):
        for d, v in sorted(taps.items()):
            j = alpha * i + d
            if cols_lo <= j <= cols_hi and v != 0.0:
                ii.append(i)
                jj.append(j - cols_lo)
                vv.append(v)
    return LocalizedMatrix(rows, cols, ii, jj, vv)


def bspline_gram(order: int, window: int) -> LocalizedMatrix:
    """Gram matrix of integer shifts of the order-m B-spline, exact."""
    b = bspline_profile(order)
    seq = []
    for d in range(-(order - 1), order):
        seq.append(pp_inner_product(b, b, float(d)))
    return toeplitz_matrix(seq, window)


def gabor_gram(sigma: float, a_step: float, b_step: float,
               time_count: int, freq_count: int) -> LocalizedMatrix:
    """Gram matrix of cosine-modulated Gaussian atoms on a 2-d lattice.

    Atom (j, k) is exp(-((t - a j)/sigma)^2) cos(2 pi b k t); the inner
    products have a closed form (Gaussian-times-cosine integrals), so the
    matrix is exact and symmetric by construction.  Entries below 1e-14 in
    absolute value are dropped.
    """
    if sigma <= 0 or a_step <= 0 or b_step <= 0:
        raise ValueError("lattice parameters must be positive")
    pts = np.array([[a_step * j, b_step * k]
                    for j in range(time_count) for k in range(freq_count)])
    window = np.array([[0.0, a_step * (time_count - 1) + 1.0],
                       [0.0, b_step * (freq_count - 1) + 1.0]])
    index = IndexSet(2, pts, window)
    m = len(pts)

    def entry(j1, k1, j2, k2):
        c1, c2 = a_step * j1, a_step * j2
        mu = 0.5 * (c1 + c2)
        overlap = math.exp(-((c1 - c2) ** 2) / (2.0 * sigma ** 2))
        amp = sigma * math.sqrt(math.pi / 2.0)
        w_minus = 2.0 * math.pi * b_step * (k1 - k2)
        w_plus = 2.0 * math.pi * b_step * (k1 + k2)
        osc = 0.5 * (math.exp(-(w_minus * sigma) ** 2 / 8.0) * math.cos(w_minus * mu)
                     + math.exp(-(w_plus * sigma) ** 2 / 8.0) * math.cos(w_plus * mu))
        return overlap * amp * osc

    ii, jj, vv = [], [], []
    for r in range(m):
        j1, k1 = divmod(r, freq_count)
        for c in range(r, m):
            j2, k2 = divmod(c, freq_count)
            v = entry(j1, k1, j2, k2)
            if abs(v) < 1e-14:
                continue
            ii.append(r)
            jj.append(c)
            vv.append(v)
            if c != r:
                ii.append(c)
                jj.append(r)
                vv.append(v)
    return LocalizedMatrix(index, index, ii, jj, vv)


def hat_family(window: int) -> GeneratorFamily:
    """Linear B-spline shifts with a trapezoid envelope and unit modulus."""
    hat = bspline_profile(2)
    env = trapezoid_profile(0.0, 2.0, 1.0, 1.0)
    fam = GeneratorFamily(IndexSet.integer_range(0, window - 1), (hat,), env,
                          modulus=ModulusBound("power", c=1.0, alpha=1.0))
    fam.validate()
    return fam


def gaussian_kernel_op(theta: float, sigma: float) -> KernelOperator:
    """Convolution with theta*exp(-(u/sigma)^2), budget auto-calibrated.

    The envelope widens sigma by sqrt(2) so the pointwise modulus bound
    holds out to the tails; D is the measured amalgam/Hölder need with a
    5 percent margin.
    """
    g = GaussianProfile(sigma, theta)
    env = GaussianProfile(sigma * math.sqrt(2.0), theta)
    probe = KernelOperator(ConvolutionRule(g), env, 1.0, 1e9)
    rep = probe.validate()
    d_budget = 1.05 * max(rep["amalgam_sum"], rep["holder_need"])
    op = KernelOperator(ConvolutionRule(g), env, 1.0, d_budget)
    op.validate()
    return op


# ----------------------------------------------------------------------
# corpus writer


# the params build_item reads for each family; generate rejects any other
_PARAMS = {"toeplitz": ("sequence", "window"),
           "banded_random": ("window", "band", "scale", "gap", "seed"),
           "slanted": ("alpha", "taps", "window"),
           "gabor_gram": ("sigma", "a_step", "b_step", "time_count", "freq_count"),
           "bspline_gram": ("order", "window"),
           "gaussian_kernel": ("theta", "sigma")}


def build_item(family: str, params: dict, window: int, seed: int):
    """One corpus object; raises on unknown families or bad params."""

    def integer(key: str, default: int) -> int:
        return integer_field(params.get(key, default), key)

    if family == "toeplitz":
        return toeplitz_matrix(params["sequence"], integer("window", window))
    if family == "banded_random":
        return banded_random(integer("window", window),
                             band=integer("band", 2),
                             scale=float(params.get("scale", 0.25)),
                             gap=float(params.get("gap", 0.5)),
                             seed=integer("seed", seed))
    if family == "slanted":
        return slanted_matrix(integer_field(params["alpha"], "alpha"), params["taps"],
                              integer("window", window))
    if family == "gabor_gram":
        return gabor_gram(float(params.get("sigma", 1.0)),
                          float(params.get("a_step", 1.0)),
                          float(params.get("b_step", 0.5)),
                          integer("time_count", 8),
                          integer("freq_count", 4))
    if family == "bspline_gram":
        return bspline_gram(integer("order", 2), integer("window", window))
    if family == "gaussian_kernel":
        return gaussian_kernel_op(float(params.get("theta", 0.1)),
                                  float(params.get("sigma", 1.0)))
    raise ValueError(f"unknown corpus family {family!r} "
                     f"(known: {sorted(_PARAMS)})")


def generate(spec: dict, outdir) -> dict:
    """Write every item in the corpus spec plus a checksum manifest.

    Spec shape: {"seed": int, "window": int, "items": [{"name", "family",
    "params"}, ...]}; per-item params may override the shared window.  Every
    item is built before any file is written, so a bad item writes nothing;
    a param that the item's family does not read is an error, and so is an
    item name that repeats or is not a bare file stem.
    """
    seed = integer_field(spec.get("seed", 0), "seed")
    window = integer_field(spec.get("window", 128), "window")
    built = []
    names = set()
    for item in spec["items"]:
        name, family = item["name"], item["family"]
        # each item writes <name>.json in outdir, next to manifest.json
        if (not isinstance(name, str) or name in ("", ".", "..", "manifest")
                or "/" in name or "\\" in name):
            raise ValueError(f"item name {name!r} is not a bare file stem")
        if name in names:
            raise ValueError(f"item name {name!r} repeats")
        names.add(name)
        params = dict(item.get("params", {}))
        # an unknown family is left to build_item's error
        allowed = _PARAMS.get(family, params)
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ValueError(f"item {name!r}: {family} has no parameter "
                             f"{unknown[0]!r}; it takes {sorted(allowed)}")
        obj = build_item(family, params, window, seed)
        built.append((name, family, dump_json_bytes(obj.to_json_dict())))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for name, family, data in built:
        path = outdir / f"{name}.json"
        write_atomic(path, data)
        files.append({"name": name, "family": family, "file": path.name,
                      "sha256": hashlib.sha256(data).hexdigest()})
    manifest = {"seed": seed, "window": window, "files": files}
    write_atomic(outdir / "manifest.json", dump_json_bytes(manifest))
    return manifest
