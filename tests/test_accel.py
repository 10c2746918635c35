import math

import numpy as np
import pytest

import oracles
from locop import _accel, corpus
from locop.synthesis import discretize_synthesis


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_descend_returns_unit_vectors_and_their_objectives(p, rng):
    A = corpus.banded_random(20, band=2, seed=4)
    csr = A.csr()
    starts = rng.standard_normal((8, 20))
    F, C = _accel.descend_lp(csr, starts, p)
    assert F.shape == (8,) and C.shape == (8, 20)
    assert np.allclose(np.linalg.norm(C, p, axis=1), 1.0, rtol=0.0, atol=1e-9)
    for f, c in zip(F, C):
        assert f == pytest.approx(np.linalg.norm(csr @ c, p), rel=1e-12)
    # descent only accepts improving steps: no start ends above where it began
    initial = (np.linalg.norm((csr @ starts.T).T, p, axis=1)
               / np.linalg.norm(starts, p, axis=1))
    assert np.all(F <= initial * (1.0 + 1e-12))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("shape", ["square", "tall"])
def test_descend_matches_the_per_exponent_oracle_bit_for_bit(p, shape, rng):
    # one norm call and one subgradient product for every p give the same
    # floats as a formula per exponent and a row gather at p = inf
    if shape == "square":
        A = corpus.banded_random(20, band=2, seed=4)
    else:
        A = discretize_synthesis(corpus.hat_family(16).prefix(8), 3)
    csr = A.csr()
    starts = rng.standard_normal((6, A.shape[1]))
    F, C = _accel.descend_lp(csr, starts, p)
    F0, C0 = oracles.descend_lp(csr, starts, p)
    assert np.array_equal(F, F0) and np.array_equal(C, C0)
