import itertools
import sys

import numpy as np
import pytest

from locop import corpus
from locop.lattice import IndexSet
from locop.matalg import LocalizedMatrix


@pytest.fixture(scope="session")
def t131_64():
    return corpus.toeplitz_matrix([1, 3, 1], 64)


@pytest.fixture(scope="session")
def gaussian_op():
    # calibrated once per session: validation + amalgam calibration is the
    # expensive part, the operator itself is immutable
    return corpus.gaussian_kernel_op(0.1, 1.0)


@pytest.fixture(scope="session")
def stencil_3d():
    """The 7-point stencil (diagonal 8, neighbours 1) on the 6 x 6 x 6 lattice."""
    pts = np.array(list(itertools.product(range(6), repeat=3)), dtype=float)
    s = IndexSet(3, pts, [[0.0, 6.0]] * 3)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    i, j = np.nonzero(dist <= 1)
    return LocalizedMatrix(s, s, i, j, np.where(i == j, 8.0, 1.0))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) wraps numpy.linalg.<name> (``eigvalsh``, ``svd``)
    for the test and returns the list of the argument shapes that
    ``locop.stability`` calls it with.  Calls from elsewhere, such as the
    Gauss-Legendre nodes that numpy computes with ``eigvalsh``, are not
    counted."""
    def install(name):
        calls, fn = [], getattr(np.linalg, name)

        def counting(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "locop.stability":
                calls.append(a.shape)
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        return calls
    return install


@pytest.fixture
def count_lu(monkeypatch):
    """Wraps ``locop.stability._square_lu`` for the test and returns a dict
    that counts its factorizations ("lu"), the calls of the solve functions
    they return ("solves") and the unit columns those calls solve against
    ("columns")."""
    from locop import stability
    counts = {"lu": 0, "solves": 0, "columns": 0}
    square_lu = stability._square_lu

    def counting(n, i, j, values):
        counts["lu"] += 1
        solve = square_lu(n, i, j, values)
        if solve is None:
            return None

        def counted(rhs, trans):
            counts["solves"] += 1
            counts["columns"] += rhs.shape[1]
            return solve(rhs, trans)
        return counted

    monkeypatch.setattr(stability, "_square_lu", counting)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the test run."""
    lines = []
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) != "call":
                continue
            for key, value in getattr(report, "user_properties", []):
                if key == "acceptance":
                    lines.append(value)
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
