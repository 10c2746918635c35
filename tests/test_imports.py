import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locop
from locop import corpus, lower_constant
from locop.matalg import LocalizedMatrix
from locop.reporting import dump_json_bytes


def _run_cold(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    locop from this checkout."""
    src = str(Path(locop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _loaded_by_cold_import(module: str) -> bool:
    return _run_cold(f"import sys, locop; print({module!r} in sys.modules)") == "True"


def _cold_cli_loads(argv: list, packages: list) -> str:
    """Exit code of a fresh ``cli.main(argv)`` and the modules it loaded
    from each package (the package itself or any module under it)."""
    return _run_cold(
        "import sys; from locop import cli; "
        f"rc = cli.main({argv!r}); "
        f"print(rc, sorted(m for m in sys.modules for u in {packages!r} "
        "if m == u or m.startswith(u + '.')))")


def test_cold_import_loads_no_scipy():
    # the dense p = 2 solves run on numpy.linalg and the sums and
    # restrictions on the sorted COO arrays, so every scipy module loads
    # where an algorithm that needs it is first called
    code = "import sys, locop; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _run_cold(code) == "[]"


def test_cold_import_does_not_load_scipy_signal():
    # scipy.signal pulls in scipy.stats and costs about 0.6 s of every cold
    # start; the one convolution that needs an FFT uses numpy.fft instead
    assert not _loaded_by_cold_import("scipy.signal")


def test_cold_import_does_not_load_scipy_sparse_csgraph():
    # only the Jordan-Wielandt ordering needs it, and imports it where it
    # uses it
    assert not _loaded_by_cold_import("scipy.sparse.csgraph")


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.fft", "scipy.special"])
def test_cold_import_defers_lp_and_fft_modules(module):
    # scipy.optimize (with scipy.spatial) and scipy.fft (with scipy.special)
    # cost about 0.15 s of every cold start; the LP loads scipy.optimize
    # where it is called, and the FFTs run on numpy.fft
    assert not _loaded_by_cold_import(module)


def test_cold_import_does_not_load_jsonschema():
    # jsonschema (with referencing, rpds and attrs) cost 60-100 ms of every
    # cold start; validate_report checks the closed envelope itself
    assert not _loaded_by_cold_import("jsonschema")


def _block_swapped_toeplitz131():
    """toeplitz (1, 3, 1) on 32 points with rows 0, 15 and rows 16, 31
    swapped: windows 16 and 32 are row permutations of nonsingular windows,
    and each has a one-column interior."""
    A = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 32)
    perm = np.arange(32)
    perm[[0, 15, 16, 31]] = [15, 0, 31, 16]
    return LocalizedMatrix(A.rows, A.cols, perm[A.i], A.j, A.values.copy())


@pytest.mark.parametrize("analysis", ["stab", "equiv", "synth", "kernel", "kernel_n3",
                                      "equiv_p2", "norms", "conv", "density",
                                      "invdecay"])
def test_analysis_loads_no_module_it_does_not_call(tmp_path, analysis):
    # a p = 1, inf ladder whose windows are square and whose interiors are
    # one column solves no LP, and factors its windows, as the inverse
    # decay does, with LAPACK's band LU and no scipy.sparse; at p = 2 on
    # windows within the dense cut-off (numpy's eigvalsh or svd), and in
    # the norm, symbol and counting analyses, nothing needs scipy, so none
    # of it loads; the kernel analysis convolves on numpy.fft at every
    # scale, the small scale 3 (and its reference scale 6) as the larger 5
    # (and 8); no analysis needs a schema engine to write its report
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    obj = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 32)
    unloaded = ["scipy"]
    if analysis == "stab":
        argv = ["stab", "--matrix", str(path), "--p", "2", "--windows", "8,16"]
    elif analysis == "equiv":
        obj = _block_swapped_toeplitz131()
        argv = ["equiv", "--matrix", str(path), "--p", "1,inf",
                "--windows", "16,32"]
        unloaded = ["scipy.optimize", "scipy.sparse"]
    elif analysis == "invdecay":
        argv = ["invdecay", "--matrix", str(path), "--margin", "8"]
        unloaded = ["scipy.optimize", "scipy.sparse"]
    elif analysis == "synth":
        obj = corpus.hat_family(16)
        argv = ["synth", "--family", str(path), "--p", "1", "--n0", "3",
                "--window", "8"]
        unloaded = []
    elif analysis.startswith("kernel"):
        obj = corpus.gaussian_kernel_op(0.1, 1.0)
        argv = ["kernel", "--kernel", str(path), "--p", "2",
                "--n", "3" if analysis == "kernel_n3" else "5", "--window", "16"]
    elif analysis == "equiv_p2":
        argv = ["equiv", "--matrix", str(path), "--p", "2", "--windows", "8,16,32"]
    elif analysis == "norms":
        argv = ["norms", "--matrix", str(path), "--alpha", "1"]
    elif analysis == "conv":
        (tmp_path / "seq.csv").write_text("-1,1\n0,3\n1,1\n")
        argv = ["conv", "--seq", str(tmp_path / "seq.csv")]
    else:
        obj = obj.rows
        (tmp_path / "boxes.json").write_bytes(dump_json_bytes([[[0, 10]], [[5, 20]]]))
        argv = ["density", "--rows", str(path), "--cols", str(path), "--r0", "1",
                "--boxes", str(tmp_path / "boxes.json")]
    unloaded.append("jsonschema")
    path.write_bytes(dump_json_bytes(obj.to_json_dict()))
    assert _cold_cli_loads(argv + ["--out", str(out)], unloaded) == "0 []"
    assert out.exists()
    if analysis.startswith("equiv"):
        entries = json.loads(out.read_text())["entries"]
        assert {e["interior_method"] for e in entries} == (
            {"column-norm"} if analysis == "equiv" else {"singular-value"})


def test_kernel_at_p1_loads_the_band_lu_and_no_scipy_sparse(tmp_path):
    # positive control for the checks above: square windows at p = 1 take
    # the exact inverse norm, which factors with LAPACK's band LU from
    # scipy.linalg, laid out from the window's entry arrays
    path = tmp_path / "k.json"
    path.write_bytes(dump_json_bytes(corpus.gaussian_kernel_op(0.1, 1.0).to_json_dict()))
    argv = ["kernel", "--kernel", str(path), "--p", "1", "--n", "5", "--window", "16",
            "--out", str(tmp_path / "out.json")]
    rc, loaded = _cold_cli_loads(argv, ["scipy.linalg", "scipy.sparse"]).split(" ", 1)
    loaded = ast.literal_eval(loaded)
    assert rc == "0" and "scipy.linalg.lapack" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


def test_no_module_imports_a_second_square_factorization():
    # stability._square_lu, LAPACK's band LU, is the one factorization
    # behind every square solve; SuperLU and its structural-rank fallback
    # must not come back
    found = []
    for path in sorted(Path(locop.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.startswith("scipy.sparse.linalg")
                      or name.endswith("structural_rank")]
    assert found == []


def test_left_inverse_lp_loads_the_solver_at_first_call():
    code = ("import sys, locop; "
            "A = locop.toeplitz_matrix([1.0, 3.0, 1.0], 12).window_prefix(12, 8); "
            "est = locop.lower_constant(A, 'inf'); "
            "print(est.method, repr(est.value), 'scipy.optimize' in sys.modules)")
    A = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 12).window_prefix(12, 8)
    est = lower_constant(A, "inf")
    assert est.method == "left-inverse-lp"
    assert _run_cold(code) == f"left-inverse-lp {est.value!r} True"


def test_perfbench_trace_targets_resolve():
    # the benchmark's tracer patches these names and its run record reads
    # the backend; a rename or a deletion in locop would otherwise break a
    # traced benchmark run without any test noticing
    path = Path(locop.__file__).resolve().parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) == 32
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name).__dict__
            assert attr in owner, f"{module}.{cls_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
    from locop import _accel
    assert isinstance(_accel.BACKEND, str)
