import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from locop import cli, corpus, reporting
from locop.kernelop import KernelOperator, SeparableRule
from locop.matalg import LocalizedMatrix, schur_norm
from locop.profiles import GaussianProfile, bspline_profile
from locop.reporting import dump_json_bytes, validate_report

# ----------------------------------------------------------------------
# corpus builders


def test_toeplitz_entry_count_and_band(t131_64):
    A = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 128)
    assert A.nnz == 3 * 128 - 2
    assert A.band() == 1
    assert t131_64.dense()[5, 5] == 3.0


def test_toeplitz_rejects_even_band():
    with pytest.raises(ValueError, match="odd"):
        corpus.toeplitz_matrix([1.0, 1.0], 16)


def test_banded_random_is_deterministic():
    a = corpus.banded_random(48, band=2, seed=9).dense()
    b = corpus.banded_random(48, band=2, seed=9).dense()
    c = corpus.banded_random(48, band=2, seed=10).dense()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_banded_random_windows_nest():
    # leading windows are prefixes of one infinite model, so enlarging
    # the window must not rewrite earlier entries
    small = corpus.banded_random(48, band=3, seed=7)
    big = corpus.banded_random(96, band=3, seed=7)
    assert np.array_equal(big.window_prefix(48, 48).dense(), small.dense())


def test_banded_random_keeps_gershgorin_margin():
    A = corpus.banded_random(64, band=2, gap=0.5, seed=3)
    D = A.dense()
    assert np.array_equal(D, D.T)
    radii = np.abs(D).sum(axis=1) - np.abs(np.diag(D))
    assert np.all(np.diag(D) - radii >= 0.5 - 1e-12)
    assert scipy.linalg.eigvalsh(D)[0] >= 0.5 - 1e-12


def test_banded_random_validates_band():
    with pytest.raises(ValueError, match="band"):
        corpus.banded_random(4, band=4)


def test_permuted_rows_shuffles_but_preserves_row_multiset(t131_64):
    P = corpus.permuted_rows(t131_64, seed=2)
    a = t131_64.dense()
    b = P.dense()
    assert not np.array_equal(a, b)
    assert np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))
    assert schur_norm(P) == schur_norm(t131_64)


def test_slanted_matrix_places_taps_on_the_slant():
    A = corpus.slanted_matrix(2, {0: 1.0, 1: 0.5}, 8)
    D = A.dense()
    for i in range(8):
        assert D[i, 2 * i] == 1.0
        assert D[i, 2 * i + 1] == 0.5
    assert A.nnz == 16


def test_bspline_gram_is_the_hat_band():
    # exact values are [1/6, 2/3, 1/6]; the quadrature reproduces them to
    # a couple of ulps
    G = corpus.bspline_gram(2, 16)
    ref = corpus.toeplitz_matrix([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], 16)
    assert np.allclose(G.dense(), ref.dense(), atol=1e-15, rtol=0)
    assert G.nnz == ref.nnz


def test_gabor_gram_symmetric_psd():
    G = corpus.gabor_gram(1.0, 1.0, 0.5, 4, 3)
    D = G.dense()
    assert np.array_equal(D, D.T)
    assert scipy.linalg.eigvalsh(D)[0] >= -1e-12
    assert np.all(np.diag(D) > 0)


def test_build_item_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown corpus family"):
        corpus.build_item("mystery", {}, 16, 0)


SPEC = {
    "seed": 5,
    "window": 32,
    "items": [
        {"name": "t131", "family": "toeplitz", "params": {"sequence": [1, 3, 1]}},
        {"name": "noisy", "family": "banded_random", "params": {"band": 2}},
        {"name": "hatgram", "family": "bspline_gram", "params": {"order": 2}},
    ],
}


def test_generate_is_byte_deterministic(tmp_path):
    m1 = corpus.generate(SPEC, tmp_path / "a")
    m2 = corpus.generate(SPEC, tmp_path / "b")
    assert m1 == m2
    for entry in m1["files"]:
        b1 = (tmp_path / "a" / entry["file"]).read_bytes()
        b2 = (tmp_path / "b" / entry["file"]).read_bytes()
        assert b1 == b2
        assert hashlib.sha256(b1).hexdigest() == entry["sha256"]
    assert (tmp_path / "a" / "manifest.json").exists()


# ----------------------------------------------------------------------
# command-line interface


@pytest.fixture()
def t131_file(tmp_path):
    path = tmp_path / "t131.json"
    mat = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 32)
    path.write_bytes(dump_json_bytes(mat.to_json_dict()))
    return path


def _load_report(path):
    with open(path, "rb") as fh:
        report = json.load(fh)
    validate_report(report)
    return report


def test_cli_gen_round_trip(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(dump_json_bytes(SPEC))
    rc = cli.main(["gen", "--spec", str(spec), "--out", str(tmp_path / "c")])
    assert rc == 0
    manifest = json.loads(capsys.readouterr().out)
    assert {f["name"] for f in manifest["files"]} == {"t131", "noisy", "hatgram"}
    loaded = LocalizedMatrix.from_json_dict(
        json.loads((tmp_path / "c" / "t131.json").read_text()))
    assert loaded.nnz == 3 * 32 - 2


def test_cli_stab_writes_csv_and_report(tmp_path, t131_file):
    out = tmp_path / "stab.csv"
    rc = cli.main(["stab", "--matrix", str(t131_file), "--p", "1,2,inf",
                   "--windows", "8,16,32", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["window", "p", "lower", "upper", "certified"]
    assert len(rows) == 1 + 9
    for _, _, lower, upper, certified in rows[1:]:
        assert 0.0 < float(lower) <= float(upper)
        assert certified in {"true", "false"}
    report = _load_report(tmp_path / "stab.json")
    assert report["analysis"] == "stab"
    assert report["verdicts"]["2"] == "stabilized"


def test_cli_norms_with_slant(tmp_path, capsys):
    path = tmp_path / "slant.json"
    mat = corpus.slanted_matrix(2, {0: 1.0}, 12)
    path.write_bytes(dump_json_bytes(mat.to_json_dict()))
    rc = cli.main(["norms", "--matrix", str(path), "--alpha", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    names = {e["norm"] for e in report["entries"]}
    assert {"schur", "sjostrand", "slant"} <= names
    by_norm = {e["norm"]: e["value"] for e in report["entries"]}
    assert by_norm["slant"] == 1.0


def test_cli_conv_verdicts(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("1\n3\n1\n")
    assert cli.main(["conv", "--seq", str(seq)]) == 0
    stable = json.loads(capsys.readouterr().out)
    assert stable["verdicts"]["stability"] == "stable"

    seq.write_text("offset,value\n-1,1\n0,2\n1,1\n")
    assert cli.main(["conv", "--seq", str(seq)]) == 0
    unstable = json.loads(capsys.readouterr().out)
    assert unstable["verdicts"]["stability"] == "unstable"


def test_cli_synth_quick(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_bytes(dump_json_bytes(corpus.hat_family(16).to_json_dict()))
    rc = cli.main(["synth", "--family", str(fam), "--p", "2",
                   "--n0", "3,4", "--window", "8,16"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["verdicts"]["2"] in {"stabilized", "undetermined"}
    lowers = [e["lower"] for e in report["entries"]]
    assert all(v > 0.4 for v in lowers)


def test_cli_exit_code_two_on_bad_input(tmp_path, capsys):
    rc = cli.main(["stab", "--matrix", str(tmp_path / "missing.json"),
                   "--p", "2", "--windows", "8"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] in {"FileNotFoundError", "OSError"}

    path = tmp_path / "t.json"
    path.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()))
    rc = cli.main(["stab", "--matrix", str(path), "--p", "2",
                   "--windows", "8,4"])   # not increasing
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"


def _assert_stab_rejects(obj, tmp_path, capsys):
    """`stab --p 2` on the matrix JSON exits 2 with InvariantViolation and
    writes no report."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))   # writes NaN / Infinity literals
    out = tmp_path / "stab.json"
    rc = cli.main(["stab", "--matrix", str(path), "--p", "2",
                   "--windows", "8", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"]["type"] == "InvariantViolation"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_rejects_non_finite_matrix_entry(tmp_path, capsys, bad):
    obj = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()
    obj["entries"][4][2] = bad
    _assert_stab_rejects(obj, tmp_path, capsys)


def test_cli_rejects_fractional_index(tmp_path, capsys):
    # row 0.7 used to be truncated to row 0 without a word
    obj = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()
    assert obj["entries"][1] == [0, 1, 1.0]
    obj["entries"][1] = [0.7, 1.0, 1.0]
    _assert_stab_rejects(obj, tmp_path, capsys)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_cli_rejects_non_finite_point(tmp_path, capsys, bad):
    # a NaN point slipped through the window test (pts < lo is False)
    obj = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()
    obj["rows"]["points"][3] = [bad]
    _assert_stab_rejects(obj, tmp_path, capsys)


def _assert_rejects(argv, tmp_path, capsys, error="InvariantViolation"):
    """The analysis exits 2 with the given error as JSON and no traceback,
    prints nothing on stdout and writes no report next to its one input file."""
    before = set(tmp_path.iterdir())
    rc = cli.main(argv + ["--out", str(tmp_path / "report.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"]["type"] == error
    assert captured.out == ""
    assert set(tmp_path.iterdir()) == before


def _write_nan_json(path, obj):
    path.write_text(json.dumps(obj))   # writes NaN literals
    return str(path)


def test_cli_synth_rejects_non_finite_profile_coefficient(tmp_path, capsys):
    # a NaN hat coefficient used to give a certified "zero-matrix" lower 0.0
    obj = corpus.hat_family(16).to_json_dict()
    obj["rule"]["profiles"][0]["coeffs"][0][1] = float("nan")
    fam = _write_nan_json(tmp_path / "fam.json", obj)
    _assert_rejects(["synth", "--family", fam, "--p", "2", "--n0", "3",
                     "--window", "8"], tmp_path, capsys)


def test_cli_synth_rejects_non_finite_modulus(tmp_path, capsys):
    # a NaN modulus constant used to write "bias_bound": NaN, invalid JSON
    obj = corpus.hat_family(16).to_json_dict()
    obj["modulus"]["C"] = float("nan")
    fam = _write_nan_json(tmp_path / "fam.json", obj)
    _assert_rejects(["synth", "--family", fam, "--p", "2", "--n0", "3",
                     "--window", "8"], tmp_path, capsys)


def test_cli_kernel_rejects_non_finite_constant(tmp_path, capsys):
    # D = NaN passed every amalgam and Hölder comparison
    obj = corpus.gaussian_kernel_op(0.1, 1.0).to_json_dict()
    obj["D"] = float("nan")
    kern = _write_nan_json(tmp_path / "kern.json", obj)
    _assert_rejects(["kernel", "--kernel", kern, "--p", "2", "--n", "3",
                     "--window", "16"], tmp_path, capsys)


@pytest.mark.parametrize("field,bad", [("sigma", None), ("alpha", [1])])
def test_cli_kernel_rejects_wrong_type(tmp_path, capsys, field, bad):
    # a null or a list where a number belongs used to end in a traceback
    obj = corpus.gaussian_kernel_op(0.1, 1.0).to_json_dict()
    if field == "sigma":
        obj["rule"]["g"]["sigma"] = bad
    else:
        obj[field] = bad
    kern = _write_nan_json(tmp_path / "kern.json", obj)
    _assert_rejects(["kernel", "--kernel", kern, "--p", "2", "--n", "3",
                     "--window", "16"], tmp_path, capsys, error="TypeError")


def test_cli_synth_rejects_null_modulus_constant(tmp_path, capsys):
    obj = corpus.hat_family(16).to_json_dict()
    obj["modulus"]["C"] = None
    fam = _write_nan_json(tmp_path / "fam.json", obj)
    _assert_rejects(["synth", "--family", fam, "--p", "2", "--n0", "3",
                     "--window", "8"], tmp_path, capsys, error="TypeError")


def test_cli_kernel_rejects_non_finite_separable_weight(tmp_path, capsys):
    # the >= 1e-300 entry mask dropped every NaN entry, leaving a certified
    # "identity" answer with lower 1.0
    sep = SeparableRule(((1.0, bspline_profile(2), GaussianProfile(1.0, 1.0)),))
    obj = KernelOperator(sep, GaussianProfile(1.0, 2.0), 1.0, 50.0).to_json_dict()
    obj["rule"]["terms"][0]["weight"] = float("nan")
    kern = _write_nan_json(tmp_path / "kern.json", obj)
    _assert_rejects(["kernel", "--kernel", kern, "--p", "2", "--n", "3",
                     "--window", "32"], tmp_path, capsys)


def test_cli_validates_each_report_once(tmp_path, capsys, monkeypatch):
    # counted wherever it is bound: the CLI and the writers in reporting
    calls = []
    real = reporting.validate_report

    def counted(report):
        calls.append(1)
        real(report)

    monkeypatch.setattr(cli, "validate_report", counted)
    monkeypatch.setattr(reporting, "validate_report", counted)
    mat = tmp_path / "t131.json"
    mat.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 16).to_json_dict()))
    assert cli.main(["stab", "--matrix", str(mat), "--p", "2", "--windows", "8,16",
                     "--out", str(tmp_path / "stab.csv")]) == 0
    assert (tmp_path / "stab.json").exists() and (tmp_path / "stab.csv").exists()
    assert calls == [1]


def test_stab_without_seed_is_byte_identical_across_interpreters(tmp_path):
    # p = 1.5 sends the tall interior windows to the multistart descent;
    # two fresh interpreters (own hash seeds, own numpy state) must agree
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    mat = tmp_path / "t131.json"
    mat.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 16).to_json_dict()))
    outs = []
    for k in range(2):
        out = tmp_path / f"stab{k}.json"
        subprocess.run([sys.executable, "-m", "locop.cli", "stab",
                        "--matrix", str(mat), "--p", "1.5", "--windows", "8,16",
                        "--out", str(out)], env=env, check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["seed"] is None
    for e in report["entries"]:
        assert e["lower_certified"] and e["method"] == "interpolation-bound"
        assert e["interior_lower"] is not None


def test_stab_entries_say_how_the_interior_constant_was_found(tmp_path):
    mat = tmp_path / "t121.json"
    mat.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 2.0, 1.0], 16).to_json_dict()))
    out = tmp_path / "stab.json"
    assert cli.main(["stab", "--matrix", str(mat), "--p", "1,1.5,2,inf",
                     "--windows", "8,16", "--out", str(out)]) == 0
    found = {(e["p"], e["window"]): (e["interior_certified"], e["interior_method"])
             for e in json.loads(out.read_bytes())["entries"]}
    for p in ("1", "inf"):
        assert found[p, 8] == found[p, 16] == (True, "codim-one")
    assert found["2", 16] == (True, "singular-value")
    assert found["1.5", 16] == (False, "multistart")


def test_cli_exit_code_three_on_numerical_failure(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([0.0, 0.0, 0.0], 8).to_json_dict()))
    rc = cli.main(["invdecay", "--matrix", str(path), "--margin", "1"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NumericalError"


def test_cli_run_config_matches_flag_invocation(tmp_path, t131_file):
    flag_out = tmp_path / "flags.json"
    rc = cli.main(["stab", "--matrix", str(t131_file), "--p", "2",
                   "--windows", "8,16", "--out", str(flag_out)])
    assert rc == 0
    cfg = tmp_path / "cfg.json"
    cfg_out = tmp_path / "config.json"
    cfg.write_bytes(dump_json_bytes({
        "analysis": "stab",
        "params": {"matrix": str(t131_file), "p": "2", "windows": "8,16"},
        "seed": None,
        "out": str(cfg_out),
    }))
    rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 0
    assert flag_out.read_bytes() == cfg_out.read_bytes()


def test_cli_density_counts(tmp_path, capsys):
    from locop.lattice import IndexSet

    rows = tmp_path / "rows.json"
    cols = tmp_path / "cols.json"
    rows.write_bytes(dump_json_bytes(
        IndexSet.integer_range(0, 40).to_json_dict()))
    cols.write_bytes(dump_json_bytes(
        IndexSet.integer_range(0, 40).to_json_dict()))
    boxes = tmp_path / "boxes.json"
    boxes.write_text("[[5, 30]]\n")
    rc = cli.main(["density", "--rows", str(rows), "--cols", str(cols),
                   "--r0", "2", "--boxes", str(boxes)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["verdicts"]["all_passed"] is True


def test_cli_kernel_quick(tmp_path):
    kern = tmp_path / "kern.json"
    kern.write_bytes(dump_json_bytes(
        corpus.gaussian_kernel_op(0.1, 1.0).to_json_dict()))
    out = tmp_path / "kernel.json"
    rc = cli.main(["kernel", "--kernel", str(kern), "--p", "2",
                   "--n", "3,4", "--window", "16", "--out", str(out)])
    assert rc == 0
    report = _load_report(out)
    assert report["meta"]["error_curve"]["slope"] < -0.8
    assert all(e["lower"] > 0.9 for e in report["entries"])
    # the error curve also lands as a CSV sibling
    sibling = tmp_path / "kernel.csv"
    rows = list(csv.reader(io.StringIO(sibling.read_text())))
    assert rows[0] == ["n", "ratio"]
    assert len(rows) == 3
