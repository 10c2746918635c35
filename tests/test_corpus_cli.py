import copy
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from locop import cli, corpus, reporting
from locop.errors import InvariantViolation, integer_field
from locop.kernelop import KernelOperator, SeparableRule
from locop.matalg import LocalizedMatrix, schur_norm
from locop.profiles import GaussianProfile, bspline_profile
from locop.reporting import dump_json_bytes, validate_report

import oracles

# ----------------------------------------------------------------------
# corpus builders


def test_toeplitz_entry_count_and_band(t131_64):
    A = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 128)
    assert A.nnz == 3 * 128 - 2
    assert A.band() == 1
    assert t131_64.dense()[5, 5] == 3.0


_TAPS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300]),
                 st.floats(-1e6, 1e6))


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 12).flatmap(
    lambda half: st.lists(_TAPS, min_size=2 * half + 1, max_size=2 * half + 1)),
    st.integers(1, 40))
def test_toeplitz_matrix_equals_the_diagonal_loop(sequence, window):
    # zero and subnormal taps are dropped alike, and windows narrower than
    # the band clip it
    assert (dump_json_bytes(corpus.toeplitz_matrix(sequence, window).to_json_dict())
            == dump_json_bytes(oracles.toeplitz_matrix(sequence, window).to_json_dict()))


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


@pytest.mark.parametrize("bad,message", [
    ({"name": "t", "family": "toeplitz", "params": {"sequence": [1, 3, 1], "windw": 8}},
     "item 't': toeplitz has no parameter 'windw'; it takes ['sequence', 'window']"),
    ({"name": "s", "family": "slanted", "params": {"alpha": 2, "taps": [1, 3, 1]}},
     "taps must be a non-empty list of [offset, value] pairs or an {offset: value} object"),
    ({"name": "s", "family": "slanted", "params": {"alpha": 2, "taps": []}},
     "taps must be a non-empty list of [offset, value] pairs or an {offset: value} object"),
], ids=["unknown_param", "bare_taps", "no_taps"])
def test_cli_gen_checks_every_item_before_writing(tmp_path, capsys, bad, message):
    # a misspelt key wrote the default window with exit 0, bare taps exited
    # with a TypeError from dict(), and the items before a bad one stayed on
    # disk without a manifest
    spec = tmp_path / "spec.json"
    spec.write_bytes(dump_json_bytes({**SPEC, "items": SPEC["items"] + [bad]}))
    out = tmp_path / "c"
    assert cli.main(["gen", "--spec", str(spec), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("name,message", [
    ("t131", "item name 't131' repeats"),
    ("", "item name '' is not a bare file stem"),
    (".", "item name '.' is not a bare file stem"),
    ("..", "item name '..' is not a bare file stem"),
    ("../esc", "item name '../esc' is not a bare file stem"),
    ("sub/t", "item name 'sub/t' is not a bare file stem"),
    ("sub\\t", "item name 'sub\\\\t' is not a bare file stem"),
    ("manifest", "item name 'manifest' is not a bare file stem"),
], ids=["duplicate", "empty", "dot", "dotdot", "escape", "slash", "backslash", "manifest"])
def test_generate_rejects_names_that_are_not_distinct_file_stems(tmp_path, name, message):
    # a repeated name wrote its file twice and listed it twice in the
    # manifest, and '../esc' wrote esc.json outside the output directory
    item = {"name": name, "family": "toeplitz", "params": {"sequence": [1, 2, 1]}}
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        corpus.generate({**SPEC, "items": SPEC["items"] + [item]}, out)
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


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


def test_cli_synth_csv_casts_numpy_scalars(tmp_path, monkeypatch):
    # the synth CSV takes its rows from reporting.stability_csv_row, whose
    # float() casts keep a numpy scalar from printing as np.float64(...)
    real = cli.synthesis_stability

    def numpy_scalars(*args):
        rep = real(*args)
        return dataclasses.replace(rep, entries=[
            dataclasses.replace(e, lower=np.float64(e.lower), upper=np.float64(e.upper))
            for e in rep.entries])

    monkeypatch.setattr(cli, "synthesis_stability", numpy_scalars)
    fam = tmp_path / "fam.json"
    fam.write_bytes(dump_json_bytes(corpus.hat_family(16).to_json_dict()))
    out = tmp_path / "synth.csv"
    assert cli.main(["synth", "--family", str(fam), "--p", "2", "--n0", "3",
                     "--window", "8,16", "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == list(reporting.STABILITY_CSV_HEADER) and len(rows) == 3
    report = json.loads(out.with_suffix(".json").read_text())
    for row, e in zip(rows[1:], report["entries"]):
        assert [float(row[2]), float(row[3])] == [e["lower"], e["upper"]]


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


@pytest.mark.parametrize("flag", ["--windows", "--n0", "--window"])
def test_cli_rejects_descending_range(tmp_path, capsys, flag):
    # '5..3' used to parse as an empty list: `stab` died in an IndexError
    # (exit 1) and `synth` wrote a report with no entries (exit 0)
    if flag == "--windows":
        path = tmp_path / "t.json"
        path.write_bytes(dump_json_bytes(
            corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()))
        argv = ["stab", "--matrix", str(path), "--p", "2", "--windows", "5..3"]
    else:
        path = tmp_path / "fam.json"
        path.write_bytes(dump_json_bytes(corpus.hat_family(16).to_json_dict()))
        args = {"--n0": "3", "--window": "8", flag: "5..3"}
        argv = ["synth", "--family", str(path), "--p", "2"]
        argv += [s for kv in args.items() for s in kv]
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and "empty integer list" in err["message"]
    assert not out.exists()


def test_build_parser_runs_once_per_process():
    # every cli.main call parses with the same parser
    assert cli.build_parser() is cli.build_parser()


def test_parse_int_list_rejects_empty_lists():
    assert cli._parse_int_list("3..5") == [3, 4, 5]
    assert cli._parse_int_list("4..4") == [4]
    for value in ("5..3", []):
        with pytest.raises(ValueError, match="empty"):
            cli._parse_int_list(value)


def test_parse_int_list_rejects_non_increasing_lists():
    assert cli._parse_int_list("3,4,7") == [3, 4, 7]
    for value in ("8,8", "3,3", "16,8", "5,3", [4, 4]):
        with pytest.raises(ValueError, match="strictly increasing"):
            cli._parse_int_list(value)


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
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    err = json.loads(captured.err)["error"]
    assert err["type"] == error
    assert captured.out == ""
    assert set(tmp_path.iterdir()) == before
    return err


def _write_nan_json(path, obj):
    path.write_text(json.dumps(obj))   # writes NaN literals
    return str(path)


@pytest.mark.parametrize("argv", [
    ["synth", "--p", "1", "--n0", "3", "--window", "8,8"],
    ["synth", "--p", "2", "--n0", "3,3", "--window", "8"],
    ["synth", "--p", "2", "--n0", "3", "--window", "16,8"],
    ["kernel", "--p", "2", "--n", "3", "--window", "16,16"],
    ["kernel", "--p", "2", "--n", "3,3", "--window", "16"],
    ["kernel", "--p", "2", "--n", "5,3", "--window", "16"],
], ids=["synth-window-8,8", "synth-n0-3,3", "synth-window-16,8",
        "kernel-window-16,16", "kernel-n-3,3", "kernel-n-5,3"])
def test_cli_rejects_repeated_or_descending_ladder(tmp_path, capsys, gaussian_op,
                                                   argv):
    # a repeated window or scale analysed one window twice and reported
    # "stabilized" (kernel --n 3,3 also printed a RankWarning); a
    # descending ladder took its verdict from the wrong end; kernel
    # --n 5,3 used to be sorted without a word
    if argv[0] == "synth":
        path = tmp_path / "fam.json"
        path.write_bytes(dump_json_bytes(corpus.hat_family(16).to_json_dict()))
        argv = argv[:1] + ["--family", str(path)] + argv[1:]
    else:
        path = tmp_path / "kern.json"
        path.write_bytes(dump_json_bytes(gaussian_op.to_json_dict()))
        argv = argv[:1] + ["--kernel", str(path)] + argv[1:]
    err = _assert_rejects(argv, tmp_path, capsys, error="ValueError")
    assert "strictly increasing" in err["message"]


@pytest.mark.parametrize("window", ["0", "99"])
def test_cli_synth_rejects_window_sizes_outside_the_index(tmp_path, capsys, window):
    # window 0 used to fail in min() on an empty generator list and window
    # 99 in IndexSet.prefix; both now get the matrix ladders' message
    path = tmp_path / "fam.json"
    path.write_bytes(dump_json_bytes(corpus.hat_family(16).to_json_dict()))
    err = _assert_rejects(["synth", "--family", str(path), "--p", "2", "--n0", "3",
                           "--window", window], tmp_path, capsys, error="ValueError")
    assert err["message"] == f"window sizes must lie in [1, 16]: [{window}]"


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_norms_rejects_non_finite_alpha(tmp_path, capsys, bad):
    # used to compute on NaN, print RuntimeWarnings and fail only when the
    # report's JSON was emitted
    path = tmp_path / "t.json"
    path.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()))
    err = _assert_rejects(["norms", "--matrix", str(path), "--alpha", bad],
                          tmp_path, capsys)
    assert "alpha" in err["message"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_density_rejects_non_finite_radius(tmp_path, capsys, bad):
    from locop.lattice import IndexSet

    rows = tmp_path / "rows.json"
    rows.write_bytes(dump_json_bytes(IndexSet.integer_range(0, 10).to_json_dict()))
    boxes = tmp_path / "boxes.json"
    boxes.write_text("[[2, 5]]\n")
    err = _assert_rejects(["density", "--rows", str(rows), "--cols", str(rows),
                           "--r0", bad, "--boxes", str(boxes)], tmp_path, capsys)
    assert "r0" in err["message"]


@pytest.mark.parametrize("taps", ["1\nnan\n1\n", "-1,1\n0,inf\n1,1\n"],
                         ids=["nan", "inf"])
def test_cli_conv_rejects_non_finite_tap(tmp_path, capsys, taps):
    # the symbol was computed on NaN and the run failed only when the report
    # was written: "Out of range float values are not JSON compliant: nan"
    seq = tmp_path / "taps.csv"
    seq.write_text(taps)
    err = _assert_rejects(["conv", "--seq", str(seq)], tmp_path, capsys)
    assert "filter tap" in err["message"]


@pytest.mark.parametrize("boxes", ["[[[NaN, 30.0]]]", "[[[5.0, Infinity]]]",
                                   "[[[5.0, 30.0]], [[-Infinity, 8.0]]]"],
                         ids=["nan", "inf", "second-box"])
def test_cli_density_rejects_non_finite_box(tmp_path, capsys, monkeypatch, boxes):
    # a NaN box ran and failed only when the report was written; an infinite
    # bound is no compact box.  No box is counted before every box is checked
    from locop import stability
    from locop.lattice import IndexSet

    def counted(*args):
        raise AssertionError("a box was counted before all were checked")

    monkeypatch.setattr(stability, "_dist_to_box", counted)
    rows = tmp_path / "rows.json"
    rows.write_bytes(dump_json_bytes(IndexSet.integer_range(0, 40).to_json_dict()))
    path = tmp_path / "boxes.json"
    path.write_text(boxes)
    err = _assert_rejects(["density", "--rows", str(rows), "--cols", str(rows),
                           "--r0", "2", "--boxes", str(path)], tmp_path, capsys)
    assert "box" in err["message"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_invdecay_rejects_non_finite_margin(tmp_path, capsys, monkeypatch, bad):
    # --margin nan reported "margin leaves no interior rows" after the
    # matrix's singular values were computed
    from locop import stability

    def solved(*args):
        raise AssertionError("the matrix was solved before the margin was checked")

    monkeypatch.setattr(stability, "_singular_extremes", solved)
    path = tmp_path / "t.json"
    path.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()))
    err = _assert_rejects(["invdecay", "--matrix", str(path), f"--margin={bad}"],
                          tmp_path, capsys)
    assert "margin" in err["message"]


def test_cli_invdecay_rejects_negative_margin(tmp_path, capsys, monkeypatch):
    # a negative margin exited 0 and fitted the margin-0 rows under its name
    from locop import stability

    def solved(*args):
        raise AssertionError("the matrix was solved before the margin was checked")

    monkeypatch.setattr(stability, "_singular_extremes", solved)
    path = tmp_path / "t.json"
    path.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()))
    err = _assert_rejects(["invdecay", "--matrix", str(path), "--margin=-0.5"],
                          tmp_path, capsys)
    assert "non-negative" in err["message"]


@pytest.mark.parametrize("analysis,flag,value", [
    ("norms", "alpha", "-inf"),
    ("invdecay", "margin", "-inf"),
    ("invdecay", "margin", "-1"),
], ids=["alpha-inf", "margin-inf", "margin-1"])
def test_cli_flag_value_may_start_with_dash(tmp_path, capsys, analysis, flag, value):
    # `--alpha -inf` was read as a second flag ("expected one argument");
    # the space form must give the `=` form's error
    path = tmp_path / "t.json"
    path.write_bytes(dump_json_bytes(
        corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict()))
    base = [analysis, "--matrix", str(path)]
    joined = _assert_rejects(base + [f"--{flag}={value}"], tmp_path, capsys)
    spaced = _assert_rejects(base + [f"--{flag}", value], tmp_path, capsys)
    assert spaced == joined and flag in spaced["message"]


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


def _json_leaves(obj, path=()):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _json_leaves(value, path + (i,))
    else:
        yield path, obj


_FUZZ_INPUTS = {
    "stab": (corpus.toeplitz_matrix([1.0, 3.0, 1.0], 8).to_json_dict(),
             ["stab", "--matrix", "{}", "--p", "2", "--windows", "8"]),
    "synth": (corpus.hat_family(8).to_json_dict(),
              ["synth", "--family", "{}", "--p", "2", "--n0", "3", "--window", "8"]),
    "kernel": (corpus.gaussian_kernel_op(0.1, 1.0).to_json_dict(),
               ["kernel", "--kernel", "{}", "--p", "2", "--n", "3", "--window", "16"]),
}


# a `locop run` params key that the analysis has no flag for (each is the
# other analyses' spelling of the window flag)
_UNKNOWN_KEYS = {"stab": "window", "synth": "windows", "kernel": "windows"}


def _fuzz_cases():
    """(input, path, replacement) for every scalar field of the inputs above
    and every replacement that makes the field invalid; a path of None runs
    the analysis through a config with the replacement as an unknown key."""
    cases = [(name, None, key) for name, key in _UNKNOWN_KEYS.items()]
    for name, (obj, _) in _FUZZ_INPUTS.items():
        for path, value in _json_leaves(obj):
            bad = [float("nan"), float("inf"), "x", None, [1]]
            if isinstance(value, int):
                bad.append(value + 0.5)   # a fractional index or dimension
            cases += [(name, path, b) for b in bad]
    return cases


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_fuzz_cases()))
# fields whose loaders truncated, overflowed or flattened before
@example(("stab", ("rows", "dim"), 1.5))
@example(("synth", ("index", "dim"), float("inf")))
@example(("synth", ("envelope", "coeffs", 1, 0), [1]))
# config keys that were ignored, with exit 0
@example(("stab", None, "window"))
@example(("synth", None, "windows"))
@example(("kernel", None, "windows"))
def test_cli_rejects_every_mutated_input_field(capsys, case):
    name, path, bad = case
    obj, argv = _FUZZ_INPUTS[name]
    obj = copy.deepcopy(obj)
    if path is not None:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.json"
        src.write_text(json.dumps(obj))   # writes NaN / Infinity literals
        out = str(Path(tmp) / "report.json")
        argv = [a.format(src) for a in argv]
        if path is None:
            params = dict(zip((flag[2:] for flag in argv[1::2]), argv[2::2]))
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"analysis": name, "out": out,
                                       "params": {**params, bad: "8"}}))
            argv = ["run", "--config", str(cfg)]
        else:
            argv = argv + ["--out", out]
        inputs = sorted(f.name for f in Path(tmp).iterdir())
        rc = cli.main(argv)
        assert sorted(f.name for f in Path(tmp).iterdir()) == inputs
    captured = capsys.readouterr()
    assert rc == 2, case
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "error" in json.loads(captured.err)


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


SCHEMA_PATH = Path(reporting.__file__).resolve().parent / "schemas" / "report.schema.json"
_DROP = object()


def _envelope_case(name, **changes):
    return pytest.param(changes, id=name)


_ENVELOPE_CASES = [
    _envelope_case("valid"),
    *(_envelope_case(f"missing-{key}", **{key: _DROP})
      for key in ("analysis", "version", "params", "seed", "entries", "verdicts", "meta")),
    _envelope_case("extra-key", extra=1),
    _envelope_case("analysis-foo", analysis="foo"),
    _envelope_case("version-2", version=2),
    _envelope_case("version-1.0", version=1.0),
    _envelope_case("version-true", version=True),
    _envelope_case("seed-none", seed=None),
    _envelope_case("seed-7", seed=7),
    _envelope_case("seed-2**60", seed=2**60),
    _envelope_case("seed-1.0", seed=1.0),
    _envelope_case("seed-true", seed=True),
    _envelope_case("seed-str", seed="7"),
    _envelope_case("params-list", params=[]),
    _envelope_case("meta-null", meta=None),
    _envelope_case("entries-object", entries={}),
    _envelope_case("entries-of-number", entries=[1]),
    _envelope_case("verdict-null", verdicts={"x": None}),
    _envelope_case("verdict-list", verdicts={"x": []}),
    _envelope_case("verdict-nan", verdicts={"x": float("nan")}),
]


@pytest.mark.parametrize("changes", _ENVELOPE_CASES)
def test_validate_report_agrees_with_jsonschema(changes):
    # validate_report checks the schema's rules without a schema engine;
    # jsonschema's verdict on the published schema is the reference
    import jsonschema

    report = reporting.build_report(
        "stab", {"p": [2.0]}, 3, [{"window": 8}],
        {"2": "stabilized", "consistent": True, "n": 2, "rate": 0.5}, {"k": [1]})
    for key, value in changes.items():
        if value is _DROP:
            del report[key]
        else:
            report[key] = value
    schema = json.loads(SCHEMA_PATH.read_text())
    if jsonschema.Draft7Validator(schema).is_valid(report):
        validate_report(report)
    else:
        with pytest.raises(InvariantViolation, match="^report fails schema: "):
            validate_report(report)


def test_analysis_names_match_schema_and_cli():
    enum = json.loads(SCHEMA_PATH.read_text())["properties"]["analysis"]["enum"]
    assert list(reporting.ANALYSES) == enum == list(cli._ANALYSES)


def test_cli_rejects_a_bad_envelope_before_writing(tmp_path, capsys, monkeypatch):
    def with_extra_key(*args, **kwargs):
        return {**reporting.build_report(*args, **kwargs), "extra": 1}

    monkeypatch.setattr(cli, "build_report", with_extra_key)
    seq = tmp_path / "seq.csv"
    seq.write_text("1\n3\n1\n")
    out = tmp_path / "conv.json"
    assert cli.main(["conv", "--seq", str(seq), "--out", str(out)]) == 2
    assert not out.exists()
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"].startswith("report fails schema: ")


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


def test_cli_norms_and_invdecay_on_a_3d_lattice(tmp_path, capsys, stencil_3d):
    # both exited 2 while offset cells were packed into 21-bit keys (d <= 2)
    path = tmp_path / "stencil.json"
    path.write_bytes(dump_json_bytes(stencil_3d.to_json_dict()))
    assert cli.main(["norms", "--matrix", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {e["norm"]: e["value"] for e in report["entries"]}["sjostrand"] == 14.0
    out = tmp_path / "inv.json"
    assert cli.main(["invdecay", "--matrix", str(path), "--margin", "1",
                     "--out", str(out)]) == 0
    assert _load_report(out)["entries"][0]["usable_offsets"] == 1000
    rows = list(csv.reader(io.StringIO((tmp_path / "inv.csv").read_text())))
    assert rows[0] == ["k_1", "k_2", "k_3", "sup_value"] and len(rows) == 1001


def test_cli_synth_checks_the_modulus_at_n0_7(tmp_path, capsys):
    # the table modulus holds down to 1/64 but is 1e-9 at 1/128; n0 = 7 read
    # it unchecked and reported a bias bound of 4e-9
    obj = corpus.hat_family(8).to_json_dict()
    obj["modulus"] = {"form": "table",
                      "entries": [[2.0 ** -k, 2.0 ** (1 - k)] for k in range(1, 7)]
                      + [[2.0 ** -7, 1e-9]]}
    path = tmp_path / "fam.json"
    path.write_bytes(dump_json_bytes(obj))
    argv = ["synth", "--family", str(path), "--p", "2", "--window", "8"]
    err = _assert_rejects(argv + ["--n0", "6,7"], tmp_path, capsys)
    assert "delta=0.0078125" in err["message"]
    assert cli.main(argv + ["--n0", "5,6"]) == 0


# every flag of every analysis, on small inputs; "{name}" is an input file
_EVERY_FLAG = {
    "norms": ["--matrix", "{t131}", "--alpha", "2"],
    "stab": ["--matrix", "{t131}", "--p", "1,2", "--windows", "8,16", "--seed", "3"],
    "equiv": ["--matrix", "{t131}", "--p", "2,inf", "--windows", "8,16",
              "--seed", "3"],
    "conv": ["--seq", "{taps}", "--grid", "512"],
    "invdecay": ["--matrix", "{t131}", "--margin", "2"],
    "density": ["--rows", "{rows}", "--cols", "{rows}", "--r0", "2",
                "--boxes", "{boxes}"],
    "synth": ["--family", "{hat}", "--p", "2", "--n0", "3", "--window", "8",
              "--seed", "3"],
    "kernel": ["--kernel", "{kernel}", "--p", "2", "--n", "3", "--window", "16",
               "--seed", "3"],
}


@pytest.mark.parametrize("analysis", sorted(_EVERY_FLAG))
def test_cli_run_config_matches_flag_invocation(tmp_path, t131_file, gaussian_op,
                                                analysis):
    from locop.lattice import IndexSet

    inputs = {"t131": t131_file, "taps": tmp_path / "taps.csv",
              "rows": tmp_path / "rows.json", "boxes": tmp_path / "boxes.json",
              "hat": tmp_path / "hat.json", "kernel": tmp_path / "kernel.json"}
    inputs["taps"].write_text("1\n3\n1\n")
    inputs["rows"].write_bytes(dump_json_bytes(
        IndexSet.integer_range(0, 20).to_json_dict()))
    inputs["boxes"].write_text("[[2, 5], [10, 12]]\n")
    inputs["hat"].write_bytes(dump_json_bytes(corpus.hat_family(16).to_json_dict()))
    inputs["kernel"].write_bytes(dump_json_bytes(gaussian_op.to_json_dict()))
    argv = [a.format(**inputs) for a in _EVERY_FLAG[analysis]]
    assert set(argv[::2]) == {f"--{name}" for name, _, _ in cli._ANALYSES[analysis][2]}
    flag_dir, cfg_dir = tmp_path / "flags", tmp_path / "config"
    flag_dir.mkdir()
    cfg_dir.mkdir()
    assert cli.main([analysis] + argv + ["--out", str(flag_dir / "r.json")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(dump_json_bytes({
        "analysis": analysis,
        "params": dict(zip((flag[2:] for flag in argv[::2]), argv[1::2])),
        "out": str(cfg_dir / "r.json"),
    }))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    written = sorted(f.name for f in flag_dir.iterdir())
    assert written == sorted(f.name for f in cfg_dir.iterdir())
    for name in written:
        assert (flag_dir / name).read_bytes() == (cfg_dir / name).read_bytes()


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


# ----------------------------------------------------------------------
# integers a user supplies are never truncated


def _assert_rejects_fraction(rc, capsys, *outputs):
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "InvariantViolation"
    assert "is not an integer" in err["message"]
    for path in outputs:
        assert not path.exists()


@pytest.mark.parametrize("analysis,params", [
    ("stab", {"p": "2", "windows": [8.7, 16.2]}),
    ("synth", {"p": "2", "n0": [3.9], "window": [8]}),
    ("conv", {"grid": 4096.9}),
    ("stab", {"p": "2", "windows": [8, 16], "seed": 1.5}),
], ids=["windows", "n0", "grid", "seed"])
def test_cli_run_config_rejects_fractional_integers(tmp_path, capsys, t131_file,
                                                    analysis, params):
    inputs = {"stab": {"matrix": str(t131_file)},
              "conv": {"seq": str(tmp_path / "taps.csv")}}
    (tmp_path / "taps.csv").write_text("1\n3\n1\n")
    if analysis == "synth":
        fam = tmp_path / "fam.json"
        fam.write_bytes(dump_json_bytes(corpus.hat_family(8).to_json_dict()))
        inputs["synth"] = {"family": str(fam)}
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(dump_json_bytes({"analysis": analysis,
                                     "params": {**inputs[analysis], **params},
                                     "out": str(out)}))
    _assert_rejects_fraction(cli.main(["run", "--config", str(cfg)]), capsys, out)


def test_cli_run_config_rejects_fractional_top_level_seed(tmp_path, capsys, t131_file):
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(dump_json_bytes({
        "analysis": "stab", "seed": 1.5, "out": str(out),
        "params": {"matrix": str(t131_file), "p": "2", "windows": "8,16"}}))
    _assert_rejects_fraction(cli.main(["run", "--config", str(cfg)]), capsys, out)


@pytest.mark.parametrize("spec", [
    {"seed": 5.7, "items": SPEC["items"]},
    {"window": 16.9, "items": SPEC["items"]},
    {"items": [{"name": "b", "family": "banded_random", "params": {"band": 1.5}}]},
    {"items": [{"name": "g", "family": "gabor_gram", "params": {"time_count": 4.5}}]},
    {"items": [{"name": "s", "family": "slanted",
                "params": {"alpha": 2, "taps": [[0.5, 1.0]]}}]},
], ids=["seed", "window", "band", "time_count", "tap_offset"])
def test_cli_gen_rejects_fractional_integers(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_bytes(dump_json_bytes(spec))
    out = tmp_path / "c"
    rc = cli.main(["gen", "--spec", str(path), "--out", str(out)])
    _assert_rejects_fraction(rc, capsys, out / "manifest.json")


@pytest.mark.parametrize("argv", [
    ["conv", "--seq", "{taps}", "--grid", "4096.5"],
    ["stab", "--matrix", "{matrix}", "--p", "2", "--windows", "8", "--seed", "1.5"],
], ids=["grid", "seed"])
def test_cli_flags_reject_fractional_integers(tmp_path, capsys, t131_file, argv):
    # argparse's own int conversion printed usage text instead of a JSON error
    taps = tmp_path / "taps.csv"
    taps.write_text("1\n3\n1\n")
    out = tmp_path / "out.json"
    argv = [a.format(taps=taps, matrix=t131_file) for a in argv]
    _assert_rejects_fraction(cli.main(argv + ["--out", str(out)]), capsys, out)


@pytest.mark.parametrize("analysis,params,key", [
    ("norms", {"alpah": 1}, "alpah"),
    ("stab", {"p": "2", "windows": "8,16", "sed": 3}, "sed"),
    ("conv", {"gird": 4096}, "gird"),
], ids=["alpah", "sed", "gird"])
def test_cli_run_config_rejects_unknown_keys(tmp_path, capsys, t131_file,
                                             analysis, params, key):
    # these ran with exit 0: without the slant norm, with seed null, and on
    # the default grid
    (tmp_path / "taps.csv").write_text("1\n3\n1\n")
    inputs = {"norms": {"matrix": str(t131_file)}, "stab": {"matrix": str(t131_file)},
              "conv": {"seq": str(tmp_path / "taps.csv")}}
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(dump_json_bytes({"analysis": analysis,
                                     "params": {**inputs[analysis], **params},
                                     "out": str(out)}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ValueError"
    assert f"{analysis} has no parameter {key!r}" in err["message"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    [],
    ["stab", "--p", "2", "--windows", "8"],
    ["norms", "--matrix", "m.json", "--alhpa", "1"],
    ["frobnicate"],
    ["norms", "--matrix", "--alpha", "1"],
], ids=["no-command", "missing-flag", "unknown-flag", "unknown-command",
        "flag-without-value"])
def test_cli_flag_errors_are_json(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


def test_cli_conv_rejects_fractional_offset(tmp_path, capsys):
    # '0.5,3' used to become offset 0 and certify a different filter stable
    seq = tmp_path / "seq.csv"
    seq.write_text("-1,1\n0.5,3\n1,1\n")
    out = tmp_path / "conv.json"
    rc = cli.main(["conv", "--seq", str(seq), "--out", str(out)])
    _assert_rejects_fraction(rc, capsys, out)


def test_cli_oo_and_inf_exponents_write_identical_reports(tmp_path, t131_file):
    outs = []
    for tok in ("oo", "inf"):
        out = tmp_path / f"stab_{tok}.json"
        assert cli.main(["stab", "--matrix", str(t131_file), "--p", f"2,{tok}",
                         "--windows", "8,16", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["params"]["p"] == ["2", "inf"]


def test_cli_run_config_rejects_unknown_top_level_key(tmp_path, capsys, t131_file):
    # a misspelt "out" printed the report on stdout with exit 0 and wrote no file
    out = tmp_path / "r.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(dump_json_bytes({
        "analysis": "stab", "ouput": str(out),
        "params": {"matrix": str(t131_file), "p": "2", "windows": "8,16"}}))
    assert cli.main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ValueError" and "'ouput'" in err["message"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("analysis", ["stab", "equiv"])
@pytest.mark.parametrize("p", ["2,2", "2,2.0", "1,inf,oo"])
@pytest.mark.parametrize("via", ["flags", "config"])
def test_cli_rejects_repeated_exponents(tmp_path, capsys, t131_file, analysis, p,
                                        via):
    # stab --p 2,2,2.0 recorded p ["2", "2", "2"] next to a single ladder
    out = tmp_path / "out.json"
    if via == "flags":
        rc = cli.main([analysis, "--matrix", str(t131_file), "--p", p,
                       "--windows", "8,16", "--out", str(out)])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(dump_json_bytes({
            "analysis": analysis, "out": str(out),
            "params": {"matrix": str(t131_file), "p": p.split(","),
                       "windows": [8, 16]}}))
        rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and "repeats" in err["message"]
    assert not out.exists()


def test_integer_field_is_exact_above_two_to_the_53():
    big = 2 ** 53 + 1
    assert integer_field(big, "n") == big
    assert integer_field(str(big), "n") == big
    assert integer_field("-7", "n") == -7 and integer_field("16.0", "n") == 16
    for bad in ("1.5", "nan", "inf", 1.5, float("inf")):
        with pytest.raises(InvariantViolation):
            integer_field(bad, "n")
    for bad in (None, [1]):
        with pytest.raises(TypeError):
            integer_field(bad, "n")


@pytest.mark.parametrize("via", ["flags", "config"])
def test_cli_seed_above_two_to_the_53_is_recorded_exactly(tmp_path, t131_file, via):
    # the seed went through float and was recorded as 9007199254740992
    seed = 9007199254740993
    out = tmp_path / "out.json"
    params = {"matrix": str(t131_file), "p": "2", "windows": "8,16"}
    if via == "flags":
        rc = cli.main(["stab", "--matrix", params["matrix"], "--p", "2",
                       "--windows", "8,16", "--seed", str(seed), "--out", str(out)])
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(dump_json_bytes({"analysis": "stab", "params": params,
                                         "seed": seed, "out": str(out)}))
        rc = cli.main(["run", "--config", str(cfg)])
    assert rc == 0
    assert _load_report(out)["seed"] == seed
