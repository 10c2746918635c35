"""The benchmark's workloads at smoke scale, through the command line.

Each workload's inputs are built with the benchmark's own builders, every
analysis runs through ``cli.main`` as the benchmark runs it, and the
benchmark's checker validates every report and compares every lower
constant that has an exact reference.  A change that breaks a workload
then fails here, before any benchmark run.
"""

import importlib.util
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import locop
from locop import cli, reporting
from locop.kernelop import PerturbedEntry
from locop.stability import (DensityVerdict, InverseDecayResult, LadderEntry,
                             SymbolCertificate)
from locop.synthesis import SynthesisEntry

PERFBENCH = Path(locop.__file__).resolve().parents[2] / "perfbench"
SCHEMA = Path(locop.__file__).resolve().parent / "schemas" / "report.schema.json"
SEED = 20240817


def _load(name: str):
    # registered under its name while it runs: dataclasses look their
    # module up in sys.modules
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    yield _load("workloads"), _load("check")
    for name in ("workloads", "check"):
        sys.modules.pop(f"perfbench_{name}", None)


@pytest.mark.parametrize("workload", ["ladder", "kernel", "synth"])
def test_workload_runs_and_checks_at_tiny_scale(workload, perfbench, tmp_path,
                                                monkeypatch, capsys):
    workloads, check = perfbench
    workloads.build_inputs(workload, SEED, "tiny", tmp_path)
    monkeypatch.chdir(tmp_path)
    names = []
    for name, argv in workloads.analyses(workload, "tiny"):
        assert cli.main(argv) == 0, (name, capsys.readouterr().err)
        names.append(name)
    outcome = check.check_reports(tmp_path, names, SCHEMA)
    assert outcome.failures == {}
    assert outcome.entries, "no lower constant was compared with a reference"


def _field_names(record) -> set:
    return {f.name for f in fields(record)}


def test_every_report_entry_holds_its_records_fields(perfbench, tmp_path,
                                                     monkeypatch, capsys):
    # the runners copy no field list by hand: each entry's keys are its
    # record's field names, with the exponent on ladder entries and
    # without the inverse's offset profile, which goes to the CSV; norms
    # entries name a norm and come from no record
    workloads, _ = perfbench
    ladder = _field_names(LadderEntry) | {"p"}
    keys = {"stab": ladder, "equiv": ladder,
            "conv": _field_names(SymbolCertificate),
            "invdecay": _field_names(InverseDecayResult) - {"profile"},
            "density": _field_names(DensityVerdict),
            "synth": _field_names(SynthesisEntry),
            "kernel": _field_names(PerturbedEntry)}
    seen = set()
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        workloads.build_inputs(workload, SEED, "tiny", workdir)
        monkeypatch.chdir(workdir)
        for name, argv in workloads.analyses(workload, "tiny"):
            assert cli.main(argv) == 0, (name, capsys.readouterr().err)
            report = json.loads((workdir / "out" / f"{name}.json").read_bytes())
            seen.add(report["analysis"])
            if report["analysis"] != "norms":
                assert report["entries"], name
                for entry in report["entries"]:
                    assert set(entry) == keys[report["analysis"]], name
    assert seen == set(reporting.ANALYSES)
