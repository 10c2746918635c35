"""The benchmark's workloads at smoke scale, through the command line.

Each workload's inputs are built with the benchmark's own builders, every
analysis runs through ``cli.main`` as the benchmark runs it, and the
benchmark's checker validates every report and compares every lower
constant that has an exact reference.  A change that breaks a workload
then fails here, before any benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import locop
from locop import cli

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
