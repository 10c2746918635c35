import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import locop


def _loaded_by_cold_import(module: str) -> bool:
    src = str(Path(locop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = f"import sys, locop; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_cold_import_does_not_load_scipy_signal():
    # scipy.signal pulls in scipy.stats and costs about 0.6 s of every cold
    # start; the one convolution that needs an FFT uses scipy.fft instead
    assert not _loaded_by_cold_import("scipy.signal")


def test_cold_import_does_not_load_scipy_sparse_csgraph():
    # only the Jordan-Wielandt ordering and structurally singular LUs need
    # it, so both import it where they use it
    assert not _loaded_by_cold_import("scipy.sparse.csgraph")


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
