import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import simcurv
from simcurv import curvature


def test_all_names_resolve_and_are_sorted():
    for name in simcurv.__all__:
        assert hasattr(simcurv, name), name
    assert simcurv.__all__ == sorted(simcurv.__all__)


def test_all_exports_every_curvature_and_check():
    public = {
        name
        for name, obj in vars(curvature).items()
        if inspect.isfunction(obj)
        and obj.__module__ == curvature.__name__
        and not name.startswith("_")
        and (name.endswith("_check") or "curvature" in name or "defect" in name)
    }
    assert "curvature_table" in public
    assert public <= set(simcurv.__all__), public - set(simcurv.__all__)


def test_python_dash_m_runs_the_cli():
    src = Path(simcurv.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "simcurv", "sequence", "--up-to", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["a_0 = 1", "a_1 = 0", "a_2 = -1/2"]


def test_every_tracer_target_resolves():
    """Each function or method the benchmark's span tracer wraps still
    exists; a deletion that drops one blinds that part of the trace."""
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines TARGETS; wraps nothing until installed
    assert spans.TARGETS
    for _, module_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
