"""The tracer reports a wrapped name that no longer exists as absent."""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spans  # noqa: E402
import workloads  # noqa: E402


def test_missing_target_is_absent(monkeypatch, tmp_path):
    targets = [t for t in spans.TARGETS if t[0] != "kernels"]
    targets.append(("kernels", "simcurv._kernels", "removed_count_kernel", "span"))
    monkeypatch.setattr(spans, "TARGETS", targets)
    setup, run_pass = workloads.WORKLOADS["mc_gauss_bonnet"]
    state = setup(0, SimpleNamespace(samples=1000, threads=2, depth=1, work_dir=str(tmp_path)))

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(0)
        result = run_pass(state)
        tracer.end_pass()
    finally:
        tracer.uninstall()

    assert all(ok for _, ok in result.checks)
    assert tracer.absent == ["simcurv._kernels.removed_count_kernel"]
    assert tracer.absent_layers() == ["kernels"]
    metrics = spans.pass_metrics(tracer, spans.self_times(tracer.spans), 0)
    assert metrics["kernels.count_s"] == 0 and metrics["kernels.rows"] == 0
    assert metrics["geometry.angles_mc"] > 0
