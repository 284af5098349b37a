"""Benchmark of simcurv: Monte Carlo theorem checks and an exact CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_sommerville --seed 1 --seconds 20 --trace 0

Workloads: mc_sommerville, mc_gauss_bonnet, exact_refine (see README.md).
The load is one closed-loop process: each pass starts when the previous one
ends, until ``--seconds`` have passed (at least two passes, so determinism
can be checked).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs untraced for half the time, then traced for the other half, and
reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are for people.  A result file (and, when traced, the spans) is written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# MC samples per angle, chosen so MC angles are >= 90% of a pass on both mc_*
# workloads; exact_refine draws none, and passes the value only to the CLI
SAMPLES = {"mc_sommerville": 50_000, "mc_gauss_bonnet": 200_000, "exact_refine": 20_000}
SETUP_RUNS = 9  # setup_s is the median over this many fresh processes
SIGMA_FLOOR = 1e-9  # the package's verdict tolerance for exact residuals
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ASC_CURV_THREADS", "SIMCURV_BACKEND")

# units of the counts that must repeat exactly from pass to pass at one seed
COUNT_UNITS = ("count", "B")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units by name, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, help="MC samples per angle (default: per workload)")
    parser.add_argument(
        "--depth", type=int, default=2, help="exact_refine: barycentric subdivisions of the input"
    )
    parser.add_argument("--out-dir", default=str(HERE / "out"))
    parser.add_argument("--setup-runs", type=int, default=SETUP_RUNS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.samples is None:
        args.samples = SAMPLES.get(args.workload, 0)
    return args


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workloads) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": workloads.backend(),
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "git_commit": git_commit(),
    }


def options(args, work_dir: str) -> SimpleNamespace:
    return SimpleNamespace(samples=args.samples, threads=nproc(), depth=args.depth, work_dir=work_dir)


def setup_only(args) -> int:
    """Child process: import, build the inputs, say so, clean up."""
    import workloads

    setup, _ = workloads.WORKLOADS[args.workload]
    work_dir = tempfile.mkdtemp(prefix="setup-", dir=args.out_dir)
    try:
        setup(args.seed, options(args, work_dir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from process start to inputs ready, in fresh processes."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--samples", str(args.samples), "--depth", str(args.depth), "--out-dir", args.out_dir,
    ]
    times = []
    for _ in range(args.setup_runs):
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
        times.append(elapsed)
    return times


def cpu_steal_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, where Linux reports them."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = [int(x) for x in stream.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def cpu_steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to others between two readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


class Tally:
    """Checks attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def run_phase(run_pass, state, seconds, min_passes, tally, reference, tracer=None, first_id=0):
    """Closed loop of passes; returns the pass durations.

    The first pass of the run is kept in ``reference``; every later pass
    must repeat its values exactly.
    """
    durations = []
    start = time.perf_counter()
    while len(durations) < min_passes or time.perf_counter() - start < seconds:
        pass_id = first_id + len(durations)
        if tracer is not None:
            tracer.begin_pass(pass_id)
        t0 = time.perf_counter()
        try:
            result = run_pass(state)
        except Exception:  # a crash is a failed check, reported with its traceback
            traceback.print_exc()
            tally.add(f"pass {pass_id} raised", False)
            break
        finally:
            if tracer is not None:
                tracer.end_pass()
        durations.append(time.perf_counter() - t0)
        for name, ok in result.checks:
            tally.add(name, ok)
        if not reference:
            reference.append(result)
        else:
            same = result.values == reference[0].values and result.stdout_bytes == reference[0].stdout_bytes
            tally.add(f"pass {pass_id} repeats pass 0", same)
    return durations


def layer_metrics(tracer, selfs, n_passes, first_id, units, tally) -> dict[str, float]:
    import spans

    per_pass = [spans.pass_metrics(tracer, selfs, first_id + k) for k in range(n_passes)]
    metrics = {}
    for name in per_pass[0]:
        if units.get(name) in COUNT_UNITS:
            for k, m in enumerate(per_pass[1:], 1):
                tally.add(f"{name} repeats in traced pass {k}", m[name] == per_pass[0][name])
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median(m[name] for m in per_pass)
    return metrics


def write_spans(tracer, selfs, path: Path) -> None:
    import spans

    fields = ("name", "layer", "start", "end", "parent", "pass")
    records = [
        {**dict(zip(fields, s[:6])), "self": selfs[i], "attrs": s[spans.ATTRS]}
        for i, s in enumerate(tracer.spans)
    ]
    path.write_text(json.dumps({"absent": tracer.absent, "spans": records}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simcurv" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC.name}/simcurv", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.makedirs(args.out_dir, exist_ok=True)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    end_to_end, per_layer = declared_metrics()
    setup_times = measure_setup(args)
    setup, run_pass = workloads.WORKLOADS[args.workload]
    work_dir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    tally = Tally()
    reference: list = []
    steal = cpu_steal_ticks()
    try:
        state = setup(args.seed, options(args, work_dir))
        if args.trace:
            import spans

            half = args.seconds / 2
            durations = run_phase(run_pass, state, half, 1, tally, reference)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_phase(
                    run_pass, state, half, 2, tally, reference, tracer, first_id=len(durations)
                )
            finally:
                tracer.uninstall()
        else:
            durations = run_phase(run_pass, state, args.seconds, 2, tally, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    steal = cpu_steal_share(steal, cpu_steal_ticks())

    wall = statistics.median(durations) if durations else 0.0
    sigmas = reference[0].sigmas if reference else []
    mean_sq = statistics.fmean(max(s, SIGMA_FLOOR) ** 2 for s in sigmas) if sigmas else SIGMA_FLOOR**2
    summary = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cost_s_sigma2": wall * mean_sq,
        "max_sigma": max(sigmas, default=0.0),
        "fail_ratio": len(tally.failed) / max(tally.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        metrics = {}
        selfs = spans.self_times(tracer.spans)
        if traced:
            metrics = layer_metrics(tracer, selfs, len(traced), len(durations), per_layer, tally)
            metrics["cli.stdout_bytes"] = reference[0].stdout_bytes
            metrics["trace.overhead_s"] = statistics.median(traced) - wall
        metrics["checks.max_sigma"] = summary["max_sigma"]
        metrics["trace.absent_targets"] = len(tracer.absent)
        units = per_layer
    else:
        metrics = {name: summary[name] for name in end_to_end}
        units = end_to_end

    env = environment(workloads)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = Path(args.out_dir)
    if args.trace:
        write_spans(tracer, selfs, out / f"spans-{stem}.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": args.samples,
        "passes": len(durations),
        "pass_s": durations,
        "setup_runs_s": setup_times,
        "summary": summary,
        "metrics": metrics,
        "failed_checks": tally.failed,
        "environment": env,
        "cpu_steal_share": steal,
    }
    if args.trace:
        record["traced_pass_s"] = traced
        record["absent"] = tracer.absent
        record["absent_layers"] = tracer.absent_layers()
    (out / f"result-{stem}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  samples/angle {args.samples}  "
          f"passes {len(durations)}" + (f" + {len(traced)} traced" if args.trace else ""))
    print(f"environment {json.dumps(env)}  cpu_steal_share {steal}")
    for name, value in summary.items():
        unit = end_to_end.get(name, "ratio" if name == "fail_ratio" else "1")
        print(f"  {name:<16} {value:.6g} {unit}")
    if args.trace:
        for layer in tracer.absent_layers():
            print(f"  layer {layer}: absent")
        for name, unit in per_layer.items():
            print(f"  {name:<30} {metrics.get(name, 0):.6g} {unit}")
    for name in tally.failed[:20]:
        print(f"  FAILED {name}")

    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
