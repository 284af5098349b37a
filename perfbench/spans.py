"""Span tracing of simcurv from outside the package.

The tracer wraps public functions and methods of the package modules with
thin timing wrappers, so a traced run records one span per wrapped call:
name, layer, start, end, parent span and pass id.  Nothing under ``src/``
changes; untraced runs import the package untouched.

A wrapped function is replaced in every loaded ``simcurv`` module that holds
a reference to it, because modules bind names at import time
(``from simcurv._kernels import count_cone_hits``).  A target that no longer
exists is recorded as absent and skipped.

Spans opened by worker threads with nothing open on their own stack attach
to the innermost open ``AngleCache.fill`` span, which is the call that
started those threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

# (layer, module, qualified attribute, kind).  kind "span" records a span per
# call; "lookup" only counts calls (AngleCache.angle runs once per form term,
# far too often for a span each).
TARGETS = [
    ("kernels", "simcurv._kernels", "count_cone_hits", "span"),
    ("geometry", "simcurv.geometry", "solid_angle", "span"),
    ("geometry", "simcurv.geometry", "projected_cone_generators", "span"),
    ("geometry", "simcurv.geometry", "sommerville_residuals", "span"),
    ("geometry", "simcurv.geometry", "AngleCache.fill", "span"),
    ("geometry", "simcurv.geometry", "AngleCache.angle", "lookup"),
    ("geometry", "simcurv.geometry", "EmbeddedComplex.__init__", "span"),
    ("complexes", "simcurv.complexes", "SimplicialComplex.__init__", "span"),
    ("complexes", "simcurv.complexes", "SimplicialComplex.star", "span"),
    ("complexes", "simcurv.complexes", "SimplicialComplex.link", "span"),
    ("stratification", "simcurv.stratification", "stratify", "span"),
    ("subdivision", "simcurv.subdivision", "barycentric_subdivide", "span"),
    ("subdivision", "simcurv.subdivision", "compute_carriers", "span"),
    ("subdivision", "simcurv.subdivision", "locate_point", "span"),
    ("curvature", "simcurv.curvature", "gauss_bonnet_check", "span"),
    ("curvature", "simcurv.curvature", "vanishing_check", "span"),
    ("curvature", "simcurv.curvature", "subdivision_relation_check", "span"),
    ("curvature", "simcurv.curvature", "generalized_angle_defect", "span"),
    ("curvature", "simcurv.curvature", "stratified_curvature_at_vertex", "span"),
    ("curvature", "simcurv.curvature", "ascending_stratified_curvature", "span"),
    ("io", "simcurv.io", "load_complex", "span"),
    ("io", "simcurv.io", "dump_complex", "span"),
    ("cli", "simcurv.cli", "main", "span"),
]

LAYERS = [
    "kernels",
    "geometry",
    "complexes",
    "stratification",
    "subdivision",
    "curvature",
    "io",
    "cli",
]

ROOT = "pass"

# span record fields
NAME, LAYER, START, END, PARENT, PASS, ATTRS = range(7)


def _solid_angle_attrs(args, kwargs, result):
    eta, sigma = args[0], args[1]
    return {
        "codim": len(set(sigma)) - len(set(eta)),
        "mc": result.method != "exact",
        "samples": result.samples,
        "std_error": result.std_error,
    }


def _count_attrs(args, kwargs, result):
    samples, solve_t = args[0], args[1]
    return {"rows": samples.shape[0], "cols": samples.shape[1], "solver_bytes": solve_t.nbytes}


def _stratify_attrs(args, kwargs, result):
    return {"tiers": dict(Counter(info.tier for info in result.info.values()))}


ATTR_HOOKS = {
    "solid_angle": _solid_angle_attrs,
    "count_cone_hits": _count_attrs,
    "stratify": _stratify_attrs,
}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.lookups: dict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fills: list[int] = []
        self._root = -1
        self._pass = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._fills[-1] if self._fills else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self._pass, None])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._root = -1
        self._root = self._open(ROOT, "bench")

    def end_pass(self) -> None:
        self._close(self._root)
        self._root = -1

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        hook = ATTR_HOOKS.get(name.rsplit(".", 1)[-1])
        is_fill = name.endswith("AngleCache.fill")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name, layer)
            if is_fill:
                tracer._fills.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_fill:
                    tracer._fills.pop()
                tracer._close(index)
            if hook is not None:
                tracer.spans[index][ATTRS] = hook(args, kwargs, result)
            return result

        return wrapper

    def _lookup_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            inner = tracer.spans[stack[-1]][LAYER] if stack else ""
            counts = tracer.lookups[tracer._pass]
            with tracer._lock:
                counts["lookups"] += 1
                if inner == "curvature":
                    counts["curvature_lookups"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for layer, module_name, attr, kind in TARGETS:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                parts = attr.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            name = f"{module_name.rsplit('.', 1)[-1].lstrip('_')}.{attr}"
            if kind == "lookup":
                wrapper = self._lookup_wrapper(original)
            else:
                wrapper = self._span_wrapper(original, name, layer)
            if owner is module:
                # rebind every module-level alias of the function
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("simcurv"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, parts[-1], wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def absent_layers(self) -> list[str]:
        present = {layer for layer, module, attr, _ in TARGETS if f"{module}.{attr}" not in self.absent}
        return [layer for layer in LAYERS if layer not in present]


# -- analysis -----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - _covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def union_length(spans: list[list], indices) -> float:
    return _covered([(spans[i][START], spans[i][END]) for i in indices], float("-inf"), float("inf"))


def pass_metrics(tracer: Tracer, selfs: list[float], pass_id: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in seconds)."""
    spans = tracer.spans
    mine = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    by_name: dict[str, list[int]] = defaultdict(list)
    layer_self: Counter = Counter()
    root = None
    for i in mine:
        by_name[spans[i][NAME].split(".")[-1]].append(i)
        layer_self[spans[i][LAYER]] += selfs[i]
        if spans[i][NAME] == ROOT:
            root = i
    wall = spans[root][END] - spans[root][START]

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in by_name[name])

    def inside_fill(i: int) -> bool:
        while i >= 0:
            if spans[i][NAME].endswith("AngleCache.fill"):
                return True
            i = spans[i][PARENT]
        return False

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["bench.self_s"] = layer_self["bench"]

    counts = by_name["count_cone_hits"]
    rows = sum(spans[i][ATTRS]["rows"] for i in counts)
    m["kernels.count_s"] = total("count_cone_hits")
    m["kernels.rows"] = rows
    m["kernels.rows_per_s"] = rows / m["kernels.count_s"] if counts else 0.0
    # computed, not measured: the sample block is read and the (rows, c)
    # float64 product written once, plus the solver matrix
    m["kernels.bytes_computed"] = sum(
        2 * 8 * spans[i][ATTRS]["rows"] * spans[i][ATTRS]["cols"] + spans[i][ATTRS]["solver_bytes"]
        for i in counts
    )

    angles = by_name["solid_angle"]
    mc = [i for i in angles if spans[i][ATTRS]["mc"]]
    mc_time = sum(spans[i][END] - spans[i][START] for i in mc)
    m["geometry.sampling_s"] = sum(selfs[i] for i in mc)
    for c in (3, 4, 5):
        at_c = [i for i in mc if spans[i][ATTRS]["codim"] == c]
        durations = [spans[i][END] - spans[i][START] for i in at_c]
        m[f"geometry.mc_angle_ms_c{c}"] = 1e3 * sum(durations) / len(at_c) if at_c else 0.0
        m[f"geometry.s_sigma2_c{c}"] = (
            sum(d * spans[i][ATTRS]["std_error"] ** 2 for d, i in zip(durations, at_c)) / len(at_c)
            if at_c
            else 0.0
        )
    m["geometry.angles_mc"] = len(mc)
    m["geometry.angles_exact"] = len(angles) - len(mc)
    m["geometry.samples"] = sum(spans[i][ATTRS]["samples"] for i in mc)
    lookups = tracer.lookups[pass_id]["lookups"]
    m["geometry.cache_hit_ratio"] = max(0.0, 1.0 - len(angles) / lookups) if lookups else 0.0
    m["geometry.fill_s"] = total("fill")
    m["geometry.serial_mc_share"] = (
        sum(spans[i][END] - spans[i][START] for i in mc if not inside_fill(i)) / mc_time
        if mc
        else 0.0
    )
    m["geometry.projection_s"] = total("projected_cone_generators")
    m["geometry.mc_share"] = union_length(spans, mc) / wall

    m["complexes.star_calls"] = len(by_name["star"])
    m["complexes.star_s"] = total("star")
    m["complexes.link_calls"] = len(by_name["link"])
    m["complexes.link_s"] = total("link")
    builds = [i for i in mine if spans[i][NAME] == "complexes.SimplicialComplex.__init__"]
    m["complexes.build_calls"] = len(builds)
    m["complexes.build_s"] = sum(spans[i][END] - spans[i][START] for i in builds)

    tiers: Counter = Counter()
    for i in by_name["stratify"]:
        tiers.update(spans[i][ATTRS]["tiers"])
    m["stratification.stratify_s"] = total("stratify")
    for tier in ("exact", "heuristic", "fallback"):
        m[f"stratification.{tier}"] = tiers[tier]

    m["subdivision.subdivide_s"] = total("barycentric_subdivide")
    m["subdivision.carriers_s"] = total("compute_carriers")
    m["subdivision.locate_calls"] = len(by_name["locate_point"])

    m["curvature.form_pairs"] = tracer.lookups[pass_id]["curvature_lookups"]
    m["io.load_s"] = total("load_complex")
    m["io.dump_s"] = total("dump_complex")

    structure = ("subdivision", "complexes", "curvature", "cli", "io")
    m["pass.structure_share"] = sum(layer_self[layer] for layer in structure) / wall
    m["pass.traced_wall_s"] = wall
    m["trace.spans"] = len(mine)
    return m
