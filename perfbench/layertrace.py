"""Layer tracing installed from outside the program.

``install`` wraps the public functions of every spin7ac module (plus the few
private entry points the layer metrics name) and rebinds each wrapped name
in every spin7ac module that imported it by name, so calls such as
``pitheta.gl_inf_action`` or ``pitheta.build_projectors`` do not escape the
trace.  Nothing inside ``src/`` changes.

Each wrapped call is a span: name, start, end and the enclosing span.  Spans
stay in memory and are written out when the run ends.  Self time is a
span's duration minus the time its child spans cover.  The hottest leaves
(the ``Scalar`` arithmetic and comparison methods and the permutation-sign
helpers of ``forms``) run millions of times, so they are aggregated into
calls and time instead of being stored one by one; their time is still
subtracted from the enclosing span's self time.

Stdlib only: importing this module must not import numpy.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "scalars", "forms", "ratmat", "projectors", "pitheta",
    "linkexpr", "cones", "moduli", "homrep", "cli",
)

# Private entry points that layer metrics name.
_PRIVATE = {"projectors": ("_certify",), "pitheta": ("_tables",)}

_SCALAR_METHODS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "inverse", "__truediv__", "__rtruediv__", "__pow__",
    "sign", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)
_AGGREGATE_ONLY = {"forms.merge_sign", "forms.sort_with_sign"}

CONE_OPS = ("cones.cone_d", "cones.cone_star", "cones.cone_dstar", "cones.cone_laplacian")

# Per-layer metric -> the end-to-end metric and workload it should move,
# given the fixed operation mixes in worker.SCHEDULES and coldcli.SCHEDULE.
_BUILD = "op_p90_ms (heavy CLI calls) on cold-cli; setup_s on newton, exact-forms"
_NEWTON = "op_p50_ms, ops_per_s on newton"
_DECOMPOSE = "op_p90_ms on exact-forms (4-form decompositions hold the 90th percentile); about a fifth of ops_per_s"
_CONES = "op_p50_ms on symbolic (cone operators hold the median)"
_SYMBOLIC_TAIL = "op_p90_ms, ops_per_s on symbolic"
_MODULI = "small share of ops_per_s on symbolic"
_SCALARS = "ops_per_s on exact-forms, symbolic; no change expected on newton"
LAYER_TARGETS = {
    **dict.fromkeys(("ratmat.mat_mul_calls", "ratmat.mat_mul_s", "ratmat.certify_projector_s",
                     "ratmat.elimination_s", "ratmat.projector_onto_span_s",
                     "projectors.build_s", "projectors.certify_s"), _BUILD),
    **dict.fromkeys(("projectors.decompose_s", "projectors.apply_s"), _DECOMPOSE),
    **dict.fromkeys(("pitheta.split_s", "pitheta.compound4_calls", "pitheta.compound4_s",
                     "pitheta.matrix_exp_s", "pitheta.iterations_mean", "pitheta.backtracks"), _NEWTON),
    "pitheta.tables_s": "setup_s on newton",
    "forms.wedge_s": "op_p50_ms on exact-forms (wedges hold the median)",
    "forms.hodge_star_s": "small share of ops_per_s on exact-forms (below the median)",
    "forms.gl_inf_action_s": "setup_s on newton, exact-forms (the projector build); small share of ops_per_s on exact-forms",
    "forms.pullback_s": "ops_per_s on exact-forms (one pullback in 24 operations, about two thirds of the loop time)",
    **dict.fromkeys(("linkexpr.normalize_calls", "linkexpr.normalize_s", "linkexpr.apply_operator_s",
                     "cones.cone_op_s"), _CONES),
    "cones.classify_rate_s": _SYMBOLIC_TAIL + " (classify_rate holds the 90th percentile)",
    "homrep.enumerate_s": _SYMBOLIC_TAIL + " (most of the loop time); peak_rss_mb on symbolic",
    "homrep.records": _SYMBOLIC_TAIL + "; peak_rss_mb on symbolic",
    "homrep.pipeline_s": "small share of ops_per_s on symbolic",
    **dict.fromkeys(("moduli.dimension_s", "moduli.lambda_of_mu_s"), _MODULI),
    "cli.import_s": "op_p50_ms (light CLI calls) and setup_s on cold-cli",
    "cli.handler_s": "op_p90_ms (heavy CLI calls) on cold-cli",
    **dict.fromkeys(("scalars.calls", "scalars.self_s"), _SCALARS),
    "forms.calls": "op_p50_ms, ops_per_s on exact-forms",
    "trace.overhead_s": "none: traced minus untraced latencies of the same operations, set-up left out",
}
for _layer in LAYERS:
    LAYER_TARGETS.setdefault(f"{_layer}.self_s", "the layer's share of every workload it runs in")
    LAYER_TARGETS.setdefault(f"{_layer}.calls", "the layer's share of every workload it runs in")

COUNT_METRICS = {
    "ratmat.mat_mul_calls", "pitheta.compound4_calls", "pitheta.iterations_mean",
    "pitheta.backtracks", "forms.calls", "linkexpr.normalize_calls", "homrep.records",
} | {f"{layer}.calls" for layer in LAYERS}


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent id
        self.agg: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [child time, span id or -1]
        self._next_id = 0
        # Calls made while inactive (preparing inputs, checking outputs) are
        # passed straight through and not recorded.
        self.active = True

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0,))[0]

    def wrap(self, name: str, fn, record: bool = True):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[1] if parent else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if record:
                    spans.append((span_id, name, start, end, parent[1] if parent else -1))

        return traced

    def raw(self) -> dict:
        """Aggregates that sum across processes, plus span-derived sums."""
        names = {span_id: (name, parent) for span_id, name, _, _, parent in self.spans}

        def has_ancestor(parent: int, target: str) -> bool:
            while parent in names:
                name, parent = names[parent]
                if name == target:
                    return True
            return False

        derived = {"build_in_tables_s": 0.0, "cone_op_top_s": 0.0}
        for _, name, start, end, parent in self.spans:
            if name == "projectors.build_projectors" and has_ancestor(parent, "pitheta._tables"):
                derived["build_in_tables_s"] += end - start
            if name in CONE_OPS and not (parent in names and names[parent][0].startswith("cones.")):
                derived["cone_op_top_s"] += end - start
        return {"agg": self.agg, "counters": self.counters, "derived": derived}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps([span_id, name, start, end, parent]) + "\n")


def _is_own_function(obj, module_name: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)
    return inspect.isfunction(target) and target.__module__ == module_name


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and rebind them in every importer."""
    modules = {layer: sys.modules[f"spin7ac.{layer}"] for layer in LAYERS if f"spin7ac.{layer}" in sys.modules}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not _is_own_function(obj, module.__name__):
                continue
            private_ok = attr in _PRIVATE.get(layer, ()) or (layer == "cli" and attr.startswith("_cmd_"))
            if attr.startswith("_") and not private_ok:
                continue
            name = f"{layer}.{attr}"
            _rebind(obj, tracer.wrap(name, obj, record=name not in _AGGREGATE_ONLY))
    if "scalars" in modules:
        scalar = modules["scalars"].Scalar
        for method in _SCALAR_METHODS:
            setattr(scalar, method, tracer.wrap(f"scalars.Scalar.{method}", vars(scalar)[method], record=False))
    if "projectors" in modules:
        table = modules["projectors"].ProjectorTable
        table.apply = tracer.wrap("projectors.ProjectorTable.apply", vars(table)["apply"])
    if "pitheta" in modules:
        _count_newton(tracer, modules["pitheta"])
    if "homrep" in modules:
        _count_records(tracer, modules["homrep"])


def _rebind(old, new) -> None:
    """Point every spin7ac module's name for ``old`` at ``new``."""
    for module in [m for n, m in sys.modules.items() if n == "spin7ac" or n.startswith("spin7ac.")]:
        for attr, obj in list(vars(module).items()):
            if obj is old:
                setattr(module, attr, new)


def _count_newton(tracer: Tracer, pitheta) -> None:
    """Per split: iterations, and backtracks = compound4 calls - 2 iterations - 2."""
    traced = pitheta.pi_theta

    @functools.wraps(traced)
    def pi_theta(*args, **kwargs):
        if not tracer.active:
            return traced(*args, **kwargs)
        before = tracer.calls("pitheta.compound4")
        result = traced(*args, **kwargs)
        calls = tracer.calls("pitheta.compound4") - before
        tracer.count("pitheta.splits")
        tracer.count("pitheta.iterations", result.iterations)
        tracer.count("pitheta.backtracks", calls - 2 * result.iterations - 2)
        return result

    _rebind(traced, pi_theta)


def _count_records(tracer: Tracer, homrep) -> None:
    traced = homrep.enumerate_candidates

    @functools.wraps(traced)
    def enumerate_candidates(*args, **kwargs):
        records = traced(*args, **kwargs)
        if tracer.active:
            tracer.count("homrep.records", len(records))
        return records

    _rebind(traced, enumerate_candidates)


def merge_raw(parts: list[dict]) -> dict:
    out: dict = {"agg": {}, "counters": {}, "derived": {}}
    for part in parts:
        for name, (calls, incl, self_s) in part["agg"].items():
            slot = out["agg"].setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += incl
            slot[2] += self_s
        for key in ("counters", "derived"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def layer_metrics(raw: dict) -> dict[str, float]:
    """Every per-layer metric from merged raw aggregates."""
    agg, counters, derived = raw["agg"], raw["counters"], raw["derived"]

    def calls(name: str) -> int:
        return agg.get(name, (0, 0.0, 0.0))[0]

    def incl(*names: str) -> float:
        return float(sum(agg.get(name, (0, 0.0, 0.0))[1] for name in names))

    def self_time(*names: str) -> float:
        return float(sum(agg.get(name, (0, 0.0, 0.0))[2] for name in names))

    splits = counters.get("pitheta.splits", 0)
    out = {
        "ratmat.mat_mul_calls": calls("ratmat.mat_mul"),
        "ratmat.mat_mul_s": incl("ratmat.mat_mul"),
        "ratmat.certify_projector_s": incl("ratmat.certify_projector"),
        "ratmat.elimination_s": self_time("ratmat.rank", "ratmat.rref", "ratmat.nullspace"),
        "ratmat.projector_onto_span_s": incl("ratmat.projector_onto_span"),
        "projectors.build_s": incl("projectors.build_projectors") - incl("projectors._certify"),
        "projectors.certify_s": incl("projectors._certify"),
        "projectors.decompose_s": incl("projectors.decompose"),
        "projectors.apply_s": incl("projectors.ProjectorTable.apply"),
        "pitheta.split_s": incl("pitheta.pi_theta"),
        "pitheta.compound4_calls": calls("pitheta.compound4"),
        "pitheta.compound4_s": incl("pitheta.compound4"),
        "pitheta.matrix_exp_s": incl("pitheta.matrix_exp"),
        "pitheta.iterations_mean": counters.get("pitheta.iterations", 0) / splits if splits else 0.0,
        "pitheta.backtracks": counters.get("pitheta.backtracks", 0),
        "pitheta.tables_s": incl("pitheta._tables") - derived.get("build_in_tables_s", 0.0),
        "forms.wedge_s": incl("forms.wedge"),
        "forms.hodge_star_s": incl("forms.hodge_star"),
        "forms.gl_inf_action_s": incl("forms.gl_inf_action"),
        "forms.pullback_s": incl("forms.pullback"),
        "linkexpr.normalize_calls": calls("linkexpr.normalize"),
        "linkexpr.normalize_s": incl("linkexpr.normalize"),
        "linkexpr.apply_operator_s": incl("linkexpr.apply_operator"),
        "cones.cone_op_s": derived.get("cone_op_top_s", 0.0),
        "cones.classify_rate_s": incl("cones.classify_rate"),
        "homrep.enumerate_s": incl("homrep.enumerate_candidates"),
        "homrep.records": counters.get("homrep.records", 0),
        "homrep.pipeline_s": incl("homrep.bryant_salamon_pipeline"),
        "moduli.dimension_s": incl("moduli.moduli_dimension"),
        "moduli.lambda_of_mu_s": incl("moduli.lambda_of_mu"),
        "cli.import_s": counters.get("cli.import_s", 0.0),
        "cli.handler_s": incl(*[name for name in agg if name.startswith("cli._cmd_")]),
    }
    for layer in LAYERS:
        names = [name for name in agg if name.startswith(layer + ".")]
        out[f"{layer}.self_s"] = self_time(*names)
        out[f"{layer}.calls"] = sum(calls(name) for name in names)
    return out
