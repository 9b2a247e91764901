"""One warm workload (newton, exact-forms or symbolic) in a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/worker.py --workload newton --seed 1 --seconds 10 [--trace 1] [--ops N]
    python3 perfbench/worker.py --workload symbolic --setup-only

The worker does the workload's set-up, reports ``time.monotonic()`` when it
is ready (the parent subtracts its own spawn time to get ``setup_s``), then
runs a closed loop: one operation at a time, each timed alone, its output
checked right after (untimed) by the benchmark's own checks.  The loop runs
the workload's fixed schedule of operation kinds in whole rounds of cycles
until ``--seconds`` have passed and at least ``MIN_OPS`` operations are done, or
exactly ``--ops`` operations when given (the traced re-run).  Input i of a
run depends only on (workload, seed, i).  One JSON line goes to stdout.

Only the standard library is imported before set-up is timed; numpy and the
benchmark's checks (which need numpy) are imported inside the functions
that use them, after set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import inputs  # noqa: E402  (stdlib only)

MIN_OPS = 100


def setup(workload: str, tracer=None) -> None:
    """Import and build what the workload needs before its first operation.

    With a tracer, the trace is installed after the imports, so that the
    builds are traced too.
    """
    if workload == "cold-cli":
        import spin7ac.cli  # noqa: F401  (the CLI's own start-up cost)
    elif workload == "symbolic":
        from spin7ac import cones, homrep, moduli  # noqa: F401
    else:
        from spin7ac import pitheta, projectors  # noqa: F401
    if tracer is not None:
        import layertrace

        layertrace.install(tracer)
    if workload in ("newton", "exact-forms"):
        projectors.build_projectors()
    if workload == "newton":
        pitheta._tables()


class Workload:
    """Schedule, input generation, the timed call and the output check."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.schedule = SCHEDULES[name]
        self.start = random.Random(f"{name}:{seed}").randrange(1 << 16)

    def rng(self, index: int):
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def occurrence(self, index: int) -> int:
        """How many operations of this kind came before ``index`` in the run."""
        cycle, slot = divmod(index, len(self.schedule))
        kind = self.schedule[slot]
        return cycle * self.schedule.count(kind) + self.schedule[:slot].count(kind)

    def prepare(self, index: int):
        """(kind, library arguments, check data) for operation ``index``."""
        kind = self.schedule[index % len(self.schedule)]
        return kind, *OPS[kind][0](self, self.rng(index), index)


# -- operations ---------------------------------------------------------------
#
# Each kind is (prepare, library function, check).  ``prepare(w, rng, index)``
# returns the library arguments and the data the check needs.  The library
# function is named "module.attr" and looked up at call time, so that a
# traced run calls the trace's wrappers.  Only the call itself is timed;
# preparing, converting the output and checking it are not.


def _library(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"spin7ac.{module}"), attr)


def _checks():
    import checks  # needs numpy, so imported after set-up

    return checks


def _form(k: int, terms: dict):
    return _library("forms.Form").from_json(inputs.form_json(k, terms))


def _matrix(rows):
    scalar = _library("scalars.Scalar")
    return _library("forms.Matrix")([[scalar(x) for x in row] for row in rows])


def _prep_newton(w: Workload, rng, index: int):
    import numpy as np

    eta = np.array(inputs.eta_vector(inputs.asd_eta(rng, w.start + index)))
    return (eta,), eta


def _prep_decompose(degree: int):
    def prep(w: Workload, rng, index: int):
        field = "Q" if w.occurrence(index) % 3 == 2 else "Q5"  # two in three over Q(sqrt5)
        terms = inputs.random_form(rng, degree, field)
        return (_form(degree, terms),), terms

    return prep


def _prep_wedge(w: Workload, rng, index: int):
    """Dense forms; degree pairs step through all 28 (p, q) with p + q <= 8."""
    occurrence = w.occurrence(index)
    p, q = inputs.WEDGE_DEGREES[(5 * occurrence) % len(inputs.WEDGE_DEGREES)]
    field = ("Q", "Q5")[occurrence % 2]
    a = inputs.random_form(rng, p, field)
    b = inputs.random_form(rng, q, field)
    return (_form(p, a), _form(q, b)), (a, b)


def _prep_star(w: Workload, rng, index: int):
    k = rng.randint(0, 8)
    a = inputs.random_form(rng, k, rng.choice(("Q", "Q5")), rng.uniform(0.1, 1.0))
    return (_form(k, a),), a


def _prep_inner(w: Workload, rng, index: int):
    k = rng.randint(1, 7)
    field = rng.choice(("Q", "Q5"))
    a = inputs.random_form(rng, k, field, rng.uniform(0.1, 1.0))
    b = inputs.random_form(rng, k, field, rng.uniform(0.1, 1.0))
    return (_form(k, a), _form(k, b)), (a, b)


def _prep_pullback(w: Workload, rng, index: int):
    m = inputs.rational_matrix(rng, inputs.pullback_fill(w.occurrence(index)))
    return (_matrix(m), _form(4, inputs.psi0_terms())), (m, index)


def _prep_gl(w: Workload, rng, index: int):
    """The infinitesimal action on psi0, as the projector build and _tables use it."""
    m = inputs.rational_matrix(rng, rng.randint(1, 8))
    return (_matrix(m), _form(4, inputs.psi0_terms())), (m, index)


def _prep_seven(w: Workload, rng, index: int):
    scalar = _library("scalars.Scalar")
    return (_library("forms.Vector")([scalar(c) for c in inputs.tangent_vector(rng)]),), None


def _prep_classify(w: Workload, rng, index: int):
    occurrence = w.occurrence(index)
    if occurrence < len(inputs.CERTIFIED_RATES):
        parity, rate = inputs.CERTIFIED_RATES[occurrence]
    else:  # parities alternate, so every run has the same mix
        parity, rate = ("even", "odd")[occurrence % 2], inputs.classify_rate_draw(rng)[1]
    return (parity, _library("scalars.Scalar")(rate)), (parity, rate)


def _prep_cone(w: Workload, rng, index: int):
    form = inputs.cone_form(rng, w.occurrence(index))
    return (_library("cones.HomogeneousConeForm").from_json(form),), form


def _check_cone(op: str):
    """Shape from the operator's definition; d.d = 0 and d*.d* = 0."""

    def check(form, out) -> None:
        _checks().check_cone_shape(op, form, out.to_json())
        if op in ("d", "dstar"):
            _checks().require(_library(f"cones.cone_{op}")(out).is_zero(), f"cone {op} applied twice is not zero")

    return check


def _prep_enumerate(w: Workload, rng, index: int):
    lo = inputs.enumerate_lo(w.start + w.occurrence(index))
    return (_library("scalars.Scalar")(lo),), lo


def _prep_moduli(w: Workload, rng, index: int):
    nu = inputs.moduli_nu(rng)
    return (_library("homrep.bryant_salamon_link_data")(), _library("scalars.Scalar")(nu)), nu


def _prep_lambda(w: Workload, rng, index: int):
    checks = _checks()
    lam = inputs.irrational_lambda(rng)
    x = checks.add4(checks.q4(lam), checks.q4(4))
    mu = checks.add4(checks.mul4(x, x), checks.scale4(x, Fraction(-2, 3)))
    return (_library("scalars.Scalar")(*mu),), lam


OPS = {
    "pi_theta": (
        _prep_newton, "pitheta.pi_theta",
        lambda eta, out: _checks().check_pi_theta(eta, out.a_matrix, out.zeta, _checks().PI_THETA_TOL),
    ),
    **{
        f"decompose{k}": (
            _prep_decompose(k), "projectors.decompose",
            lambda terms, out: _checks().check_decompose(terms, out.to_json()["components"]),
        )
        for k in (2, 3, 4)
    },
    "wedge": (_prep_wedge, "forms.wedge", lambda ab, out: _checks().check_wedge(*ab, out.to_json())),
    "hodge_star": (_prep_star, "forms.hodge_star", lambda a, out: _checks().check_hodge_star(a, out.to_json())),
    "inner_product": (_prep_inner, "forms.inner_product", lambda ab, out: _checks().check_inner(*ab, out.to_json())),
    "pullback": (
        _prep_pullback, "forms.pullback",
        lambda d, out: _checks().check_pullback(d[0], inputs.psi0_terms(), out.to_json(), d[1]),
    ),
    "gl_inf_action": (
        _prep_gl, "forms.gl_inf_action",
        lambda d, out: _checks().check_gl_action(d[0], inputs.psi0_terms(), out.to_json(), d[1]),
    ),
    "seven_factor_check": (
        _prep_seven, "projectors.seven_factor_check", lambda _, out: _checks().check_seven_factor(out.to_json()),
    ),
    "classify_rate": (
        _prep_classify, "cones.classify_rate",
        lambda d, out: _checks().check_classification(*d, out.to_json()["verdicts"]),
    ),
    **{f"cone_{op}": (_prep_cone, f"cones.cone_{op}", _check_cone(op)) for op in ("d", "star", "dstar", "laplacian")},
    "enumerate": (
        _prep_enumerate, "homrep.enumerate_candidates",
        lambda lo, out: _checks().check_enumeration(lo, [r.to_json() for r in out]),
    ),
    "moduli_dimension": (
        _prep_moduli, "moduli.moduli_dimension", lambda nu, out: _checks().check_moduli(nu, out.to_json()),
    ),
    "lambda_of_mu": (
        _prep_lambda, "moduli.lambda_of_mu",
        lambda lam, out: _checks().check_lambda_round_trip(lam, [r.to_json() for r in out]),
    ),
    "bryant_salamon_pipeline": (
        lambda w, rng, index: ((), None), "homrep.bryant_salamon_pipeline",
        lambda _, out: _checks().check_bryant_salamon({"moduli_dimension_at_-1": out.dimensions["-1"]}),
    ),
}

# Fixed cyclic schedules: every run has the same mix of operation kinds.
# The mix is a choice, not a measured usage profile: nothing in the
# repository records how often callers run each operation.  Every operation
# the workload names is in every cycle, and the counts put the median and
# the 90th percentile inside a band of operations of similar cost rather
# than on the edge between two bands.
#
# exact-forms, per 24 operations: 10 wedges of dense forms, 3 each of
# hodge_star, inner_product and decompose4, and 1 each of decompose2,
# decompose3, pullback, gl_inf_action and seven_factor_check.  The median
# falls among the wedges and the 90th percentile among the 4-form
# decompositions.  The one pullback (about 0.1 s sparse, seconds dense)
# lies beyond the 90th percentile and takes about two thirds of the loop
# time, so it moves ops_per_s.
#
# symbolic, per 36 operations: 5 of each cone operator, 4 each of
# classify_rate and enumerate, 3 each of lambda_of_mu and moduli_dimension,
# and 2 bryant_salamon_pipeline.  The median falls among the cone operators
# and the 90th percentile among classify_rate and the larger enumerations,
# which take most of the loop time.
_SYMBOLIC_QUARTER = ("cone_d", "cone_star", "cone_dstar", "cone_laplacian", "lambda_of_mu", "moduli_dimension")
SCHEDULES = {
    "newton": ("pi_theta",),
    "exact-forms": (
        "pullback", "wedge", "hodge_star", "wedge", "decompose4", "inner_product",
        "wedge", "decompose2", "wedge", "hodge_star", "decompose4", "wedge",
        "decompose3", "inner_product", "wedge", "gl_inf_action", "wedge", "hodge_star",
        "decompose4", "wedge", "inner_product", "seven_factor_check", "wedge", "wedge",
    ),
    "symbolic": (
        ("classify_rate", "enumerate") + _SYMBOLIC_QUARTER + ("cone_d", "cone_star")
        + ("classify_rate", "enumerate", "bryant_salamon_pipeline") + _SYMBOLIC_QUARTER + ("cone_dstar",)
        + ("classify_rate", "enumerate") + _SYMBOLIC_QUARTER + ("cone_laplacian",)
        + ("classify_rate", "enumerate", "bryant_salamon_pipeline") + _SYMBOLIC_QUARTER[:4]
    ),
}
# A run stops only after whole rounds of this many cycles, so that every run
# meets each stratum of its stratified inputs equally often: the radii of eta
# in newton, the five pullback fill levels in exact-forms, the enumeration
# windows and cone-form shapes in symbolic.
ROUND_CYCLES = {"newton": inputs.ETA_STRATA, "exact-forms": 5, "symbolic": 5}


def run_loop(workload: Workload, seconds: float, ops: int | None, tracer=None) -> dict:
    """The closed loop; with a tracer, only the timed library calls are traced."""
    latencies: list[float] = []
    kinds: list[str] = []
    indices: list[int] = []
    failures: list[str] = []
    attempted = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    round_len = len(workload.schedule) * ROUND_CYCLES[workload.name]
    while True:
        if ops is not None:
            if attempted >= ops:
                break
        elif attempted % round_len == 0 and attempted >= MIN_OPS and clock() >= deadline:
            break
        index = attempted
        attempted += 1
        kind, args, data = workload.prepare(index)
        _, name, check = OPS[kind]
        run = _library(name)
        if tracer is not None:
            tracer.active = True
        try:
            start = clock()
            out = run(*args)
            elapsed = clock() - start
        except Exception as exc:  # an operation that raises counts as failed
            failures.append(f"op {index} ({kind}) raised {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            check(data, out)
        except AssertionError as exc:
            failures.append(f"op {index} ({kind}) failed its check: {exc}")
            continue
        latencies.append(elapsed)
        kinds.append(kind)
        indices.append(index)
    return {"attempted": attempted, "latencies": latencies, "kinds": kinds, "indices": indices, "failures": failures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold-cli", "newton", "exact-forms", "symbolic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
    setup(args.workload, tracer)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        try:
            result.update(run_loop(Workload(args.workload, args.seed), args.seconds, args.ops, tracer))
        except Exception:  # a fault in the benchmark itself, not an operation
            traceback.print_exc()
            return 1
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.raw()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
