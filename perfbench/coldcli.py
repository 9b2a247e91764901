"""The cold-cli workload: every operation is a fresh ``python -m spin7ac.cli``.

One client runs one CLI process at a time and waits for it (closed loop).
A cycle is the fixed schedule below: two heavy calls, which rebuild and
recertify the projector table, and two rounds of the eight light
subcommands.  Cycles repeat until the run's seconds have passed.  With 2
heavy calls in 18, the median call is a light one and the 90th percentile
is a heavy one.  The two enumerations of a cycle take the midpoints of the
two halves of the log window range, so that peak memory does not hang on
which window a seed drew.  ``decompose`` is left out: cold, it pays the same build as
``projectors``, and the exact-forms workload measures it warm.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import checks
import inputs

LIGHT = (
    "verify-algebra", "cone-op", "classify-rate", "critical-rates",
    "moduli-dim", "casimir", "enumerate", "bryant-salamon",
)
SCHEDULE = ("projectors",) + LIGHT + ("pi-theta",) + LIGHT
HEAVY = ("projectors", "pi-theta")
CALL_TIMEOUT_S = 120


def prepare(seed: int, index: int):
    """(kind, CLI arguments, stdin text, check data) for call ``index``."""
    rng = random.Random(f"cold-cli:{seed}:{index}")
    cycle, slot = divmod(index, len(SCHEDULE))
    kind = SCHEDULE[slot]
    occurrence = cycle * 2 + SCHEDULE[:slot].count(kind)
    if kind == "projectors":
        label = rng.choice(inputs.TYPE_LABELS)
        return kind, ["projectors", "--export", label], None, label
    if kind == "pi-theta":
        eta = inputs.asd_eta(rng)
        return kind, ["pi-theta", "--form", "-"], json.dumps(inputs.eta_json(eta)), inputs.eta_vector(eta)
    if kind == "verify-algebra":
        return kind, ["verify-algebra"], None, None
    if kind == "cone-op":
        op = rng.choice(("d", "star", "dstar", "laplacian"))
        form = inputs.cone_form(rng, occurrence)
        return kind, ["cone-op", "--op", op, "--form", "-"], json.dumps(form), (op, form)
    if kind == "classify-rate":
        if occurrence < 2:
            parity, rate = inputs.CERTIFIED_RATES[occurrence]
        else:
            parity, rate = inputs.classify_rate_draw(rng)
        return kind, ["classify-rate", "--parity", parity, f"--rate={rate}"], None, (parity, rate)
    if kind == "critical-rates":
        eigen = inputs.critical_eigenvalues(rng)
        return kind, ["critical-rates", "--eigenvalues", ",".join(map(str, eigen))], None, eigen
    if kind == "moduli-dim":
        nu = inputs.moduli_nu(rng)
        return kind, ["moduli-dim", f"--nu={nu}"], None, nu
    if kind == "casimir":
        k1, k2, l = inputs.casimir_label(rng)
        return kind, ["casimir", "--k1", str(k1), "--k2", str(k2), "--l", str(l)], None, (k1, k2, l)
    if kind == "enumerate":
        lo = inputs.enumerate_lo(occurrence, strata=2)
        return kind, ["enumerate", f"--lo={lo}"], None, lo
    return kind, ["bryant-salamon"], None, None


def check(kind: str, data, payload: dict) -> None:
    import numpy as np

    if kind == "projectors":
        checks.check_projectors_payload(payload, data)
    elif kind == "pi-theta":
        a_matrix, zeta = checks.pi_theta_arrays(payload)
        checks.require(payload["residual"] <= checks.PI_THETA_TOL, "reported residual above tol")
        checks.check_pi_theta(np.array(data), a_matrix, zeta, checks.PI_THETA_TOL)
    elif kind == "verify-algebra":
        checks.check_verify_algebra(payload)
    elif kind == "cone-op":
        checks.check_cone_shape(data[0], data[1], payload)
    elif kind == "classify-rate":
        checks.check_classification(data[0], data[1], payload["verdicts"])
    elif kind == "critical-rates":
        checks.check_critical_rates(data, payload)
    elif kind == "moduli-dim":
        checks.check_moduli(data, payload)
    elif kind == "casimir":
        checks.check_casimir(data, payload)
    elif kind == "enumerate":
        checks.check_enumeration(data, payload["records"])
    else:
        checks.check_bryant_salamon(payload)


def run_calls(seed: int, seconds: float, env: dict, count: int | None = None, raw_dir: str | None = None) -> dict:
    """Closed loop of CLI calls; traced through traced_cli.py when ``raw_dir`` is set."""
    here = os.path.dirname(os.path.abspath(__file__))
    latencies: list[float] = []
    kinds: list[str] = []
    indices: list[int] = []
    failures: list[str] = []
    raw_paths: list[str] = []
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    while True:
        if count is not None:
            if index >= count:
                break
        elif index and index % len(SCHEDULE) == 0 and clock() >= deadline:
            break
        kind, args, stdin, data = prepare(seed, index)
        if raw_dir is None:
            cmd = [sys.executable, "-m", "spin7ac.cli", *args]
        else:
            raw_paths.append(os.path.join(raw_dir, f"call-{index}.json"))
            cmd = [sys.executable, os.path.join(here, "traced_cli.py"), raw_paths[-1], *args]
        index += 1
        t0 = clock()
        try:
            proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, env=env, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"call {index - 1} ({kind}) timed out after {CALL_TIMEOUT_S} s")
            continue
        elapsed = clock() - t0
        if proc.returncode != 0:
            failures.append(f"call {index - 1} ({kind}) exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        try:
            check(kind, data, json.loads(proc.stdout))
        except (AssertionError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"call {index - 1} ({kind}) failed its check: {type(exc).__name__}: {exc}")
            continue
        latencies.append(elapsed)
        kinds.append(kind)
        indices.append(index - 1)
    return {
        "attempted": index,
        "latencies": latencies,
        "kinds": kinds,
        "indices": indices,
        "failures": failures,
        "raw_paths": raw_paths,
    }
