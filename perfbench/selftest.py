"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py -k "not short_run"   # fast checks only

The short runs start every workload, untraced and traced; newton and
exact-forms build the projector table in each, so they take about five
minutes on 2 vCPUs.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import coldcli  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402

# -- determinism of the generated inputs ---------------------------------------------

GENERATORS = {
    "asd_eta": inputs.asd_eta,
    "dense_q5_4form": lambda rng: inputs.random_form(rng, 4, "Q5"),
    "rational_matrix": lambda rng: inputs.rational_matrix(rng, inputs.pullback_fill(3)),
    "cone_form": lambda rng: inputs.cone_form(rng, 3),
    "classify_rate": inputs.classify_rate_draw,
    "moduli_nu": inputs.moduli_nu,
    "irrational_lambda": inputs.irrational_lambda,
    "tangent_vector": inputs.tangent_vector,
    "critical_eigenvalues": inputs.critical_eigenvalues,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_bytes(name):
    gen = GENERATORS[name]
    first = inputs.canonical(gen(random.Random("t:7")))
    assert first == inputs.canonical(gen(random.Random("t:7")))
    assert first != inputs.canonical(gen(random.Random("t:8")))


def test_cold_cli_calls_are_seed_determined():
    calls = [coldcli.prepare(11, i)[:3] for i in range(len(coldcli.SCHEDULE))]
    assert calls == [coldcli.prepare(11, i)[:3] for i in range(len(coldcli.SCHEDULE))]
    assert calls != [coldcli.prepare(12, i)[:3] for i in range(len(coldcli.SCHEDULE))]


def test_asd_eta_is_exactly_asd_and_inside_the_ball():
    radii = []
    for seed in range(20):
        eta = inputs.asd_eta(random.Random(seed), None if seed % 2 else seed)
        for key, value in eta.items():
            comp, sign = inputs.star_key(key)
            assert eta.get(comp, 0) * sign == -value
        assert sum(c * c for c in eta.values()) < Fraction(1, 100)
        radii.append(float(sum(c * c for c in eta.values())) ** 0.5)
    assert min(radii) < 0.02 and max(radii) > 0.08


def test_stratified_draws_cover_the_domain():
    fills = {inputs.pullback_fill(i) for i in range(len(inputs.PULLBACK_FILLS))}
    assert min(fills) == 1 and max(fills) == 8 and len(fills) == len(inputs.PULLBACK_FILLS)
    m = inputs.rational_matrix(random.Random(2), 3)
    assert all(sum(1 for x in row if x) == 3 for row in m)
    k = inputs.ENUMERATE_STRATA
    for start in (0, 3):
        grid = [inputs.enumerate_lo(i) for i in range(start, start + k)]
        assert len(set(grid)) == k
        assert all(Fraction(-100) <= lo <= Fraction(-1, 2) for lo in grid)
        assert min(grid) < -85 and max(grid) > -1


def test_enumeration_windows_are_seed_determined():
    def windows(seed):
        w = worker.Workload("symbolic", seed)
        indices = [i for i in range(len(w.schedule) * 5) if w.schedule[i % len(w.schedule)] == "enumerate"]
        return inputs.canonical([w.prepare(i)[2] for i in indices])

    assert windows(7) == windows(7)
    assert windows(7) != windows(8)


# -- every check rejects a corrupted output -----------------------------------------------


def _flip_first(terms_json: dict) -> dict:
    out = copy.deepcopy(terms_json)
    key = sorted(out["terms"])[0]
    out["terms"][key] = {"1": str(-Fraction(out["terms"][key].get("1", "0")) + 1)}
    return out


def test_decompose_check_rejects_a_flipped_coefficient():
    a = {(1, 2): (Fraction(1), Fraction(0)), (3, 4): (Fraction(2), Fraction(1))}
    comps = {"2_7": inputs.form_json(2, {(1, 2): a[(1, 2)]}), "2_21": inputs.form_json(2, {(3, 4): a[(3, 4)]})}
    checks.check_decompose(a, comps)
    bad = dict(comps, **{"2_7": _flip_first(comps["2_7"])})
    with pytest.raises(checks.CheckFailed):
        checks.check_decompose(a, bad)
    overlap = {"2_7": inputs.form_json(2, {(1, 2): (Fraction(2), Fraction(0))}),
               "2_21": inputs.form_json(2, {(1, 2): (Fraction(-1), Fraction(0)), (3, 4): a[(3, 4)]})}
    with pytest.raises(checks.CheckFailed):  # sums to a, but not orthogonal
        checks.check_decompose(a, overlap)


def _type27_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=70)
    v = (v + checks.own_star_vec(v)) / 2
    v -= (v @ checks.PSI0_VEC) / 14.0 * checks.PSI0_VEC
    basis = checks._lambda4_7_basis()
    return 1e-2 * (v - basis @ (basis.T @ v))


def test_pi_theta_check_rejects_a_perturbed_zeta():
    rng = np.random.default_rng(3)
    a = 1e-2 * rng.normal(size=(8, 8))
    zeta = _type27_vector(rng)
    eta = checks.own_pullback_psi0(checks.own_expm(a)) + zeta - checks.PSI0_VEC
    checks.check_pi_theta(eta, a, zeta, 1e-10)
    bumped = zeta.copy()
    bumped[5] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_pi_theta(eta, a, bumped, 1e-10)
    with pytest.raises(checks.CheckFailed):  # still solves the equation, but zeta is not type 27
        checks.check_pi_theta(eta + 1e-3 * checks.PSI0_VEC, a, zeta + 1e-3 * checks.PSI0_VEC, 1e-10)


def test_own_minors_match_the_library():
    from spin7ac import pitheta

    g = checks.own_expm(np.random.default_rng(5).normal(size=(8, 8)) * 0.1)
    assert np.allclose(checks.own_pullback_psi0(g), pitheta.compound4(g) @ checks.PSI0_VEC, atol=1e-12)
    assert np.allclose(checks.own_expm(np.eye(8) * 0.3), np.eye(8) * np.exp(0.3), atol=1e-14)


def _library_form(k, terms):
    return worker._form(k, terms)


def test_exterior_checks_reject_corruption():
    from spin7ac import forms

    rng = random.Random(4)
    a = inputs.random_form(rng, 3, "Q5")
    b = inputs.random_form(rng, 2, "Q5", 0.5)
    wedge = forms.wedge(_library_form(3, a), _library_form(2, b)).to_json()
    checks.check_wedge(a, b, wedge)
    with pytest.raises(checks.CheckFailed):
        checks.check_wedge(a, b, _flip_first(wedge))
    star = forms.hodge_star(_library_form(3, a)).to_json()
    checks.check_hodge_star(a, star)
    with pytest.raises(checks.CheckFailed):
        checks.check_hodge_star(a, _flip_first(star))
    c = inputs.random_form(rng, 3, "Q5", 0.5)
    inner = forms.inner_product(_library_form(3, a), _library_form(3, c)).to_json()
    checks.check_inner(a, c, inner)
    with pytest.raises(checks.CheckFailed):
        checks.check_inner(a, c, {"1": "1/3"})


def test_pullback_and_gl_checks_reject_corruption():
    from spin7ac import forms

    rng = random.Random(9)
    m = inputs.rational_matrix(rng, 4)
    psi = inputs.psi0_terms()
    out = forms.pullback(worker._matrix(m), _library_form(4, psi)).to_json()
    checks.check_pullback(m, psi, out, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_pullback(m, psi, _flip_first(out), 1)
    a = inputs.random_form(rng, 3, "Q5", 0.6)
    gl = forms.gl_inf_action(worker._matrix(m), _library_form(3, a)).to_json()
    checks.check_gl_action(m, a, gl, 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_gl_action(m, a, _flip_first(gl), 2)


def test_projector_payload_check_rejects_corruption():
    degree, dim = 4, 1
    basis = inputs.basis(degree)
    psi = [float(checks.PSI0_VEC[i]) for i in range(70)]
    matrix = [[{"1": str(Fraction(int(x * y)) / 14)} if x * y else {} for y in psi] for x in psi]
    payload = {
        "rank_table": dict(checks.RANK_TABLE),
        "certified": True,
        "projector": {"label": "4_1", "basis": [",".join(map(str, k)) for k in basis], "matrix": matrix},
    }
    checks.check_projectors_payload(payload, "4_1")
    asym = copy.deepcopy(payload)
    asym["projector"]["matrix"][0][1] = {"1": "1/2"}
    with pytest.raises(checks.CheckFailed):
        checks.check_projectors_payload(asym, "4_1")
    wrong_trace = copy.deepcopy(payload)
    wrong_trace["projector"]["matrix"][0][0] = {"1": "1"}
    with pytest.raises(checks.CheckFailed):
        checks.check_projectors_payload(wrong_trace, "4_1")
    ranks = copy.deepcopy(payload)
    ranks["rank_table"]["4_27"] = 26
    with pytest.raises(checks.CheckFailed):
        checks.check_projectors_payload(ranks, None)


def test_symbolic_checks_reject_corruption():
    from spin7ac import cones, homrep, moduli
    from spin7ac.scalars import Scalar

    even = cones.classify_rate("even", -4).to_json()["verdicts"]
    checks.check_classification("even", Fraction(-4), even)
    swapped = copy.deepcopy(even)
    swapped["3:alpha"] = {"status": "forced-zero", "mechanism": "back-substitution"}
    with pytest.raises(checks.CheckFailed):
        checks.check_classification("even", Fraction(-4), swapped)

    lo = Fraction(-7, 2)
    records = [r.to_json() for r in homrep.enumerate_candidates(Scalar(lo))]
    checks.check_enumeration(lo, records)
    with pytest.raises(checks.CheckFailed):
        checks.check_enumeration(lo, records[:-1])
    outside = copy.deepcopy(records)
    outside[0]["casimir"] = {"1": "-4"}
    with pytest.raises(checks.CheckFailed):
        checks.check_enumeration(lo, outside)

    nu = Fraction(-1, 2)
    report = moduli.moduli_dimension(homrep.bryant_salamon_link_data(), Scalar(nu)).to_json()
    checks.check_moduli(nu, report)
    with pytest.raises(checks.CheckFailed):
        checks.check_moduli(nu, dict(report, total=report["total"] + 1))

    lam = (Fraction(-3, 2), Fraction(1, 7))
    x = checks.add4(checks.q4(lam), checks.q4(Fraction(4)))
    mu = checks.add4(checks.mul4(x, x), checks.scale4(x, Fraction(-2, 3)))
    rates = [r.to_json() for r in moduli.lambda_of_mu(Scalar(*mu))]
    checks.check_lambda_round_trip(lam, rates)
    with pytest.raises(checks.CheckFailed):
        checks.check_lambda_round_trip((Fraction(-3, 2), Fraction(1, 6)), rates)

    with pytest.raises(checks.CheckFailed):
        checks.check_bryant_salamon({"moduli_dimension_at_-1": 0})
    with pytest.raises(checks.CheckFailed):
        checks.check_casimir((1, 0, 1), {"label": [1, 0, 1], "casimir": {"1": "-19/25"}})
    with pytest.raises(checks.CheckFailed):
        checks.check_critical_rates([Fraction(9)], {"critical_rates": []})
    with pytest.raises(checks.CheckFailed):
        checks.check_seven_factor({"1": "4/5"})


def test_cone_checks_reject_corruption():
    from spin7ac import cones

    form = inputs.cone_form(random.Random(21), 4)
    g = cones.HomogeneousConeForm.from_json(form)
    out = cones.cone_d(g)
    checks.check_cone_shape("d", form, out.to_json())
    worker.OPS["cone_d"][2](form, out)
    moved = copy.deepcopy(out.to_json())
    moved["rate"] = {"1": "1"}
    with pytest.raises(checks.CheckFailed):
        checks.check_cone_shape("d", form, moved)


# -- short runs: every metric is emitted ----------------------------------------------------


def _bench_names(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[kind]}


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["symbolic", "newton", "exact-forms", "cold-cli"])
def test_short_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = _bench_names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == expected
    for name in expected:
        assert f"{name} = " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("symbolic", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
