"""Acceptance gate: one test per numbered criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL
lines.  Criterion 9 is split: its Casimir values and the exhaustiveness
of the enumeration hold (9a, 9b), but its literal "returns exactly those
four" clause contradicts exhaustiveness -- the window (-1, 0] provably
contains a fifth label, (1,0,1) with Casimir -19/24, which the printed
candidate list omits -- so 9c is implemented as stated and fails.  See
README for the analysis.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest
import ratref

from spin7ac import ratmat
from spin7ac.cones import (
    HomogeneousConeForm,
    classify_rate,
    cone_d,
    cone_dstar,
    cone_laplacian,
    cone_star,
)
from spin7ac.forms import (
    Form,
    Matrix,
    Vector,
    form_to_coefficients,
    gl_inf_action,
    hodge_star,
    inner_product,
    monomial_basis,
    volume_form,
    wedge,
)
from spin7ac.homrep import (
    LAMBDA_BAR_PAPER,
    PHI_FRAME,
    IrrepLabel,
    bryant_salamon_pipeline,
    casimir,
    enumerate_candidates,
    hom_obstruction_coefficient,
    is_type27,
    ud_hom_data,
)
from spin7ac.linkexpr import Atom, LinkExpr
from spin7ac.moduli import (
    Contribution,
    LinkData,
    lambda_of_mu,
    moduli_dimension,
    mu_of_lambda,
)
from spin7ac.pitheta import compound4, exp_action, pi_theta, _tables
from spin7ac.projectors import (
    build_projectors,
    g2_phi_seven,
    psi0,
    seven_factor_check,
    star_matrix,
)
from spin7ac.scalars import SQRT5, SQRT581, SQRT2905, Scalar


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_projector_table():
    build_projectors.cache_clear()
    start = time.monotonic()
    table = build_projectors()  # construction certifies P^2=P, symmetry,
    elapsed = time.monotonic() - start  # trace=rank, completeness, annihilation
    ranks = table.rank_table()
    expected = {
        "2_7": 7,
        "2_21": 21,
        "3_8": 8,
        "3_48": 48,
        "4_1": 1,
        "4_7": 7,
        "4_27": 27,
        "4_35": 35,
    }
    ok = ranks == expected and elapsed < 30.0
    report(
        "1",
        ok,
        f"rank table {tuple(sorted(ranks.values()))} certified exact in {elapsed:.1f}s",
    )


def test_criterion_02_psi0_identities():
    psi = psi0()
    star_ok = hodge_star(psi) == psi
    wedge_ok = wedge(psi, psi) == volume_form(8).scale(14)
    inner_ok = inner_product(psi, psi) == Scalar(14)
    table = build_projectors()
    s = star_matrix(8, 4)
    p35_expected = ratmat.mat_scale(
        ratmat.mat_sub(ratmat.identity(70), s), Fraction(1, 2)
    )
    p35_ok = table.projector(4, 35) == p35_expected
    ok = star_ok and wedge_ok and inner_ok and p35_ok
    report(
        "2",
        ok,
        "star psi0 = psi0, psi0^psi0 = 14 vol, <psi0,psi0> = 14, "
        "P35 = (Id - *)/2 exactly",
    )


def test_criterion_03_stabiliser_dimension():
    basis4 = monomial_basis(8, 4)
    columns = []
    for i in range(1, 9):
        for j in range(1, 9):
            image = gl_inf_action(Matrix.from_entries(8, {(i, j): 1}), psi0())
            columns.append(
                [c.as_fraction() for c in form_to_coefficients(image, basis4)]
            )
    kernel_dim = len(ratref.nullspace(ratmat.transpose(columns)))
    ok = kernel_dim == 21
    report("3", ok, f"dim null(gl_inf_action(., psi0)) on gl(8) = {kernel_dim} (orbit codim 27)")


def test_criterion_04_seven_factor():
    rng = random.Random(404)
    ok = True
    for _ in range(50):
        comps = [0] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(7)
        ]
        if all(c == 0 for c in comps):
            comps[2] = Fraction(1)
        value = seven_factor_check(Vector([Scalar(c) for c in comps]))
        ok = ok and value == Scalar(Fraction(4, 7))
    report("4", ok, "seven_factor_check == 4/7 exactly on 50 random tangent vectors")


def test_criterion_05_pi_theta():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    p35 = _tables()["p35"]

    def random_asd(norm: float) -> np.ndarray:
        v = p35 @ rng.standard_normal(70)
        return v * (norm / np.linalg.norm(v))

    residual_ok = True
    for _ in range(100):
        eta = random_asd(float(rng.uniform(0.001, 0.05)))
        result = pi_theta(eta)
        residual_ok = residual_ok and result.residual <= 1e-10

    ratio_ok = True
    for _ in range(5):
        direction = random_asd(1.0)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            ratios.append(np.linalg.norm(pi_theta(t * direction, tol=1e-12).zeta) / t)
        ratio_ok = ratio_ok and ratios[1] <= 0.2 * ratios[0] and ratios[2] <= 0.2 * ratios[1]

    equivariance_ok = True
    spin7 = np.array(build_projectors().lambda2_21_matrices, dtype=float).reshape(21, 64)
    for _ in range(10):
        eta = random_asd(0.04)
        coeffs = rng.standard_normal(21)
        coeffs *= 0.4 / np.linalg.norm(coeffs)
        g = compound4(exp_action((coeffs @ spin7).reshape(8, 8), np.eye(8)))
        lhs = g @ pi_theta(eta).pi
        rhs = pi_theta(g @ eta).pi
        equivariance_ok = equivariance_ok and np.linalg.norm(lhs - rhs) <= 1e-8

    elapsed = time.monotonic() - start
    ok = residual_ok and ratio_ok and equivariance_ok and elapsed < 120.0
    report(
        "5",
        ok,
        f"100 splits at residual <= 1e-10, DTheta|0 = 0 scaling, "
        f"equivariance <= 1e-8, in {elapsed:.1f}s",
    )


def test_criterion_06_symbolic_identities():
    start = time.monotonic()
    rng = random.Random(606)

    def random_mixed(even_only: bool = False) -> HomogeneousConeForm:
        parts = []
        degrees = range(0, 9, 2) if even_only else range(0, 9)
        for k in rng.sample(list(degrees), k=rng.randint(1, 4)):
            alpha = (
                LinkExpr.atom(Atom(f"a{k}", k - 1)).scale(
                    Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                )
                if k >= 1
                else None
            )
            beta = (
                LinkExpr.atom(Atom(f"b{k}", k)).scale(
                    Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                )
                if k <= 7
                else None
            )
            parts.append((k, alpha, beta))
        return HomogeneousConeForm.build(
            Scalar(Fraction(rng.randint(-8, 3), rng.randint(1, 3))), parts
        )

    ok = True
    for _ in range(30):
        g = random_mixed()
        ok = ok and cone_d(cone_d(g)).is_zero()
        ok = ok and cone_dstar(cone_dstar(g)).is_zero()
        ok = ok and cone_laplacian(g) == cone_d(cone_dstar(g)) + cone_dstar(cone_d(g))
        # The true involution law is *^2 = (-1)^degree on the 8-dim cone;
        # it is the identity precisely on even-degree components (degree 4
        # included, which is the only case the source asserts).
        ss = cone_star(cone_star(g))
        for k, (alpha, beta) in g.components.items():
            sign = 1 if k % 2 == 0 else -1
            ok = ok and ss.slot(k, "alpha") == (
                None if alpha is None else alpha.scale(sign)
            )
            ok = ok and ss.slot(k, "beta") == (
                None if beta is None else beta.scale(sign)
            )
        g_even = random_mixed(even_only=True)
        ok = ok and cone_star(cone_star(g_even)) == g_even

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(
        "6",
        ok,
        f"d^2 = 0, d*^2 = 0, Delta = d d* + d* d, star^2 = Id on even degrees "
        f"((-1)^k law on all), 30 random forms in {elapsed:.1f}s",
    )


def test_criterion_07_classification_tables():
    even = classify_rate("even", -4)
    odd = classify_rate("odd", -3)
    ok = even.survivors() == [(3, "alpha"), (4, "beta")]
    ok = ok and odd.survivors() == [(3, "beta"), (4, "alpha")]
    ok = ok and set(even.forced_zero()) == {
        (0, "beta"),
        (1, "alpha"),
        (2, "beta"),
        (5, "alpha"),
        (6, "beta"),
        (7, "alpha"),
        (8, "beta"),
    }
    ok = ok and set(odd.forced_zero()) == {
        (0, "alpha"),
        (1, "beta"),
        (2, "alpha"),
        (5, "beta"),
        (6, "alpha"),
        (7, "beta"),
    }
    ok = ok and even.verdicts[(0, "beta")].coefficient == Scalar(-8)
    for result in (even, odd):
        for verdict in result.verdicts.values():
            if verdict.status == "forced-zero" and verdict.mechanism == "eigenvalue":
                ok = ok and verdict.coefficient.sign() < 0
            if verdict.status == "harmonic":
                ok = ok and verdict.coefficient == Scalar(0)
    report(
        "7",
        ok,
        "survivors {alpha3, beta4} at (even,-4) and {beta3, alpha4} at (odd,-3), "
        "harmonic; other slots forced-zero, eigenvalue slots strictly negative "
        "(beta0: -8)",
    )


def test_criterion_08_eigenvalue_dictionary():
    ok = mu_of_lambda(Scalar(Fraction(-10, 3))) == Scalar(0)
    ok = ok and mu_of_lambda(Scalar(0)) == Scalar(Fraction(40, 3))
    # minimum of mu over (-4, 0) is -1/9 at lambda = -11/3
    lam_min = Scalar(Fraction(-11, 3))
    ok = ok and mu_of_lambda(lam_min) == Scalar(Fraction(-1, 9))
    rng = random.Random(808)
    for _ in range(300):
        lam = Scalar(Fraction(rng.randint(-399, -1), 100))
        ok = ok and mu_of_lambda(lam) >= Scalar(Fraction(-1, 9))
    roots = lambda_of_mu(Scalar(Fraction(64, 5)))
    ok = ok and len(roots) == 1 and roots[0].exact
    ok = ok and roots[0].value == (Scalar(-55) + SQRT2905) / 15
    report(
        "8",
        ok,
        "mu(-10/3) = 0, mu(0) = 40/3, min mu = -1/9 at -11/3, "
        "lambda(64/5) = (-55+sqrt2905)/15 exactly",
    )


def test_criterion_09a_casimir_values():
    ok = casimir(IrrepLabel(1, 1, 0)) == Scalar(Fraction(-2, 3))
    ok = ok and casimir(IrrepLabel(1, 0, 0)) == Scalar(Fraction(-5, 12))
    ok = ok and casimir(IrrepLabel(0, 0, 1)) == Scalar(Fraction(-3, 8))
    ok = ok and casimir(IrrepLabel(0, 0, 0)) == Scalar(0)
    report("9a", ok, "Casimir values (-2/3, -5/12, -3/8, 0) exact")


def test_criterion_09b_enumeration_exhaustive():
    start = time.monotonic()
    records = enumerate_candidates(Scalar(-1), Scalar(0))
    elapsed = time.monotonic() - start
    labels = {(r.label.k1, r.label.k2, r.label.l) for r in records}
    # the four printed candidates are found ...
    ok = {(1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, 0)} <= labels
    # ... and the monotone enumeration is exhaustive (brute-force check)
    brute = set()
    for k1 in range(0, 9):
        for k2 in range(0, k1 + 1):
            for l in range(0, 9):
                c = casimir(IrrepLabel(k1, k2, l))
                if Scalar(-1) < c <= Scalar(0):
                    brute.add((k1, k2, l))
    ok = ok and labels == brute and elapsed < 1.0
    report(
        "9b",
        ok,
        f"the four printed labels found; enumeration provably exhaustive "
        f"({len(labels)} labels) in {elapsed:.2f}s",
    )


def test_criterion_09c_exactly_four_as_stated():
    """Faithful implementation of the literal criterion; expected to FAIL.

    An exhaustive enumeration of Cas in (-1, 0] must also return
    (1,0,1), whose Casimir -(5/12) - (3/8) = -19/24 lies in the window;
    the printed list of four omits it.  'Returns exactly those four' and
    'proves exhaustion' are therefore contradictory, and this artifact
    refuses to hide the fifth label.  See the README and decisions notes.
    """
    records = enumerate_candidates(Scalar(-1), Scalar(0))
    labels = {(r.label.k1, r.label.k2, r.label.l) for r in records}
    extra = sorted(labels - {(1, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, 0)})
    report(
        "9c",
        len(records) == 4,
        "enumerate_candidates((-1,0]) returns exactly the four printed labels "
        f"(exhaustive set has {len(records)}: extra {extra} with Casimir "
        f"{[str(casimir(IrrepLabel(*e))) for e in extra]})",
    )


def test_criterion_10_obstruction_coefficient():
    ud = ud_hom_data()
    coefficient = hom_obstruction_coefficient(ud, LAMBDA_BAR_PAPER, "e4", (1, 2, 3, 4))
    ok = coefficient == (SQRT5 + SQRT581) * Fraction(3, 5)
    # Type-27 certification.  The A-table frame is NOT the re-indexed
    # e1 -| psi0 frame: the table entries provably fail that check, and
    # pass for exactly one signed-permutation G2 frame (PHI_FRAME).
    reindexed = g2_phi_seven()
    ok = ok and not all(is_type27(v, reindexed) for v in ud.all_values() if not v.is_zero())
    ok = ok and all(is_type27(v, PHI_FRAME) for v in ud.all_values())
    report(
        "10",
        ok,
        "coefficient = 3(sqrt5+sqrt581)/5 exactly; all A-table entries type-27 "
        "in the certified 7-frame (the re-indexed e1-|psi0 frame is provably "
        "incompatible with the verbatim table)",
    )


def test_criterion_11_pipeline():
    start = time.monotonic()
    result = bryant_salamon_pipeline()
    elapsed = time.monotonic() - start
    ok = [(str(c.rate), c.dim) for c in result.e_table] == [("-10/3", 1)]
    ok = ok and result.dimensions["-3"] == 1
    ok = ok and result.dimensions["-2"] == 1
    ok = ok and result.dimensions["-1"] == 1
    ok = ok and result.dimensions["-1/2"] == 1
    ok = ok and result.dimensions["-7/2"] == 0
    ok = ok and elapsed < 60.0
    report(
        "11",
        ok,
        f"E-table {{(-10/3, 1)}}; dim = 1 at nu in {{-3,-2,-1,-1/2}} and 0 at "
        f"nu = -7/2, in {elapsed:.1f}s",
    )


def test_criterion_12_monotonicity_property():
    rng = random.Random(1212)
    ok = True
    for _ in range(1000):
        rates: list[Fraction] = []
        while len(rates) < rng.randint(0, 4):
            candidate = Fraction(rng.randint(-39, -1), 10)
            if candidate not in rates:
                rates.append(candidate)
        link = LinkData(
            name="random",
            dim_h4_minus_l2=rng.randint(0, 3),
            dim_im_upsilon4=rng.randint(0, 3),
            contributions=tuple(
                Contribution(rate=Scalar(r), dim=rng.randint(0, 4)) for r in rates
            ),
        )
        nus = []
        while len(nus) < 2:
            nu = Fraction(rng.randint(-395, -5), 100)
            if all(Scalar(nu) != c.rate for c in link.contributions):
                nus.append(nu)
        lo, hi = sorted(nus)
        ok = ok and (
            moduli_dimension(link, Scalar(lo)).total
            <= moduli_dimension(link, Scalar(hi)).total
        )
    report("12", ok, "moduli_dimension nondecreasing in nu on 1000 random link data")


def test_criterion_13_mu_discrepancy_flag():
    result = bryant_salamon_pipeline()
    flagged = [note for note in result.mu_discrepancies if "(1,1,0)" in note]
    ok = bool(flagged) and "80/9" in flagged[0] and "64/5" in flagged[0]
    ok = ok and "inconsistent" in flagged[0]
    record = next(
        c.record
        for c in result.candidates
        if (c.record.label.k1, c.record.label.k2, c.record.label.l) == (1, 1, 0)
    )
    ok = ok and record.mu_scal42 == Scalar(Fraction(80, 9))
    ok = ok and record.paper_mu == Scalar(Fraction(64, 5))
    ok = ok and record.consistent_with_paper is False
    report(
        "13",
        ok,
        "record for (1,1,0) carries formula mu = 80/9 and printed mu = 64/5, "
        "explicitly marked inconsistent",
    )
