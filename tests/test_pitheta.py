from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ratref
from spin7ac import pitheta
from spin7ac.errors import InputError
from spin7ac.forms import Form, Matrix, gl_inf_action, hodge_star, monomial_basis, rho
from spin7ac.projectors import DENOMINATORS, PSI0_TERMS, build_projectors, sym0_matrix_basis
from spin7ac.pitheta import (
    DEFAULT_TOL,
    PiThetaResult,
    compound4,
    exp_action,
    form_to_lambda4_vector,
    pi_theta,
    _tables,
)
from spin7ac.scalars import Scalar


def random_asd(rng: np.random.Generator, norm: float) -> np.ndarray:
    p35 = _tables()["p35"]
    v = p35 @ rng.standard_normal(70)
    return v * (norm / np.linalg.norm(v))


def spin7_basis() -> np.ndarray:
    """The Lambda^2_21 = spin(7) basis as a (21, 64) stack of row-major 8x8 matrices."""
    return np.array(build_projectors().lambda2_21_matrices, dtype=float).reshape(21, 64)


def test_matrix_exp_zero_and_diagonal():
    # The 8x8 exponential is exp_action on the identity.
    assert np.allclose(exp_action(np.zeros((8, 8)), np.eye(8)), np.eye(8), atol=1e-15)
    d = np.zeros((8, 8))
    d[0, 0] = math.log(2.0)
    out = exp_action(d, np.eye(8))
    assert abs(out[0, 0] - 2.0) < 1e-12
    assert np.allclose(out[1:, 1:], np.eye(7), atol=1e-15)


def test_matrix_exp_inverse_identity():
    rng = np.random.default_rng(100)
    for _ in range(10):
        m = rng.standard_normal((8, 8))
        m /= max(1.0, np.linalg.norm(m, 1))
        prod = exp_action(m, np.eye(8)) @ exp_action(-m, np.eye(8))
        assert np.linalg.norm(prod - np.eye(8)) < 1e-10


def test_pi_theta_at_zero():
    result = pi_theta(Form.zero(8, 4))
    assert result.residual == 0.0
    assert np.linalg.norm(result.a_matrix) == 0.0
    assert np.linalg.norm(result.zeta) == 0.0
    assert np.allclose(result.pi, _tables()["psi_vec"])


def test_theta_second_order_smallness():
    t = Fraction(1, 1000)
    eta = (Form.monomial(8, (1, 2, 3, 4)) - Form.monomial(8, (5, 6, 7, 8))).scale(
        Scalar(t)
    )
    result = pi_theta(eta)
    assert result.residual <= DEFAULT_TOL
    assert np.linalg.norm(result.zeta) <= 10 * float(t) ** 2


def test_dtheta_vanishes_at_origin():
    rng = np.random.default_rng(101)
    for _ in range(20):
        direction = random_asd(rng, 1.0)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            result = pi_theta(t * direction, tol=1e-12)
            ratios.append(np.linalg.norm(result.zeta) / t)
        # |Theta(t eta)|/t decreases at least linearly in t.
        assert ratios[1] <= 0.2 * ratios[0]
        assert ratios[2] <= 0.2 * ratios[1]


# eta_hat = sum k/12 (dx_I - *dx_I): anti-self-dual, |eta_hat| = 1 exactly
# (2 * (1 + 1 + 1 + 4 + 4 + 9 + 16 + 36) = 144), and off psi0's 14 monomials.
_GENERIC_PAIRS = (
    ((1, 2, 3, 5), 1), ((1, 2, 4, 7), -1), ((1, 3, 4, 6), 1), ((1, 2, 6, 8), 2),
    ((1, 3, 5, 6), -2), ((1, 4, 7, 8), 3), ((1, 5, 6, 7), -4), ((1, 2, 3, 8), 6),
)


def test_newton_matches_the_exact_second_order_jet(table):
    # With L(B) = rho(B) psi0 on gl(8) and eta = t eta_hat, the split is
    # A = t A1 + t^2 A2 + O(t^3) and zeta = t^2 zeta2 + O(t^3), where
    # A1 = L*(eta_hat) / 4 lies in S^2_0 and L(A1) = eta_hat (zeta1 = 0),
    # and q = -1/2 rho(A1)^2 psi0 = -1/2 rho(A1) eta_hat splits as
    # L(A2) + zeta2 with zeta2 = P^4_27 q.  q has no Lambda^4_7 or _35 part,
    # and <q, psi0> = -|eta_hat|^2 / 2, so A2 = -Id / 112 (L(Id) = 4 psi0).
    # All exact, in Fractions; Newton is checked against it.
    index = {key: i for i, key in enumerate(monomial_basis(8, 4))}
    generators = [
        rho(4, [[int((r, c) == ij) for c in range(8)] for r in range(8)])
        for ij in itertools.product(range(8), repeat=2)
    ]

    def act(b, v):  # rho(B) v, B given by its 64 row-major entries
        out = [Fraction(0)] * 70
        for x, g in zip(b, generators):
            if x:
                for (row, col), value in g.items():
                    out[row] += x * value * v[col]
        return out

    psi = [0] * 70
    for key, sign in PSI0_TERMS:
        psi[index[key]] = sign
    columns = [act([int(k == m) for m in range(64)], psi) for k in range(64)]  # L(E_ij)

    eta = Form.zero(8, 4)
    for key, k in _GENERIC_PAIRS:
        e = Form.monomial(8, key)
        eta = eta + (e - hodge_star(e)).scale(Scalar(Fraction(k, 12)))
    assert table.apply(4, 35, eta) == eta
    eta_hat = [Fraction(0)] * 70
    for key, value in eta.terms.items():
        eta_hat[index[key]] = value.as_fraction()
    assert ratref.dot(eta_hat, eta_hat) == 1

    a1 = [ratref.dot(c, eta_hat) / 4 for c in columns]
    assert act(a1, psi) == eta_hat
    assert all(a1[8 * i + j] == a1[8 * j + i] for i in range(8) for j in range(8))
    assert sum(a1[::9]) == 0
    q = [-x / 2 for x in act(a1, eta_hat)]
    zeta2 = [Fraction(ratref.dot(row, q), DENOMINATORS[4]) for row in table.projectors[(4, 27)]]
    a2 = [Fraction(-int(k % 9 == 0), 112) for k in range(64)]
    assert [x + z for x, z in zip(act(a2, psi), zeta2)] == q

    a1, a2 = (np.array(a, dtype=float).reshape(8, 8) for a in (a1, a2))
    zeta2, eta_hat = np.array(zeta2, dtype=float), np.array(eta_hat, dtype=float)
    tables = _tables()
    errors = []
    for t in (0.08, 0.04, 0.02, 0.01):
        result = pi_theta(t * eta_hat, tol=1e-14)
        errors.append((np.abs(result.zeta - t * t * zeta2).max(),
                       np.abs(result.a_matrix - t * a1 - t * t * a2).max()))
        # Newton's start is this jet to roundoff, so by the ratios below it
        # lies O(t^3) from the split.
        seed = pitheta._jet_seed(tables, t * eta_hat)
        seed_a = (seed[:43] @ tables["w_stack"]).reshape(8, 8)
        assert np.abs(tables["e27"] @ seed[43:] - t * t * zeta2).max() <= 2.0**-50 * t
        assert np.abs(seed_a - t * a1 - t * t * a2).max() <= 2.0**-50 * t
    for (zeta_error, a_error), (zeta_half, a_half) in zip(errors, errors[1:]):
        assert zeta_error >= 12 * zeta_half
        assert a_error >= 6 * a_half


def test_jet_seed_never_costs_newton_an_iteration(monkeypatch):
    # On draws over the whole ball, most near its edge |eta| = 0.1, a split
    # from the jet takes no more Newton steps than one from the origin, and
    # both reach the same point.
    rng = np.random.default_rng(115)
    etas = [random_asd(rng, size) for size in np.concatenate(
        [rng.uniform(0.001, 0.09, 100), rng.uniform(0.09, 0.0999, 100)])]
    seeded = [pi_theta(eta) for eta in etas]
    monkeypatch.setattr(pitheta, "_jet_seed", lambda t, eta_vec: np.zeros(70))
    plain = [pi_theta(eta) for eta in etas]
    for result, unseeded in zip(seeded, plain):
        assert result.iterations <= unseeded.iterations
        assert np.abs(result.a_matrix - unseeded.a_matrix).max() <= 1e-10
    assert sum(r.iterations for r in seeded) < sum(r.iterations for r in plain)


def test_idempotence_of_splitting():
    rng = np.random.default_rng(102)
    psi_vec = _tables()["psi_vec"]
    for _ in range(5):
        eta = random_asd(rng, 0.05)
        first = pi_theta(eta)
        replay = first.pi + first.zeta - psi_vec
        second = pi_theta(replay)
        assert np.linalg.norm(second.zeta - first.zeta) <= 10 * DEFAULT_TOL
        assert np.linalg.norm(second.a_matrix - first.a_matrix) <= 10 * DEFAULT_TOL


def test_equivariance_under_stabiliser():
    rng = np.random.default_rng(103)
    for _ in range(10):
        eta = random_asd(rng, 0.04)
        coeffs = rng.standard_normal(21)
        coeffs *= 0.5 / np.linalg.norm(coeffs)
        g = compound4(exp_action((coeffs @ spin7_basis()).reshape(8, 8), np.eye(8)))
        lhs = g @ pi_theta(eta).pi
        rhs = pi_theta(g @ eta).pi
        assert np.linalg.norm(lhs - rhs) <= 10 * DEFAULT_TOL


def test_result_invariants():
    rng = np.random.default_rng(104)
    eta = random_asd(rng, 0.05)
    result = pi_theta(eta)
    assert result.theta_deviation_from_type27() < 1e-12
    assert result.a_stabiliser_component() < 1e-12
    target = _tables()["psi_vec"] + eta
    assert np.linalg.norm(result.pi + result.zeta - target) <= result.residual + 1e-15


def test_a_stabiliser_component_is_the_projection_norm():
    t = _tables()
    rng = np.random.default_rng(109)
    zero = np.zeros(70)
    for _ in range(5):
        spin7 = (rng.standard_normal(21) @ spin7_basis()).reshape(8, 8)
        w = (rng.standard_normal(43) @ t["w_stack"]).reshape(8, 8)
        for a, expected in ((spin7, np.linalg.norm(spin7)), (w, 0.0)):
            result = PiThetaResult(a_matrix=a, zeta=zero, pi=zero, residual=0.0, iterations=0)
            assert abs(result.a_stabiliser_component() - expected) <= 1e-12


def _dense_rho(rho_w: tuple) -> np.ndarray:
    """A (generator, row, col, value) table of rho as a dense (43, 70, 70) array."""
    gen, row, col, value = rho_w
    out = np.zeros((43, 70, 70))
    out[gen, row, col] = value
    return out


def test_glact_is_gl_inf_action(table):
    # The rho-built tables against the exact action, column by column.
    glact = _dense_rho(_tables()["rho"])
    w = [Matrix.identity(8)] + [Matrix(m) for m in sym0_matrix_basis() + table.lambda2_7_matrices]
    for i in (0, 10, 35, 36, 42):
        for col, key in enumerate(monomial_basis(8, 4)):
            image = gl_inf_action(w[i], Form.monomial(8, key))
            assert np.array_equal(glact[i][:, col], form_to_lambda4_vector(image))


def test_build_and_tables_make_no_matrix(monkeypatch):
    # The Spin(7) build path runs on int matrices: no forms.Matrix is made.
    def refuse(self, rows):
        raise AssertionError("forms.Matrix constructed")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    assert build_projectors.__wrapped__() == build_projectors()
    rebuilt = _tables.__wrapped__()
    assert np.array_equal(_dense_rho(rebuilt["rho"]), _dense_rho(_tables()["rho"]))
    with pytest.raises(AssertionError, match="forms.Matrix constructed"):
        Matrix.identity(8)


def test_sparse_action_sums_in_generator_order(table):
    # D_A and the Jacobian block against a sequential sum over the 43
    # generators, ascending, each from rho: equal to the last bit, so the
    # summation order is the code's and not the host BLAS's.
    w = [[[int(i == j) for j in range(8)] for i in range(8)]]
    w += sym0_matrix_basis() + table.lambda2_7_matrices
    generators = [rho(4, b) for b in w]
    rho_w = _tables()["rho"]
    assert len(rho_w[0]) == sum(map(len, generators)) == 2590
    rng = np.random.default_rng(114)
    for _ in range(10):
        a, pi_vec = rng.standard_normal(43), rng.standard_normal(70)
        d_a, jac = np.zeros((70, 70)), np.zeros((70, 43))
        for i, g in enumerate(generators):
            for (row, col), value in g.items():
                d_a[row, col] += a[i] * value
                jac[row, i] += value * pi_vec[col]
        assert np.array_equal(pitheta._derivation(rho_w, a), d_a)
        jacobian = pitheta._jacobian(rho_w, _tables()["e27"], pi_vec)
        assert np.array_equal(jacobian[:, :43], jac)
        assert np.array_equal(jacobian[:, 43:], _tables()["e27"])


def test_pi_theta_keeps_exact_zeros():
    # The split of this eta lives on psi0's 14 monomials and a diagonal A;
    # no coordinate outside them may pick up roundoff.
    eta = (Form.monomial(8, (1, 2, 3, 4)) - Form.monomial(8, (5, 6, 7, 8))).scale(
        Scalar(Fraction(1, 50))
    ) + (Form.monomial(8, (1, 2, 5, 6)) - Form.monomial(8, (3, 4, 7, 8))).scale(
        Scalar(Fraction(1, 40))
    )
    result = pi_theta(eta)
    psi_keys = {",".join(map(str, key)) for key, _ in PSI0_TERMS}
    assert set(result.pi_terms()) == psi_keys
    assert set(result.zeta_terms()) == psi_keys
    assert np.array_equal(result.a_matrix, np.diag(np.diag(result.a_matrix)))


def test_e27_is_block_orthonormal_basis_of_p27():
    t = _tables()
    e27, p27 = t["e27"], t["p27"]
    assert e27.shape == (70, 27)
    assert np.abs(e27.T @ e27 - np.eye(27)).max() < 1e-14
    assert np.abs(p27 @ e27 - e27).max() < 1e-14
    blocks = [set(block) for block in {tuple(np.flatnonzero(row)) for row in p27}]
    assert sorted(map(len, blocks)) == [8] * 7 + [14]
    assert set().union(*blocks) == set(range(70))
    for column in e27.T:
        assert any(set(np.flatnonzero(column)) <= block for block in blocks)


@pytest.mark.parametrize("key, degree, dim", [("p21", 2, 21), ("p27", 4, 27), ("p35", 4, 35)])
def test_float_projectors_are_float_of_fractions(table, key, degree, dim):
    expected = np.array(table.projector(degree, dim), dtype=float)
    assert _tables()[key].tobytes() == expected.tobytes()


def test_pi_computed_once_per_newton_step(monkeypatch):
    # pi is exp(D_A) psi0 from the Lambda^4 kernel; the 8x8 path is unused.
    calls, minors = [], []

    def counted(d, v):
        calls.append(d)
        return exp_action(d, v)

    def counted_minors(g):
        minors.append(g)
        return compound4(g)

    monkeypatch.setattr(pitheta, "exp_action", counted)
    monkeypatch.setattr(pitheta, "compound4", counted_minors)
    rng = np.random.default_rng(110)
    for _ in range(3):
        calls.clear()
        result = pi_theta(random_asd(rng, 0.05))
        assert result.iterations >= 2
        assert len(calls) == result.iterations + 1
    assert minors == []


def test_newton_stops_at_roundoff(monkeypatch):
    # tol far below binary64 accuracy: the stall is reported as soon as a
    # step's residual sits at roundoff of psi0, not after MAX_ITERATIONS.
    calls = []

    def counted(d, v):
        calls.append(d)
        return exp_action(d, v)

    monkeypatch.setattr(pitheta, "exp_action", counted)
    terms = {(1, 2, 3, 4): Fraction(1, 50), (5, 6, 7, 8): Fraction(-1, 50),
             (1, 2, 5, 6): Fraction(1, 40), (3, 4, 7, 8): Fraction(-1, 40),
             (1, 3, 5, 8): Fraction(1, 60), (2, 4, 6, 7): Fraction(1, 60)}
    eta = Form(8, 4, {k: Scalar(v) for k, v in terms.items()})
    with pytest.raises(InputError, match="residual .* > tol 1.000e-300 .*binary64"):
        pi_theta(eta, tol=1e-300)
    assert len(calls) <= pitheta.MAX_ITERATIONS // 5
    assert pi_theta(eta).residual <= DEFAULT_TOL


def _nan_after(first_calls: int):
    """exp_action, but NaN on every call after the first first_calls."""
    calls = []

    def patched(d, v):
        calls.append(d)
        if len(calls) > first_calls:
            return np.full_like(v, np.nan)
        return exp_action(d, v)

    return patched, calls


def test_newton_reports_iteration_limit(monkeypatch):
    monkeypatch.setattr(pitheta, "MAX_ITERATIONS", 1)
    with pytest.raises(InputError) as info:
        pi_theta(random_asd(np.random.default_rng(111), 0.05), tol=1e-14)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("Newton did not reach tol 1.000e-14: residual ")
    assert message.endswith(f"after 1 iterations ({pitheta._NOT_REACHED})")


def test_newton_stalls_at_once_on_a_nan_step(monkeypatch):
    # The first step's residual is NaN: no retry, and the message names the
    # start's finite residual, not the NaN.
    eta = random_asd(np.random.default_rng(112), 0.05)
    patched, calls = _nan_after(1)
    monkeypatch.setattr(pitheta, "exp_action", patched)
    with pytest.raises(InputError) as info:
        pi_theta(eta)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("Newton stalled at residual ") and "nan" not in message
    assert message.endswith(f"> tol {DEFAULT_TOL:.3e} ({pitheta._NOT_REACHED})")
    assert len(calls) == 2  # the start and the one full step


def test_full_newton_steps_contract_tenfold_at_the_edge_of_the_ball(monkeypatch):
    # Why Newton needs no line search: on |eta| in [0.099, 0.1), the edge of
    # the ball, every full step lowers the residual at least 10x (the worst
    # seen over 4,000 draws is 29x).  Each step solves J delta = -r, so the
    # right-hand sides are the residuals before each step.
    rhs = []
    solve = np.linalg.solve

    def recorded(a, b):
        rhs.append(float(np.linalg.norm(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    rng = np.random.default_rng(115)
    for _ in range(200):
        rhs.clear()
        result = pi_theta(random_asd(rng, rng.uniform(0.099, 0.1)))
        norms = rhs + [result.residual]
        assert result.residual <= DEFAULT_TOL and len(norms) == result.iterations + 1
        assert all(after <= before / 10 for before, after in zip(norms, norms[1:])), norms


def _gl8_derivations() -> np.ndarray:
    """rho(E_ij) on Lambda^4 as a (64, 70, 70) array, row-major over (i, j)."""
    out = np.zeros((64, 70, 70))
    for d, (i, j) in zip(out, itertools.product(range(1, 9), repeat=2)):
        unit = [[int((r, c) == (i, j)) for c in range(1, 9)] for r in range(1, 9)]
        for (row, col), value in rho(4, unit).items():
            d[row, col] = value
    return out


def test_exp_action_is_pullback_by_matrix_exp():
    # exp(rho(A)) v against the 8x8 exponential and its 4x4 minors, for A in
    # all of gl(8) with |A|_1 up to 2, so that the kernel takes several steps.
    generators = _gl8_derivations()
    rng = np.random.default_rng(111)
    for size in np.linspace(0.05, 2.0, 12):
        a = rng.standard_normal((8, 8))
        a *= size / np.linalg.norm(a, 1)
        v = rng.standard_normal(70)
        d = np.tensordot(a.reshape(64), generators, 1)
        expected = compound4(exp_action(a, np.eye(8))) @ v
        assert np.abs(exp_action(d, v) - expected).max() <= 1e-13
    assert np.array_equal(exp_action(np.zeros((70, 70)), v), v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(exp_action(d, np.zeros(70)), np.zeros(70))


def test_exp_action_matches_the_exact_series():
    # exp(M / q) v in Fractions, 30 Taylor terms (tail below 1e-40), for
    # integer M and the q that puts |M / q|_1 just under 1/2: one step, and
    # the most terms.  The fixed term count reaches roundoff of v.  M is
    # rho(B) on v = psi0 for integer B in gl(8), where B = 50 Id, with
    # rho(B) = 200 Id, makes the tail bound tight; or an integer 8x8 M on
    # the matrix operand v = I8, where exp_action is exp(M / q) itself.
    psi = _tables()["psi_vec"]
    rng = np.random.default_rng(116)
    cases = [
        (rho(4, b.tolist()), psi)
        for b in [50 * np.eye(8, dtype=int)] + [rng.integers(-3, 4, (8, 8)) for _ in range(2)]
    ]
    m = rng.integers(-9, 10, (8, 8))
    cases.append(({(r, c): int(m[r, c]) for r, c in zip(*np.nonzero(m))}, np.eye(8)))
    for action, v in cases:
        n = len(v)
        rows: dict[int, list[tuple[int, int]]] = {}
        column_sums = [0] * n
        for (row, col), value in action.items():
            rows.setdefault(row, []).append((col, value))
            column_sums[col] += abs(value)
        q = 2 * max(column_sums) + 1
        exact = []
        for column in np.reshape(v, (n, -1)).T:
            term = series = [Fraction(int(x)) for x in column]
            for k in range(1, 31):
                term = [
                    ratref.dot([Fraction(value, q * k) for _, value in rows.get(r, ())],
                               [term[c] for c, _ in rows.get(r, ())])
                    for r in range(n)
                ]
                series = [x + y for x, y in zip(series, term)]
            exact.append(series)
        d = np.zeros((n, n))
        for (row, col), value in action.items():
            d[row, col] = value / q
        assert 0.49 < np.linalg.norm(d, 1) < 0.5
        expected = np.array(exact, dtype=float).T.reshape(np.shape(v))
        error = np.abs(exp_action(d, v) - expected).max()
        assert error <= 4 * 2.0**-53 * np.abs(v).sum()


def test_taylor_terms_is_the_fewest_that_meet_the_tail_bound():
    def tail(m, theta, v):  # bound on the 1-norm of the series after m terms
        return theta ** (m + 1) * math.exp(theta) / math.factorial(m + 1) * np.abs(v).sum()

    rng = np.random.default_rng(117)
    for theta in (0.0, 1e-12, 1e-3, 0.01, 0.1, 0.25, 0.4999):
        for v in (rng.standard_normal(70), _tables()["psi_vec"], np.eye(70)[5]):
            target = 2.0**-53 * np.abs(v).max()
            m = pitheta._taylor_terms(theta, v)
            assert tail(m, theta, v) <= target
            assert m == 0 or tail(m - 1, theta, v) > target


def test_exp_action_rejects_unbounded_derivations():
    v = np.ones(70)
    for value in (np.nan, np.inf, 1e300):
        assert np.isnan(exp_action(np.full((70, 70), value), v)).all()


def test_pi_is_pullback_of_psi0_by_exp_a():
    rng = np.random.default_rng(112)
    psi_vec = _tables()["psi_vec"]
    for _ in range(30):
        result = pi_theta(random_asd(rng, rng.uniform(0.001, 0.099)))
        expected = compound4(exp_action(result.a_matrix, np.eye(8))) @ psi_vec
        assert np.abs(result.pi - expected).max() <= 1e-14


def test_rejects_non_asd():
    with pytest.raises(InputError):
        pi_theta(Form.monomial(8, (1, 2, 3, 4)).scale(Scalar(Fraction(1, 100))))
    v = np.zeros(70)
    v[0] = 0.01
    with pytest.raises(InputError):
        pi_theta(v)


def test_rejects_large_eta():
    rng = np.random.default_rng(105)
    with pytest.raises(InputError):
        pi_theta(random_asd(rng, 0.2))
    exact_large = (Form.monomial(8, (1, 2, 3, 4)) - Form.monomial(8, (5, 6, 7, 8))).scale(
        Scalar(Fraction(1, 10))
    )
    with pytest.raises(InputError):
        pi_theta(exact_large)


def test_rejects_bad_tol():
    with pytest.raises(InputError):
        pi_theta(Form.zero(8, 4), tol=0.0)
    eta = (Form.monomial(8, (1, 2, 3, 4)) - Form.monomial(8, (5, 6, 7, 8))).scale(
        Scalar(Fraction(1, 20))
    )
    for tol in (math.nan, math.inf):
        with pytest.raises(InputError, match="tol"):
            pi_theta(eta, tol=tol)


def test_rejects_non_finite_eta():
    with pytest.raises(InputError, match="non-finite"):
        pi_theta(np.full(70, np.nan))
    eta = random_asd(np.random.default_rng(108), 0.05)
    eta[3] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        pi_theta(eta)


def test_compound_is_pullback():
    from spin7ac.forms import Matrix, pullback

    rng = np.random.default_rng(106)
    entries = {
        (i, j): int(rng.integers(-2, 3)) for i in range(1, 9) for j in range(1, 9)
    }
    m = Matrix.from_entries(8, entries)
    m_float = np.array([[float(x) for x in row] for row in m.rows])
    a = Form.monomial(8, (1, 2, 5, 6)) + Form.monomial(8, (3, 4, 7, 8)).scale(3)
    exact = pullback(m, a)
    vec = compound4(m_float) @ form_to_lambda4_vector(a)
    assert np.allclose(vec, form_to_lambda4_vector(exact), atol=1e-9)


def test_json_shape():
    rng = np.random.default_rng(107)
    result = pi_theta(random_asd(rng, 0.02))
    payload = result.to_json()
    assert set(payload) == {"A", "pi", "zeta", "residual", "iterations"}
    assert len(payload["A"]) == 8
