from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from spin7ac.errors import InputError
from spin7ac.forms import Form, Matrix, gl_inf_action, monomial_basis
from spin7ac.projectors import sym0_matrix_basis
from spin7ac.pitheta import (
    DEFAULT_TOL,
    PiThetaResult,
    compound4,
    form_to_lambda4_vector,
    matrix_exp,
    pi_theta,
    pullback_vector,
    spin7_group_element,
    _tables,
)
from spin7ac.scalars import Scalar


def random_asd(rng: np.random.Generator, norm: float) -> np.ndarray:
    p35 = _tables()["p35"]
    v = p35 @ rng.standard_normal(70)
    return v * (norm / np.linalg.norm(v))


def test_matrix_exp_zero_and_diagonal():
    assert np.allclose(matrix_exp(np.zeros((8, 8))), np.eye(8), atol=1e-15)
    d = np.zeros((8, 8))
    d[0, 0] = math.log(2.0)
    out = matrix_exp(d)
    assert abs(out[0, 0] - 2.0) < 1e-12
    assert np.allclose(out[1:, 1:], np.eye(7), atol=1e-15)


def test_matrix_exp_inverse_identity():
    rng = np.random.default_rng(100)
    for _ in range(10):
        m = rng.standard_normal((8, 8))
        m /= max(1.0, np.linalg.norm(m, 1))
        prod = matrix_exp(m) @ matrix_exp(-m)
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
        g = spin7_group_element(coeffs)
        lhs = pullback_vector(g, pi_theta(eta).pi)
        rhs = pi_theta(pullback_vector(g, eta)).pi
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
        spin7 = sum(c * b for c, b in zip(rng.standard_normal(21), t["lambda21"]))
        w = sum(c * b for c, b in zip(rng.standard_normal(43), t["w_matrices"]))
        for a, expected in ((spin7, np.linalg.norm(spin7)), (w, 0.0)):
            result = PiThetaResult(a_matrix=a, zeta=zero, pi=zero, residual=0.0, iterations=0)
            assert abs(result.a_stabiliser_component() - expected) <= 1e-12


def test_glact_is_gl_inf_action(table):
    # The rho-built tables against the exact action, column by column.
    glact = _tables()["glact"]
    w = [Matrix.identity(8)] + sym0_matrix_basis() + table.lambda2_7_matrices
    for i in (0, 10, 35, 36, 42):
        for col, key in enumerate(monomial_basis(8, 4)):
            image = gl_inf_action(w[i], Form.monomial(8, key))
            assert np.array_equal(glact[i][:, col], form_to_lambda4_vector(image))


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
