"""Binary64 realization of the tangent/normal splitting psi0 + eta = Pi + Theta.

For small anti-self-dual eta the 4-form psi0 + eta splits uniquely into a
point of the GL(8,R)-orbit of psi0 plus a type-27 form.  We solve

    F(A, zeta) = pullback(exp(A), psi0) + zeta - psi0 - eta = 0

by a damped Newton iteration over the 70-dimensional unknown space
W + Lambda^4_27, where W = R*Id + S^2_0 + Lambda^2_7 is the chosen
complement of the stabiliser algebra inside gl(8,R) (43 + 27 = 70).  The
Jacobian at the origin is (A, zeta) |-> gl_inf_action(A, psi0) + zeta,
which is a linear isomorphism onto Lambda^4.

Everything in this module runs in binary64; exact Scalars are converted
on entry.  Summation orders are fixed (numpy reductions over frozen basis
orderings), so results are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError
from .forms import Form, Matrix, monomial_basis, norm_squared, rho
from .projectors import build_projectors, psi0, sym0_matrix_basis
from .scalars import Scalar

EPSILON_BALL = 0.1  # admissible |eta|; Newton is well inside its basin here
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 50

_BASIS4 = monomial_basis(8, 4)
_INDEX4 = {key: i for i, key in enumerate(_BASIS4)}
_ROWS = np.array(_BASIS4) - 1  # (70, 4), 0-based


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a fixed-order series.

    Relative error below 1e-12 for |m| <= 1 (the only regime we use).
    """
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        m = m / (2.0**squarings)
    n = m.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 19):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def compound4(g: np.ndarray) -> np.ndarray:
    """Induced action of g on Lambda^4 coefficients: the pullback matrix.

    Row J, column I holds det(g[I, J]), so that (compound4(g) @ v) are the
    coefficients of pullback(g, sum v_I dx_I).
    """
    sub = g[_ROWS[:, None, :, None], _ROWS[None, :, None, :]]  # (70, 70, 4, 4)
    return np.linalg.det(sub).T.copy()


def _form_to_float(a: Form) -> np.ndarray:
    """Dense float coefficients of a 4-form over R^8; only nonzero terms convert."""
    out = np.zeros(len(_BASIS4))
    for key, value in a.terms.items():
        out[_INDEX4[key]] = float(value)
    return out


@lru_cache(maxsize=1)
def _tables():
    """Float tables derived from the exact projector data (built once)."""
    table = build_projectors()
    exact_w = [Matrix.identity(8)] + sym0_matrix_basis() + table.lambda2_7_matrices
    # gl_inf_action(B, .) as a 70x70 matrix per W-basis element B.
    glact = []
    for b in exact_w:
        g = np.zeros((len(_BASIS4), len(_BASIS4)))
        for (row, col), value in rho(4, b).items():
            g[row, col] = value
        glact.append(g)
    p27 = np.array(table.projector(4, 27), dtype=float)
    eigenvalues, eigenvectors = np.linalg.eigh(p27)
    return {
        "w_matrices": [np.array(m.rows, dtype=float) for m in exact_w],
        "glact": glact,
        "e27": eigenvectors[:, eigenvalues > 0.5],  # 70 x 27, orthonormal
        "p21": np.array(table.projector(2, 21), dtype=float),
        "p35": np.array(table.projector(4, 35), dtype=float),
        "p27": p27,
        "psi_vec": _form_to_float(psi0()),
        "lambda21": [np.array(m.rows, dtype=float) for m in table.lambda2_21_matrices],
    }


@dataclass(frozen=True)
class PiThetaResult:
    """Solution of the splitting at one point.

    ``a_matrix`` lies in the complement W of the stabiliser algebra,
    ``pi`` = pullback(exp(A), psi0) is the orbit point, ``zeta`` the
    type-27 remainder, and pi + zeta - psi0 - eta has norm <= residual.
    """

    a_matrix: np.ndarray
    zeta: np.ndarray
    pi: np.ndarray
    residual: float
    iterations: int

    def zeta_terms(self) -> dict[str, float]:
        return {
            ",".join(map(str, key)): float(self.zeta[i])
            for key, i in _INDEX4.items()
            if self.zeta[i] != 0.0
        }

    def pi_terms(self) -> dict[str, float]:
        return {
            ",".join(map(str, key)): float(self.pi[i])
            for key, i in _INDEX4.items()
            if self.pi[i] != 0.0
        }

    def theta_deviation_from_type27(self) -> float:
        t = _tables()
        return float(np.linalg.norm(t["p27"] @ self.zeta - self.zeta))

    def a_stabiliser_component(self) -> float:
        """Frobenius norm of the spin(7)-component of A (zero up to roundoff).

        The antisymmetric part of A in Lambda^2 coordinates (E_ij - E_ji
        has Frobenius norm sqrt 2) projected by the Lambda^2_21 projector.
        """
        antisym = (self.a_matrix - self.a_matrix.T) / 2
        coords = antisym[np.triu_indices(8, 1)]
        return float(math.sqrt(2) * np.linalg.norm(_tables()["p21"] @ coords))

    def to_json(self) -> dict:
        return {
            "A": [[float(x) for x in row] for row in self.a_matrix],
            "pi": {"n": 8, "k": 4, "terms": self.pi_terms()},
            "zeta": {"n": 8, "k": 4, "terms": self.zeta_terms()},
            "residual": self.residual,
            "iterations": self.iterations,
        }


def form_to_lambda4_vector(a: Form) -> np.ndarray:
    if a.n != 8 or a.k != 4:
        raise InputError("expected a 4-form over R^8")
    try:
        return _form_to_float(a)
    except OverflowError as exc:
        raise InputError("coefficient beyond the float range") from exc


def _check_eta(eta_vec: np.ndarray, exact: Form | None, tol: float) -> None:
    if not np.isfinite(eta_vec).all():
        raise InputError("eta has non-finite coefficients")
    t = _tables()
    norm = float(np.linalg.norm(eta_vec))
    if exact is not None:
        table = build_projectors()
        if table.apply(4, 35, exact) != exact:
            raise InputError("eta is not anti-self-dual (exact type check failed)")
        if not (norm_squared(exact) < Scalar(Fraction(1, 100))):
            raise InputError(f"|eta| >= {EPSILON_BALL} (outside the admissible ball)")
    else:
        asd_dev = float(np.linalg.norm(t["p35"] @ eta_vec - eta_vec))
        if asd_dev > max(1e-8, 100.0 * tol) * max(norm, 1.0):
            raise InputError(
                f"eta is not anti-self-dual (deviation {asd_dev:.3e})"
            )
        if norm >= EPSILON_BALL:
            raise InputError(f"|eta| = {norm:.4f} >= {EPSILON_BALL}")


def pi_theta(eta: Form | np.ndarray, tol: float = DEFAULT_TOL) -> PiThetaResult:
    """Split psi0 + eta into an orbit point and a type-27 remainder.

    eta must be anti-self-dual with |eta| < 0.1; exact Forms are checked
    exactly, float vectors up to roundoff.  Raises if Newton fails to
    reach ``tol`` within 50 iterations (eta outside the basin).
    """
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, not {tol!r}")
    t = _tables()
    if isinstance(eta, Form):
        eta_vec = form_to_lambda4_vector(eta)
        _check_eta(eta_vec, eta, tol)
    else:
        eta_vec = np.asarray(eta, dtype=float)
        if eta_vec.shape != (70,):
            raise InputError("eta vector must have shape (70,)")
        _check_eta(eta_vec, None, tol)

    psi_vec = t["psi_vec"]
    target = psi_vec + eta_vec
    e27 = t["e27"]
    w_matrices = t["w_matrices"]
    glact = t["glact"]

    a_coeffs = np.zeros(43)
    z_coeffs = np.zeros(27)

    def assemble(a_c: np.ndarray) -> np.ndarray:
        m = np.zeros((8, 8))
        for c, b in zip(a_c, w_matrices):
            if c != 0.0:
                m += c * b
        return m

    def residual_vec(a_c: np.ndarray, z_c: np.ndarray) -> np.ndarray:
        pi_vec = compound4(matrix_exp(assemble(a_c))) @ psi_vec
        return pi_vec + e27 @ z_c - target

    r = residual_vec(a_coeffs, z_coeffs)
    rnorm = float(np.linalg.norm(r))
    iterations = 0
    while rnorm > tol:
        if iterations >= MAX_ITERATIONS:
            raise InputError(
                f"Newton did not converge: residual {rnorm:.3e} after "
                f"{MAX_ITERATIONS} iterations (eta outside the basin?)"
            )
        pi_vec = compound4(matrix_exp(assemble(a_coeffs))) @ psi_vec
        jac = np.empty((70, 70))
        for i, g in enumerate(glact):
            jac[:, i] = g @ pi_vec
        jac[:, 43:] = e27
        delta = np.linalg.solve(jac, -r)
        step = 1.0
        while step > 1e-4:
            trial_a = a_coeffs + step * delta[:43]
            trial_z = z_coeffs + step * delta[43:]
            r_trial = residual_vec(trial_a, trial_z)
            if float(np.linalg.norm(r_trial)) < rnorm:
                break
            step *= 0.5
        else:
            raise InputError("Newton backtracking stalled (eta outside the basin?)")
        a_coeffs, z_coeffs = trial_a, trial_z
        r, rnorm = r_trial, float(np.linalg.norm(r_trial))
        iterations += 1

    a_matrix = assemble(a_coeffs)
    pi_vec = compound4(matrix_exp(a_matrix)) @ psi_vec
    return PiThetaResult(
        a_matrix=a_matrix,
        zeta=e27 @ z_coeffs,
        pi=pi_vec,
        residual=rnorm,
        iterations=iterations,
    )


def pullback_vector(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pullback action of an 8x8 float matrix on Lambda^4 coefficients."""
    return compound4(np.asarray(g, dtype=float)) @ np.asarray(v, dtype=float)


def spin7_group_element(coeffs: np.ndarray) -> np.ndarray:
    """exp of the Lambda^2_21 combination with the given 21 coefficients."""
    t = _tables()
    basis = t["lambda21"]
    if len(coeffs) != len(basis):
        raise InputError(f"expected {len(basis)} coefficients")
    m = np.zeros((8, 8))
    for c, b in zip(coeffs, basis):
        m += float(c) * b
    return matrix_exp(m)
