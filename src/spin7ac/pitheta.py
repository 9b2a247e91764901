"""Binary64 realization of the tangent/normal splitting psi0 + eta = Pi + Theta.

For small anti-self-dual eta the 4-form psi0 + eta splits uniquely into a
point of the GL(8,R)-orbit of psi0 plus a type-27 form.  We solve

    F(A, zeta) = pullback(exp(A), psi0) + zeta - psi0 - eta = 0

by a damped Newton iteration over the 70-dimensional unknown space
W + Lambda^4_27, where W = R*Id + S^2_0 + Lambda^2_7 is the chosen
complement of the stabiliser algebra inside gl(8,R) (43 + 27 = 70).  The
Jacobian at the origin is (A, zeta) |-> gl_inf_action(A, psi0) + zeta,
which is a linear isomorphism onto Lambda^4.

Newton stays in the 70-dimensional space: pullback by exp(A) acts on
Lambda^4 as exp(D_A), where D_A = rho(A) = sum a_i G_i over the integer
``rho`` generators G_i of W, so pi = exp(D_A) psi0 is one action of a
70x70 exponential on a vector (``exp_action``, a Taylor series of matvecs;
Al-Mohy and Higham 2011).  ``matrix_exp`` and ``compound4``, the 8x8
exponential and its 4x4 minors, remain as the independent cross-check
(``pullback_vector``, ``spin7_group_element``).

Everything in this module runs in binary64; exact Scalars are converted
on entry.  Summation orders are fixed (numpy reductions over frozen basis
orderings), so results are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .forms import Form, monomial_basis, norm_squared, rho
from .projectors import DENOMINATORS, build_projectors, psi0, sym0_matrix_basis
from .ratmat import identity
from .scalars import Scalar

EPSILON_BALL = 0.1  # admissible |eta|; Newton is well inside its basin here
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 50
_ROUNDOFF = 2.0**-53  # binary64 unit roundoff: where exp_action's series stops
_MAX_TERMS = 30  # per step |d/s|_1 <= 1/2, so term k is below 2^-k / k! of v
_MAX_ACTION_NORM = 1024.0  # far outside Newton's basin; bounds exp_action's steps
_NOT_REACHED = "tol may lie below attainable binary64 accuracy, or eta outside the basin"

_BASIS4 = monomial_basis(8, 4)
_INDEX4 = {key: i for i, key in enumerate(_BASIS4)}
_ROWS = np.array(_BASIS4) - 1  # (70, 4), 0-based


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """The matrix exponential by scaling-and-squaring with a fixed-order series.

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


def exp_action(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(d) @ v by a Taylor series of matvecs, without forming exp(d).

    d is split into s = ceil(|d|_1 / 0.5) equal steps, and each step sums
    the series until two successive terms fall below binary64 roundoff of
    the partial sum (the truncation rule of Al-Mohy and Higham 2011).  A d
    with non-finite 1-norm, or one above _MAX_ACTION_NORM, gives all NaN.
    """
    norm = float(np.linalg.norm(d, 1))
    if not norm <= _MAX_ACTION_NORM:
        return np.full(np.shape(v), np.nan)
    steps = max(1, math.ceil(norm / 0.5))
    d = d / steps
    out = np.asarray(v, dtype=float)
    for _ in range(steps):
        term = out
        previous = np.inf
        for k in range(1, _MAX_TERMS + 1):
            term = d @ term / k
            out = out + term
            size = float(np.abs(term).max())
            if previous + size <= _ROUNDOFF * float(np.abs(out).max()):
                break
            previous = size
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
    exact_w = [identity(8)] + sym0_matrix_basis() + table.lambda2_7_matrices
    # gl_inf_action(B, .) as a 70x70 matrix per W-basis element B, in one array.
    glact = np.zeros((len(exact_w), len(_BASIS4), len(_BASIS4)))
    for g, b in zip(glact, exact_w):
        for (row, col), value in rho(4, b).items():
            g[row, col] = value
    # N / D in binary64 division of exact small ints: correctly rounded, so
    # bit-identical to float(Fraction(N, D)).
    def projector(degree: int, dim: int) -> np.ndarray:
        return np.array(table.projectors[(degree, dim)], dtype=float) / DENOMINATORS[degree]

    p27 = projector(4, 27)
    # P^4_27 splits into blocks (one of 14 monomials, seven of 8, from the
    # sign flips of psi0) and is dense on each, so its distinct row supports
    # are the blocks; eigh per block keeps their zeros exact (6 + 7 * 3).
    e27 = []
    for idx in map(list, dict.fromkeys(tuple(np.flatnonzero(row)) for row in p27)):
        eigenvalues, eigenvectors = np.linalg.eigh(p27[np.ix_(idx, idx)])
        kept = eigenvectors[:, eigenvalues > 0.5]
        block = np.zeros((70, kept.shape[1]))
        block[idx] = kept
        e27.append(block)
    return {
        "w_matrices": [np.array(m, dtype=float) for m in exact_w],
        "glact": glact,  # (43, 70, 70)
        "e27": np.hstack(e27),  # 70 x 27, orthonormal
        "p21": projector(2, 21),
        "p35": projector(4, 35),
        "p27": p27,
        "psi_vec": _form_to_float(psi0()),
        "lambda21": [np.array(m, dtype=float) for m in table.lambda2_21_matrices],
    }


class PiThetaResult(NamedTuple):
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
    reach ``tol`` within 50 iterations, its backtracking stalls, or a step
    leaves the residual above ``tol`` but at binary64 roundoff: eta lies
    outside the basin, or tol below attainable binary64 accuracy.
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
    glact_flat = glact.reshape(len(glact), -1)  # a view: D_A = a @ glact_flat

    a_coeffs = np.zeros(43)
    z_coeffs = np.zeros(27)

    def assemble(a_c: np.ndarray) -> np.ndarray:
        m = np.zeros((8, 8))
        for c, b in zip(a_c, w_matrices):
            if c != 0.0:
                m += c * b
        return m

    def residual_vec(a_c: np.ndarray, z_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pi_vec = exp_action((a_c @ glact_flat).reshape(70, 70), psi_vec)
        return pi_vec + e27 @ z_c - target, pi_vec

    r, pi_vec = residual_vec(a_coeffs, z_coeffs)
    rnorm = float(np.linalg.norm(r))
    floor = 4 * _ROUNDOFF * float(np.linalg.norm(target))  # roundoff of evaluating r
    iterations = 0
    while rnorm > tol:
        if iterations >= MAX_ITERATIONS:
            raise InputError(
                f"Newton did not reach tol {tol:.3e}: residual {rnorm:.3e} after "
                f"{MAX_ITERATIONS} iterations ({_NOT_REACHED})"
            )
        jac = np.empty((70, 70))
        jac[:, :43] = (glact @ pi_vec).T
        jac[:, 43:] = e27
        delta = np.linalg.solve(jac, -r)
        step = 1.0
        while step > 1e-4:
            trial_a = a_coeffs + step * delta[:43]
            trial_z = z_coeffs + step * delta[43:]
            r_trial, pi_trial = residual_vec(trial_a, trial_z)
            if float(np.linalg.norm(r_trial)) < rnorm:
                break
            step *= 0.5
        else:
            raise InputError(
                f"Newton backtracking stalled at residual {rnorm:.3e} > tol {tol:.3e} "
                f"({_NOT_REACHED})"
            )
        a_coeffs, z_coeffs, pi_vec = trial_a, trial_z, pi_trial
        r, rnorm = r_trial, float(np.linalg.norm(r_trial))
        iterations += 1
        if tol < rnorm <= floor:
            raise InputError(
                f"Newton reached binary64 roundoff at residual {rnorm:.3e} > tol {tol:.3e} "
                f"({_NOT_REACHED})"
            )

    return PiThetaResult(
        a_matrix=assemble(a_coeffs),
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
