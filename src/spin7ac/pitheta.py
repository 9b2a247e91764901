"""Binary64 realization of the tangent/normal splitting psi0 + eta = Pi + Theta.

For small anti-self-dual eta the 4-form psi0 + eta splits uniquely into a
point of the GL(8,R)-orbit of psi0 plus a type-27 form.  We solve

    F(A, zeta) = pullback(exp(A), psi0) + zeta - psi0 - eta = 0

by Newton's method over the 70-dimensional unknown space
W + Lambda^4_27, where W = R*Id + S^2_0 + Lambda^2_7 is the chosen
complement of the stabiliser algebra inside gl(8,R) (43 + 27 = 70).  The
Jacobian at the origin is (A, zeta) |-> gl_inf_action(A, psi0) + zeta,
which is a linear isomorphism onto Lambda^4.  Its inverse, formed once,
gives Newton's start: the split's exact second-order jet in eta
(``_jet_seed``), within O(|eta|^3) of the solution.  From there every
step is the full Newton step, with no line search: at the ball's edge
the worst full step still cuts the residual 29-fold.

Newton stays in the 70-dimensional space: pullback by exp(A) acts on
Lambda^4 as exp(D_A), where D_A = rho(A) = sum a_i G_i over the 2,590
integer nonzeros of the ``rho`` generators G_i of W, so pi = exp(D_A) psi0
is one action of a 70x70 exponential on a vector (``exp_action``, a Taylor
series of matvecs whose length a tail bound fixes in advance; Al-Mohy and
Higham 2011).  It is the module's one exponential: exp_action(X, I8) is
the group element exp(X), and ``compound4``, its 4x4 minors, gives the
independent cross-check Lambda^4(exp X) = exp(rho(X)).

Everything in this module runs in binary64; exact Scalars are converted
on entry.  D_A and the Jacobian sum each entry in the fixed order of the
nonzeros of G_i (``np.bincount``), independent of the host's BLAS, so
results are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .forms import Form, hodge_star, monomial_basis, norm_squared, rho
from .projectors import DENOMINATORS, build_projectors, psi0, sym0_matrix_basis
from .ratmat import identity
from .scalars import Scalar

EPSILON_BALL = 0.1  # admissible |eta|; Newton is well inside its basin here
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 50
_ROUNDOFF = 2.0**-53  # binary64 unit roundoff: where exp_action's series stops
_MAX_TERMS = 30  # never binds on finite v: 15 terms do at |d/s|_1 <= 1/2, |v|_1 <= 70 |v|_inf
_MAX_ACTION_NORM = 1024.0  # far outside Newton's basin; bounds exp_action's steps
_NOT_REACHED = "tol may lie below attainable binary64 accuracy, or eta outside the basin"

_BASIS4 = monomial_basis(8, 4)
_INDEX4 = {key: i for i, key in enumerate(_BASIS4)}
_ROWS = np.array(_BASIS4) - 1  # (70, 4), 0-based


def _taylor_terms(theta: float, v: np.ndarray) -> int:
    """The fewest Taylor terms m of exp(d) v, |d|_1 = theta, that reach roundoff.

    The tail after m terms has 1-norm at most theta^(m+1) e^theta / (m+1)!
    |v|_1, with |v|_1 the sum of all |entries| (for a matrix v, a bound on
    each column's); m is the smallest count that puts it below binary64
    roundoff of |v|_inf, capped at _MAX_TERMS.
    """
    target = _ROUNDOFF * float(np.abs(v).max())
    tail = theta * math.exp(theta) * float(np.abs(v).sum())  # the bound at m = 0
    m = 0
    while tail > target and m < _MAX_TERMS:
        m += 1
        tail *= theta / (m + 1)
    return m


def exp_action(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(d) @ v by a Taylor series of matvecs, without forming exp(d).

    v is a vector or a matrix, so exp_action(d, I) is exp(d).  d is split
    into s = ceil(|d|_1 / 0.5) equal steps, and each step sums m terms, m
    fixed before the series by the a-priori tail bound of ``_taylor_terms``
    at theta = |d|_1 / s (Al-Mohy and Higham 2011), so the loop makes no
    reductions.  A d with non-finite 1-norm, or one above _MAX_ACTION_NORM,
    gives all NaN.
    """
    norm = float(np.linalg.norm(d, 1))
    if not norm <= _MAX_ACTION_NORM:
        return np.full(np.shape(v), np.nan)
    steps = max(1, math.ceil(norm / 0.5))
    d = d / steps
    out = np.asarray(v, dtype=float)
    terms = _taylor_terms(norm / steps, out)
    for _ in range(steps):
        term = out
        for k in range(1, terms + 1):
            term = d @ term / k
            out = out + term
    return out


def compound4(g: np.ndarray) -> np.ndarray:
    """Induced action of g on Lambda^4 coefficients: the pullback matrix.

    Row J, column I holds det(g[I, J]), so that (compound4(g) @ v) are the
    coefficients of pullback(g, sum v_I dx_I).
    """
    sub = g[_ROWS[:, None, :, None], _ROWS[None, :, None, :]]  # (70, 70, 4, 4)
    return np.linalg.det(sub).T.copy()


@lru_cache(maxsize=1)
def _tables():
    """Float tables derived from the exact projector data (built once).

    ``rho`` holds the nonzeros of rho(4, B) for the 43 W-basis elements B
    as (generator, row, col, value) arrays, generator ascending: every
    ``np.bincount`` over them sums each bin in that order, whatever BLAS
    the host has.  ``w_stack`` is the W basis as a (43, 64) stack of
    row-major 8x8 matrices.
    """
    table = build_projectors()
    exact_w = [identity(8)] + sym0_matrix_basis() + table.lambda2_7_matrices
    gen, row, col, value = np.array(
        [(g, *cell, v) for g, b in enumerate(exact_w) for cell, v in rho(4, b).items()]
    ).T
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
    rho_w = (gen, row, col, value.astype(float))
    psi_vec = form_to_lambda4_vector(psi0())
    e27 = np.hstack(e27)  # 70 x 27, orthonormal
    return {
        "w_stack": np.array(exact_w, dtype=float).reshape(43, 64),
        "rho": rho_w,
        "e27": e27,
        # the constant Jacobian J0 = J(psi0) at the origin, inverted once
        "j0_inv": np.linalg.inv(_jacobian(rho_w, e27, psi_vec)),
        "p21": projector(2, 21),
        "p35": projector(4, 35),
        "p27": p27,
        "psi_vec": psi_vec,
    }


def _derivation(rho_w: tuple, a_coeffs: np.ndarray) -> np.ndarray:
    """D_A = sum a_i G_i as a 70x70 array."""
    gen, row, col, value = rho_w
    return np.bincount(row * 70 + col, a_coeffs[gen] * value, 4900).reshape(70, 70)


def _jacobian(rho_w: tuple, e27: np.ndarray, pi_vec: np.ndarray) -> np.ndarray:
    """J(pi) = [G_i pi | E27], the 70x70 Jacobian of F where pi = exp(D_A) psi0."""
    gen, row, col, value = rho_w
    jac_a = np.bincount(gen * 70 + row, value * pi_vec[col], 43 * 70).reshape(43, 70).T
    return np.hstack([jac_a, e27])


def _jet_seed(t: dict, eta_vec: np.ndarray) -> np.ndarray:
    """The split's second-order jet: Newton's start, correct to O(|eta|^3).

    With J0 the Jacobian at the origin, the first order is s1 = J0^-1 eta,
    and the second solves J0 s2 = -1/2 D1^2 psi0 with D1 = rho(A1), the
    W-part A1 of s1; the seed is s1 + s2 = J0^-1 (eta - 1/2 D1 (D1 psi0)).
    """
    j0_inv = t["j0_inv"]
    d1 = _derivation(t["rho"], (j0_inv @ eta_vec)[:43])
    return j0_inv @ (eta_vec - 0.5 * (d1 @ (d1 @ t["psi_vec"])))


def _terms(vec: np.ndarray) -> dict[str, float]:
    """The nonzero coordinates of a 4-form, keyed by its comma-joined indices."""
    return {",".join(map(str, key)): float(vec[i]) for key, i in _INDEX4.items() if vec[i] != 0.0}


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
        return _terms(self.zeta)

    def pi_terms(self) -> dict[str, float]:
        return _terms(self.pi)

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
    """Dense float coefficients of a 4-form over R^8; only nonzero terms convert."""
    if a.n != 8 or a.k != 4:
        raise InputError("expected a 4-form over R^8")
    out = np.zeros(len(_BASIS4))
    try:
        for key, value in a.terms.items():
            out[_INDEX4[key]] = float(value)
    except OverflowError as exc:
        raise InputError("coefficient beyond the float range") from exc
    return out


def _check_eta(eta_vec: np.ndarray, exact: Form | None, tol: float) -> None:
    if not np.isfinite(eta_vec).all():
        raise InputError("eta has non-finite coefficients")
    t = _tables()
    norm = float(np.linalg.norm(eta_vec))
    if exact is not None:
        if hodge_star(exact) != -exact:  # P^4_35 = (I - star)/2, certified by criterion 2
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
    exactly, float vectors up to roundoff.  Newton starts from the jet of
    ``_jet_seed``, takes full steps, and ``iterations`` counts them.  Raises
    if Newton fails to reach ``tol`` within 50 iterations, or stalls: a step
    does not lower the residual (NaN included), or leaves it above ``tol``
    but at binary64 roundoff.  Either way eta lies outside the basin, or
    tol below attainable binary64 accuracy.
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
    rho_w = t["rho"]

    seed = _jet_seed(t, eta_vec)
    a_coeffs, z_coeffs = seed[:43], seed[43:]

    def residual_vec(a_c: np.ndarray, z_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pi_vec = exp_action(_derivation(rho_w, a_c), psi_vec)
        return pi_vec + e27 @ z_c - target, pi_vec

    r, pi_vec = residual_vec(a_coeffs, z_coeffs)
    rnorm = math.sqrt(r @ r)
    floor = 4 * _ROUNDOFF * float(np.linalg.norm(target))  # roundoff of evaluating r
    iterations = 0
    while rnorm > tol:
        if iterations >= MAX_ITERATIONS:
            raise InputError(
                f"Newton did not reach tol {tol:.3e}: residual {rnorm:.3e} after "
                f"{MAX_ITERATIONS} iterations ({_NOT_REACHED})"
            )
        delta = np.linalg.solve(_jacobian(rho_w, e27, pi_vec), -r)
        a_coeffs, z_coeffs = a_coeffs + delta[:43], z_coeffs + delta[43:]
        r, pi_vec = residual_vec(a_coeffs, z_coeffs)
        last, rnorm = rnorm, math.sqrt(r @ r)
        iterations += 1
        if not rnorm < last or tol < rnorm <= floor:
            # min names the lower residual; a NaN never compares lower
            raise InputError(
                f"Newton stalled at residual {min(last, rnorm):.3e} > tol {tol:.3e} ({_NOT_REACHED})"
            )

    return PiThetaResult(
        a_matrix=(a_coeffs @ t["w_stack"]).reshape(8, 8),
        zeta=e27 @ z_coeffs,
        pi=pi_vec,
        residual=rnorm,
        iterations=iterations,
    )

