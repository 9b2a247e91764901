"""The model Spin(7) 4-form on R^8 and its irreducible-type projectors.

The table of exact orthogonal projectors is built from first principles:

* Lambda^2_21 is the kernel of  M |-> gl_inf_action(M, psi0)  on
  antisymmetric matrices (the Lie algebra of the stabiliser of psi0),
  Lambda^2_7 its orthogonal complement;
* Lambda^3_8 is spanned by the contractions e_i -| psi0, Lambda^3_48 its
  complement;
* Lambda^4_1 is spanned by psi0, Lambda^4_7 is the infinitesimal image of
  Lambda^2_7, Lambda^4_35 is the anti-self-dual half (Id - *)/2, and
  Lambda^4_27 the remainder of the self-dual half.

Every projector is certified exact: symmetric, idempotent, with trace
(= rank, for a symmetric idempotent) equal to the advertised dimension,
mutually annihilating and summing to the identity per degree.  The checks
run on integer numerators over each degree's common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import ratmat
from .errors import InputError, InternalCheckError
from .forms import (
    Form,
    IndexTuple,
    Matrix,
    Vector,
    form_from_coefficients,
    form_to_coefficients,
    gl_inf_action,
    hodge_star,
    inner_product,
    interior_product,
    merge_sign,
    monomial_basis,
    norm_squared,
)
from .scalars import ZERO, Scalar

TypeLabel = tuple[int, int]  # (degree, dimension), e.g. (4, 35)

VALID_LABELS: dict[int, tuple[int, ...]] = {2: (7, 21), 3: (8, 48), 4: (1, 7, 27, 35)}

# The 14 monomials of the model 4-form, unit coefficients, signs as fixed
# by the coordinate convention dx_1...dx_8 positive.
PSI0_TERMS: tuple[tuple[IndexTuple, int], ...] = (
    ((1, 2, 3, 4), 1),
    ((1, 2, 5, 6), 1),
    ((1, 2, 7, 8), 1),
    ((1, 3, 5, 7), 1),
    ((1, 3, 6, 8), -1),
    ((1, 4, 5, 8), -1),
    ((1, 4, 6, 7), -1),
    ((2, 3, 5, 8), -1),
    ((2, 3, 6, 7), -1),
    ((2, 4, 5, 7), -1),
    ((2, 4, 6, 8), 1),
    ((3, 4, 5, 6), 1),
    ((3, 4, 7, 8), 1),
    ((5, 6, 7, 8), 1),
)


def psi0() -> Form:
    """The model Spin(7) 4-form psi_0 on R^8."""
    return Form(8, 4, {key: Scalar(sign) for key, sign in PSI0_TERMS})


def g2_phi_eight() -> Form:
    """e_1 -| psi0: the G2 3-form of the slice model, supported on dx_2..dx_8."""
    return interior_product(Vector.basis(8, 1), psi0())


def reindex_to_seven(a: Form) -> Form:
    """Shift a form supported on indices 2..8 of R^8 down to R^7."""
    terms = {}
    for key, value in a.terms.items():
        if 1 in key:
            raise InputError("form touches index 1; not tangent to the slice")
        terms[tuple(i - 1 for i in key)] = value
    return Form(7, a.k, terms)


def g2_phi_seven() -> Form:
    """The standard G2 3-form on R^7 (the slice model phi, reindexed)."""
    return reindex_to_seven(g2_phi_eight())


# -- matrix <-> 2-form bookkeeping ---------------------------------------


def antisym_matrix_from_form(omega: Form) -> Matrix:
    """dx_i ^ dx_j  |->  E_ij - E_ji (an isometry up to the global factor 2)."""
    entries: dict[tuple[int, int], Scalar] = {}
    for (i, j), value in omega.terms.items():
        entries[(i, j)] = value
        entries[(j, i)] = -value
    return Matrix.from_entries(omega.n, entries)


def _rational_vector(a: Form, basis: list[IndexTuple]) -> list[Fraction]:
    out = []
    for coeff in form_to_coefficients(a, basis):
        if not coeff.is_rational():
            raise InternalCheckError("projector construction hit an irrational entry")
        out.append(coeff.as_fraction())
    return out


def sym0_matrix_basis() -> list[Matrix]:
    """Basis of traceless symmetric 8x8 matrices: E_ij + E_ji and E_11 - E_kk."""
    out = [
        Matrix.from_entries(8, {(i, j): 1, (j, i): 1})
        for i in range(1, 9)
        for j in range(i + 1, 9)
    ]
    out.extend(
        Matrix.from_entries(8, {(1, 1): 1, (k, k): -1}) for k in range(2, 9)
    )
    return out


def star_matrix(n: int, k: int) -> ratmat.RatMatrix:
    """Matrix of the Hodge star from degree k to degree n-k monomial bases."""
    src = monomial_basis(n, k)
    dst = monomial_basis(n, n - k)
    index = {key: i for i, key in enumerate(dst)}
    mat = ratmat.zeros(len(dst), len(src))
    for col, key in enumerate(src):
        starred = hodge_star(Form.monomial(n, key))
        for skey, value in starred.terms.items():
            mat[index[skey]][col] = value.as_fraction()
    return mat


@dataclass(frozen=True)
class ProjectorTable:
    """Exact orthogonal projectors onto every irreducible Spin(7) type.

    ``projectors`` maps (degree, dim) to a matrix over the lexicographic
    monomial basis of Lambda^degree (R^8)*.  The auxiliary bases are kept
    because the Pi/Theta solver and the 4/7-factor check need them.
    """

    projectors: dict[TypeLabel, ratmat.RatMatrix]
    lambda2_21_matrices: list[Matrix]
    lambda2_7_matrices: list[Matrix]
    lambda4_7_basis: list[Form]
    lambda4_27_basis: list[Form]

    def projector(self, degree: int, dim: int) -> ratmat.RatMatrix:
        try:
            return self.projectors[(degree, dim)]
        except KeyError:
            raise InputError(f"no Spin(7) type Lambda^{degree}_{dim}") from None

    def rank_table(self) -> dict[str, int]:
        return {
            f"{degree}_{dim}": dim
            for (degree, dim) in sorted(self.projectors)
        }

    def apply(self, degree: int, dim: int, a: Form) -> Form:
        if a.n != 8 or a.k != degree:
            raise InputError(f"expected a {degree}-form over R^8")
        p = self.projector(degree, dim)
        basis = monomial_basis(8, degree)
        vec = form_to_coefficients(a, basis)
        out = []
        for row in p:
            acc = ZERO
            for pij, vj in zip(row, vec):
                if pij and not vj.is_zero():
                    acc = acc + vj * pij
            out.append(acc)
        return form_from_coefficients(8, degree, basis, out)


def _basis_forms_from_vectors(
    vectors: list[list[Fraction]], k: int
) -> list[Form]:
    basis = monomial_basis(8, k)
    return [form_from_coefficients(8, k, basis, vec) for vec in vectors]


@lru_cache(maxsize=1)
def build_projectors() -> ProjectorTable:
    """Construct and certify the full projector table (cached)."""
    psi = psi0()
    table: dict[TypeLabel, ratmat.RatMatrix] = {}

    # Degree 2: kernel of the infinitesimal action on antisymmetric matrices.
    basis2 = monomial_basis(8, 2)
    action_cols = []
    basis4 = monomial_basis(8, 4)
    for key in basis2:
        m = antisym_matrix_from_form(Form.monomial(8, key))
        action_cols.append(_rational_vector(gl_inf_action(m, psi), basis4))
    action_on_antisym = ratmat.transpose(action_cols)  # 70 x 28
    kernel21 = ratmat.nullspace(action_on_antisym)
    if len(kernel21) != 21:
        raise InternalCheckError(f"dim Lambda^2_21 = {len(kernel21)} != 21")
    table[(2, 21)] = ratmat.projector_onto_span(kernel21, 28)
    table[(2, 7)] = ratmat.mat_sub(ratmat.identity(28), table[(2, 21)])

    lambda2_21_matrices = [
        antisym_matrix_from_form(form_from_coefficients(8, 2, basis2, vec))
        for vec in kernel21
    ]
    lambda2_7_vectors = ratmat.nullspace(kernel21)  # orthogonal complement in R^28
    if len(lambda2_7_vectors) != 7:
        raise InternalCheckError(f"dim Lambda^2_7 = {len(lambda2_7_vectors)} != 7")
    lambda2_7_matrices = [
        antisym_matrix_from_form(form_from_coefficients(8, 2, basis2, vec))
        for vec in lambda2_7_vectors
    ]

    # Degree 3: span of the contractions X -| psi0.
    basis3 = monomial_basis(8, 3)
    contractions = [
        _rational_vector(interior_product(Vector.basis(8, i), psi), basis3)
        for i in range(1, 9)
    ]
    if ratmat.rank(contractions) != 8:
        raise InternalCheckError("X -> X -| psi0 is not injective")
    table[(3, 8)] = ratmat.projector_onto_span(contractions, 56)
    table[(3, 48)] = ratmat.mat_sub(ratmat.identity(56), table[(3, 8)])

    # Degree 4: line through psi0, image of Lambda^2_7, ASD half, remainder.
    star4 = star_matrix(8, 4)
    psi_vec = _rational_vector(psi, basis4)
    p1 = ratmat.projector_onto_span([psi_vec], 70)
    lambda4_7_vectors = [
        _rational_vector(gl_inf_action(m, psi), basis4) for m in lambda2_7_matrices
    ]
    if ratmat.rank(lambda4_7_vectors) != 7:
        raise InternalCheckError("gl_inf_action(Lambda^2_7, psi0) is not 7-dimensional")
    p7 = ratmat.projector_onto_span(lambda4_7_vectors, 70)
    half = Fraction(1, 2)
    p35 = ratmat.mat_scale(ratmat.mat_sub(ratmat.identity(70), star4), half)
    p_sd = ratmat.mat_scale(ratmat.mat_add(ratmat.identity(70), star4), half)
    p27 = ratmat.mat_sub(ratmat.mat_sub(p_sd, p1), p7)
    table[(4, 1)] = p1
    table[(4, 7)] = p7
    table[(4, 27)] = p27
    table[(4, 35)] = p35

    _certify(table)

    lambda4_27_vectors = _projector_column_space(p27, 27)
    return ProjectorTable(
        projectors=table,
        lambda2_21_matrices=lambda2_21_matrices,
        lambda2_7_matrices=lambda2_7_matrices,
        lambda4_7_basis=_basis_forms_from_vectors(lambda4_7_vectors, 4),
        lambda4_27_basis=_basis_forms_from_vectors(lambda4_27_vectors, 4),
    )


def _projector_column_space(p: ratmat.RatMatrix, expected: int) -> list[list[Fraction]]:
    cols = ratmat.transpose(p)
    reduced, pivots = ratmat.rref(cols)
    del reduced
    if len(pivots) != expected:
        raise InternalCheckError(
            f"projector column space has rank {len(pivots)}, expected {expected}"
        )
    return [cols[i] for i in pivots]


def _certify(table: dict[TypeLabel, ratmat.RatMatrix]) -> None:
    """Check every projector identity exactly, in integers.

    Per degree, each P_a is scaled to N_a = D * P_a over the least common
    denominator D of the degree's entries; then N_a = N_a^T, N_a N_a =
    D N_a, tr N_a = D dim_a (for a symmetric idempotent the trace is the
    rank), N_a N_b = 0 for a != b and sum_a N_a = D Id.
    """
    for degree, dims in VALID_LABELS.items():
        denom = lcm(*(x.denominator for dim in dims for row in table[(degree, dim)] for x in row))
        scaled = {
            dim: [[int(x * denom) for x in row] for row in table[(degree, dim)]]
            for dim in dims
        }
        for dim, n in scaled.items():
            label = f"Lambda^{degree}_{dim}"
            if not ratmat.is_symmetric(n):
                raise InternalCheckError(f"projector {label}: not symmetric")
            if ratmat.mat_mul(n, n) != ratmat.mat_scale(n, denom):
                raise InternalCheckError(f"projector {label}: not idempotent")
            if ratmat.trace(n) != denom * dim:
                raise InternalCheckError(
                    f"projector {label}: trace {Fraction(ratmat.trace(n), denom)} "
                    f"!= expected rank {dim}"
                )
        total = [[sum(column) for column in zip(*rows)] for rows in zip(*scaled.values())]
        if total != ratmat.mat_scale(ratmat.identity(len(total)), denom):
            raise InternalCheckError(f"degree-{degree} projectors do not sum to Id")
        for i, da in enumerate(dims):
            for db in dims[i + 1 :]:
                prod = ratmat.mat_mul(scaled[da], scaled[db])
                if any(any(row) for row in prod):
                    raise InternalCheckError(
                        f"Lambda^{degree}_{da} and Lambda^{degree}_{db} are not orthogonal"
                    )


@dataclass(frozen=True)
class Decomposition:
    """Type components of a 2-, 3- or 4-form over R^8."""

    input: Form
    components: dict[TypeLabel, Form]

    def component(self, dim: int) -> Form:
        return self.components[(self.input.k, dim)]

    def nonzero_labels(self) -> list[TypeLabel]:
        return [label for label, comp in sorted(self.components.items()) if not comp.is_zero()]

    def to_json(self) -> dict:
        return {
            "input": self.input.to_json(),
            "components": {
                f"{degree}_{dim}": comp.to_json()
                for (degree, dim), comp in sorted(self.components.items())
            },
        }


def decompose(a: Form) -> Decomposition:
    """Split a form into its irreducible Spin(7)-type components."""
    if a.n != 8 or a.k not in VALID_LABELS:
        raise InputError("decompose expects a 2-, 3- or 4-form over R^8")
    table = build_projectors()
    components = {
        (a.k, dim): table.apply(a.k, dim, a) for dim in VALID_LABELS[a.k]
    }
    total = Form.zero(8, a.k)
    for comp in components.values():
        total = total + comp
    if total != a:
        raise InternalCheckError("type components do not sum to the input")
    return Decomposition(input=a, components=components)


def star7_slice(a: Form) -> Form:
    """Hodge star of the 7-dimensional slice span{dx_2..dx_8} inside R^8.

    Orientation dx_2 ^ ... ^ dx_8 positive, matching vol_8 = dx_1 ^ vol_7.
    """
    full = tuple(range(2, 9))
    terms = {}
    for key, value in a.terms.items():
        if 1 in key:
            raise InputError("slice star applied to a form touching dx_1")
        complement = tuple(i for i in full if i not in key)
        terms[complement] = value * merge_sign(key, complement)
    return Form(8, 7 - a.k, terms)


def seven_factor_check(x: Vector) -> Scalar:
    """The 4/7 proportionality of the type-8 projection in the slice model.

    For tangent X (no dx_1 component) the projection of X -| *_7 phi onto
    Lambda^3_8 is a multiple of X -| psi0; returns that multiple, which is
    4/7 for every admissible X.  Raises if X has a radial component or is
    zero, or if the projection fails to be an exact multiple.
    """
    if x.n != 8:
        raise InputError("expected a vector in R^8")
    if not x[1].is_zero():
        raise InputError("X is not tangent to the link (radial component present)")
    if x.is_zero():
        raise InputError("X must be nonzero")
    phi = g2_phi_eight()
    alpha7 = interior_product(x, star7_slice(phi))
    table = build_projectors()
    projected = table.apply(3, 8, alpha7)
    reference = interior_product(x, psi0())
    denom = norm_squared(reference)
    c = inner_product(projected, reference) / denom
    if projected != reference.scale(c):
        raise InternalCheckError("type-8 projection is not a multiple of X -| psi0")
    return c
