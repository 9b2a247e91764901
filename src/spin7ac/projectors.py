"""The model Spin(7) 4-form on R^8 and its irreducible-type projectors.

By Schur's lemma each projector is a fixed multiple of a Gram matrix of
integer vectors, so the table is written in closed form from three integer
matrices: psi, the 70 coefficients of psi0; C (56 x 8), whose column i is
e_i -| psi0; and A (70 x 28), whose column e_i ^ e_j is
rho_4(E_ij - E_ji) psi0, the infinitesimal action of that 2-form on psi0.

The table holds each projector P as its integer numerator N = D P over a
fixed denominator per degree, ``DENOMINATORS`` (|A column|^2 = 32,
C^T C = 7 Id, lcm(14, 32) = 224), so the build divides nothing:

* N^2_7 = A^T A and N^2_21 = 32 Id - N^2_7, the kernel of A: the Lie
  algebra of the stabiliser of psi0;
* N^3_8 = C C^T and N^3_48 = 7 Id - N^3_8;
* N^4_1 = 16 psi psi^T (|psi0|^2 = 14), N^4_7 = 7 A A^T, the
  infinitesimal image of Lambda^2_7, N^4_35 = 112 (Id - *), the
  anti-self-dual half, and N^4_27 = 112 (Id + *) - N^4_1 - N^4_7, the
  remainder of the self-dual half.

The bases need no elimination either: Lambda^2_7 is spanned by the columns
of N^2_7 / 8 (= 4 P^2_7) at e_1 ^ e_j and Lambda^2_21 by the columns of
N^2_21 / 8 at e_i ^ e_j with 2 <= i < j.

Every numerator is certified exact: symmetric, idempotent, with trace
(= rank) equal to the advertised dimension, mutually annihilating and
summing to the identity per degree.  The numerators are 3-14% nonzero, and
the certificate's 16 products (and A^T A, C C^T, A A^T) run on them as
row-sparse integer products: ``ratmat.mat_mul`` touches only nonzero
entries.  ``apply`` and ``decompose`` do the same with each numerator's
rows kept row-sparse in the table, on the input's integer numerators
(``scalars.int_row_sums``), and ``decompose`` checks that the components
sum to the input on those integer columns.  No ``Fraction`` is built on
the way: ``projectors --export`` formats each entry from its numerator and
D, and the Pi/Theta float tables divide N by D in binary64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import ratmat
from .errors import InputError, InternalCheckError
from .forms import (
    Form,
    IndexTuple,
    Vector,
    _complement_terms,
    form_to_coefficients,
    hodge_star,
    inner_product,
    interior_product,
    monomial_basis,
    norm_squared,
    rho,
)
from .ratmat import IntMatrix, SparseRows
from .scalars import Scalar, _canonical, common_numerators, int_row_sums

TypeLabel = tuple[int, int]  # (degree, dimension), e.g. (4, 35)

VALID_LABELS: dict[int, tuple[int, ...]] = {2: (7, 21), 3: (8, 48), 4: (1, 7, 27, 35)}

# Per degree, the denominator D of every projector's numerator N = D P.
DENOMINATORS: dict[int, int] = {2: 32, 3: 7, 4: 224}

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


# psi0 and e_1 -| psi0, built once; psi0() and g2_phi_eight() hand out
# copies, as a Form's terms dict can be changed in place.
_PSI0 = Form(8, 4, {key: Scalar.coerce(sign) for key, sign in PSI0_TERMS})
_PHI8 = interior_product(Vector.basis(8, 1), _PSI0)


def psi0() -> Form:
    """The model Spin(7) 4-form psi_0 on R^8."""
    return Form._from_valid(8, 4, _PSI0.terms)


def g2_phi_eight() -> Form:
    """e_1 -| psi0: the G2 3-form of the slice model, supported on dx_2..dx_8."""
    return Form._from_valid(8, 3, _PHI8.terms)


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


def _int_matrix(entries: dict[tuple[int, int], int]) -> IntMatrix:
    """The 8x8 int matrix with the given 1-based entries, zero elsewhere."""
    return [[entries.get((i, j), 0) for j in range(1, 9)] for i in range(1, 9)]


def antisym_matrix(coeffs: list[int]) -> IntMatrix:
    """sum c_ij (E_ij - E_ji) for 2-form coefficients over monomial_basis(8, 2).

    dx_i ^ dx_j  |->  E_ij - E_ji is an isometry up to the global factor 2.
    """
    entries: dict[tuple[int, int], int] = {}
    for (i, j), value in zip(monomial_basis(8, 2), coeffs):
        entries[(i, j)] = value
        entries[(j, i)] = -value
    return _int_matrix(entries)


def sym0_matrix_basis() -> list[IntMatrix]:
    """Basis of traceless symmetric 8x8 matrices: E_ij + E_ji and E_11 - E_kk."""
    out = [
        _int_matrix({(i, j): 1, (j, i): 1})
        for i in range(1, 9)
        for j in range(i + 1, 9)
    ]
    out.extend(_int_matrix({(1, 1): 1, (k, k): -1}) for k in range(2, 9))
    return out


def star_matrix(n: int, k: int) -> IntMatrix:
    """The Hodge star from degree k to degree n-k as an int matrix over the monomial bases."""
    src = monomial_basis(n, k)
    dst = monomial_basis(n, n - k)
    index = {key: i for i, key in enumerate(dst)}
    mat = ratmat.zeros(len(dst), len(src))
    for col, key in enumerate(src):
        starred = hodge_star(Form.monomial(n, key))
        for skey, value in starred.terms.items():
            mat[index[skey]][col] = value.as_fraction().numerator
    return mat


@dataclass(frozen=True)
class ProjectorTable:
    """Exact orthogonal projectors onto every irreducible Spin(7) type.

    ``projectors`` maps (degree, dim) to the integer numerator
    N = DENOMINATORS[degree] * P of the projector P over the lexicographic
    monomial basis of Lambda^degree (R^8)*.  ``rows`` holds each numerator
    row-sparse, as its nonzero (column, value) pairs per row, made once
    with the table; ``apply`` multiplies those.  The auxiliary bases of
    Lambda^2_21 and Lambda^2_7, as 8x8 int matrices, are kept because the
    Pi/Theta solver needs them.
    """

    projectors: dict[TypeLabel, IntMatrix]
    lambda2_21_matrices: list[IntMatrix]
    lambda2_7_matrices: list[IntMatrix]
    rows: dict[TypeLabel, SparseRows] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sparse = {label: ratmat.sparse_rows(n) for label, n in self.projectors.items()}
        object.__setattr__(self, "rows", sparse)

    def _label(self, degree: int, dim: int) -> TypeLabel:
        if (degree, dim) not in self.projectors:
            raise InputError(f"no Spin(7) type Lambda^{degree}_{dim}")
        return (degree, dim)

    def projector(self, degree: int, dim: int) -> list[list[Fraction]]:
        """The exact projector P = N / D."""
        denom = DENOMINATORS[degree]
        return [[Fraction(x, denom) for x in row] for row in self.projectors[self._label(degree, dim)]]

    def rank_table(self) -> dict[str, int]:
        return {
            f"{degree}_{dim}": dim
            for (degree, dim) in sorted(self.projectors)
        }

    def apply(self, degree: int, dim: int, a: Form) -> Form:
        if a.n != 8 or a.k != degree:
            raise InputError(f"expected a {degree}-form over R^8")
        nums, common = common_numerators(form_to_coefficients(a, monomial_basis(8, degree)))
        parts = int_row_sums(self.rows[self._label(degree, dim)], nums)
        return _numerator_form(degree, parts, common * DENOMINATORS[degree])


def _numerator_form(degree: int, parts: list[list[int]], den: int) -> Form:
    """The degree-form over R^8 with coefficient vector parts / den, one list per surd.

    One gcd per nonzero coefficient, over monomial_basis(8, degree).
    """
    terms = {}
    for key, a, b, c, d in zip(monomial_basis(8, degree), *parts):
        if a or b or c or d:
            terms[key] = _canonical(a, b, c, d, den)
    return Form._from_valid(8, degree, terms)


def _integer_vector(a: Form, basis: list[IndexTuple]) -> list[int]:
    """Coefficients of a form with integer coefficients (psi0, e_i -| psi0)."""
    return [c.as_fraction().numerator for c in form_to_coefficients(a, basis)]


@lru_cache(maxsize=1)
def build_projectors() -> ProjectorTable:
    """Construct and certify the full projector table (cached)."""
    basis2, basis3, basis4 = (monomial_basis(8, k) for k in (2, 3, 4))
    psi = psi0()
    psi_vec = _integer_vector(psi, basis4)
    # A (70 x 28): column e_i ^ e_j is rho_4(E_ij - E_ji) psi0.
    a_cols = []
    for unit in ratmat.identity(len(basis2)):
        col = [0] * len(basis4)
        action = rho(4, antisym_matrix(unit))
        for (row, c), value in action.items():
            col[row] += value * psi_vec[c]
        a_cols.append(col)
    # The columns of C (56 x 8): e_i -| psi0.
    contractions = [
        _integer_vector(interior_product(Vector.basis(8, i), psi), basis3)
        for i in range(1, 9)
    ]
    a_mat = ratmat.transpose(a_cols)
    n2_7 = ratmat.mat_mul(a_cols, a_mat)  # A^T A
    n3_8 = ratmat.mat_mul(ratmat.transpose(contractions), contractions)  # C C^T
    n4_1 = [[16 * x * y for y in psi_vec] for x in psi_vec]
    n4_7 = ratmat.mat_scale(ratmat.mat_mul(a_mat, a_cols), 7)  # 7 A A^T
    id_112 = ratmat.mat_scale(ratmat.identity(70), 112)
    star_112 = ratmat.mat_scale(star_matrix(8, 4), 112)
    table: dict[TypeLabel, IntMatrix] = {
        (2, 7): n2_7,
        (2, 21): ratmat.mat_sub(ratmat.mat_scale(ratmat.identity(28), 32), n2_7),
        (3, 8): n3_8,
        (3, 48): ratmat.mat_sub(ratmat.mat_scale(ratmat.identity(56), 7), n3_8),
        (4, 1): n4_1,
        (4, 7): n4_7,
        (4, 27): ratmat.mat_sub(ratmat.mat_sub(ratmat.mat_add(id_112, star_112), n4_1), n4_7),
        (4, 35): ratmat.mat_sub(id_112, star_112),
    }

    _certify(table)

    # Columns of N / 8 = 4 P (integral; rows, since N is symmetric) at
    # e_1 ^ e_j for Lambda^2_7 and at e_i ^ e_j, 2 <= i < j, for Lambda^2_21.
    def columns(dim: int, cols: list[int]) -> list[IntMatrix]:
        return [antisym_matrix([x // 8 for x in table[(2, dim)][col]]) for col in cols]

    return ProjectorTable(
        projectors=table,
        lambda2_21_matrices=columns(21, [col for col, key in enumerate(basis2) if key[0] >= 2]),
        lambda2_7_matrices=columns(7, list(range(7))),
    )


def _certify(table: dict[TypeLabel, IntMatrix]) -> None:
    """Check every projector identity exactly, on the integer numerators.

    Per degree, with D = DENOMINATORS[degree] and N_a = D * P_a: N_a =
    N_a^T, N_a N_a = D N_a, tr N_a = D dim_a (for a symmetric idempotent
    the trace is the rank), N_a N_b = 0 for a != b and sum_a N_a = D Id.
    """
    for degree, dims in VALID_LABELS.items():
        denom = DENOMINATORS[degree]
        numerators = {dim: table[(degree, dim)] for dim in dims}
        for dim, n in numerators.items():
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
        total = [[sum(column) for column in zip(*rows)] for rows in zip(*numerators.values())]
        if total != ratmat.mat_scale(ratmat.identity(len(total)), denom):
            raise InternalCheckError(f"degree-{degree} projectors do not sum to Id")
        for i, da in enumerate(dims):
            for db in dims[i + 1 :]:
                prod = ratmat.mat_mul(numerators[da], numerators[db])
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
    """Split a form into its irreducible Spin(7)-type components.

    One pass to integer numerators v over a common denominator, then per
    type the integer columns N_a v (``int_row_sums``, as ``apply``).  The
    components sum to the input iff sum_a N_a v = D v for every surd part,
    checked on those columns before any is reduced.
    """
    if a.n != 8 or a.k not in VALID_LABELS:
        raise InputError("decompose expects a 2-, 3- or 4-form over R^8")
    table = build_projectors()
    basis = monomial_basis(8, a.k)
    nums, common = common_numerators(form_to_coefficients(a, basis))
    denom = DENOMINATORS[a.k]
    columns = {dim: int_row_sums(table.rows[(a.k, dim)], nums) for dim in VALID_LABELS[a.k]}
    for surd, part in enumerate(zip(*nums)):
        total = [sum(xs) for xs in zip(*(parts[surd] for parts in columns.values()))]
        if total != [denom * x for x in part]:
            raise InternalCheckError("type components do not sum to the input")
    components = {(a.k, dim): _numerator_form(a.k, parts, common * denom) for dim, parts in columns.items()}
    return Decomposition(input=a, components=components)


def star7_slice(a: Form) -> Form:
    """Hodge star of the 7-dimensional slice span{dx_2..dx_8} inside R^8.

    Orientation dx_2 ^ ... ^ dx_8 positive, matching vol_8 = dx_1 ^ vol_7.
    """
    if any(1 in key for key in a.terms):
        raise InputError("slice star applied to a form touching dx_1")
    return Form(8, 7 - a.k, _complement_terms(a, tuple(range(2, 9))))


_STAR7_PHI = star7_slice(_PHI8)


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
    alpha7 = interior_product(x, _STAR7_PHI)
    table = build_projectors()
    projected = table.apply(3, 8, alpha7)
    reference = interior_product(x, _PSI0)
    denom = norm_squared(reference)
    c = inner_product(projected, reference) / denom
    if projected != reference.scale(c):
        raise InternalCheckError("type-8 projection is not a multiple of X -| psi0")
    return c
