"""Sparse exact exterior algebra over R^7 and R^8.

Forms are sparse maps from strictly increasing index tuples (1-based) to
Scalar coefficients.  The metric is the standard Euclidean one, the
monomial basis dx_I is orthonormal, and the orientation is
dx_1 ^ ... ^ dx_n positive.  Permutation signs are computed by counting
inversions, so a degree-overflow wedge raises instead of silently
returning zero.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError
from .scalars import ZERO, Scalar, strict_int

IndexTuple = tuple[int, ...]


def _validate_index_tuple(indices: Sequence[int], n: int) -> IndexTuple:
    t = tuple(indices)
    if any(not 1 <= i <= n for i in t):
        raise InputError(f"indices {t} out of range 1..{n}")
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise InputError(f"indices {t} must be strictly increasing")
    return t


def sort_with_sign(indices: Sequence[int]) -> tuple[IndexTuple, int]:
    """Sort indices, returning (sorted tuple, permutation sign); 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(len(idx) - 1):
        if idx[i] == idx[i + 1]:
            return tuple(idx), 0
    return tuple(idx), sign


def merge_sign(left: IndexTuple, right: IndexTuple) -> int:
    """Sign of sorting the concatenation of two increasing tuples; 0 on overlap."""
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return 0
        if left[i] < right[j]:
            i += 1
        else:
            # right[j] must jump over the remaining len(left) - i entries
            sign *= -1 if (len(left) - i) % 2 else 1
            j += 1
    return sign


class Form:
    """Alternating k-form over R^n with Scalar coefficients.

    The constructor drops zero coefficients, so sums may leave them in.
    """

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: Mapping[IndexTuple, Scalar] | None = None):
        if n not in (7, 8):
            raise InputError(f"forms are supported over R^7 and R^8, not R^{n}")
        if not 0 <= k <= n:
            raise InputError(f"degree {k} out of range for R^{n}")
        clean: dict[IndexTuple, Scalar] = {}
        if terms:
            for key, value in terms.items():
                t = _validate_index_tuple(key, n)
                if len(t) != k:
                    raise InputError(f"key {t} does not have degree {k}")
                v = Scalar.coerce(value)
                if not v.is_zero():
                    clean[t] = v
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Form is immutable")

    @classmethod
    def zero(cls, n: int, k: int) -> "Form":
        return cls(n, k)

    @classmethod
    def monomial(cls, n: int, indices: Sequence[int], coeff: Scalar | int = 1) -> "Form":
        t = tuple(indices)
        return cls(n, len(t), {t: Scalar.coerce(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(indices), ZERO)

    def items(self) -> Iterator[tuple[IndexTuple, Scalar]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, self.k, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Form") -> "Form":
        self._check_match(other)
        terms = dict(self.terms)
        for key, value in other.terms.items():
            terms[key] = terms.get(key, ZERO) + value
        return Form(self.n, self.k, terms)

    def __neg__(self) -> "Form":
        return Form(self.n, self.k, {key: -value for key, value in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, factor: Scalar | int) -> "Form":
        f = Scalar.coerce(factor)
        if f.is_zero():
            return Form(self.n, self.k)
        return Form(self.n, self.k, {key: value * f for key, value in self.terms.items()})

    def __mul__(self, factor: Scalar | int) -> "Form":
        return self.scale(factor)

    __rmul__ = __mul__

    def _check_match(self, other: "Form") -> None:
        if self.n != other.n:
            raise InputError(f"dimension mismatch: R^{self.n} vs R^{other.n}")
        if self.k != other.k:
            raise InputError(f"degree mismatch: {self.k} vs {other.k}")

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Form({self.n}, {self.k}, 0)"
        body = " + ".join(f"({value})*dx{''.join(map(str, key))}" for key, value in self.items())
        return f"Form({self.n}, {self.k}, {body})"

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "terms": {
                ",".join(map(str, key)): value.to_json() for key, value in self.items()
            },
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Form":
        try:
            n, k = strict_int(obj["n"], "n"), strict_int(obj["k"], "k")
            terms = {
                tuple(int(part) for part in key.split(",")) if key else (): Scalar.from_json(value)
                for key, value in obj.get("terms", {}).items()
            }
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed form JSON: {exc}") from exc
        return cls(n, k, terms)


class Vector:
    """Vector in R^n with Scalar components."""

    __slots__ = ("n", "components")

    def __init__(self, components: Sequence[Scalar | int]):
        comps = tuple(Scalar.coerce(c) for c in components)
        if len(comps) not in (7, 8):
            raise InputError("vectors are supported over R^7 and R^8")
        object.__setattr__(self, "n", len(comps))
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Vector is immutable")

    @classmethod
    def basis(cls, n: int, i: int) -> "Vector":
        return cls([1 if j == i else 0 for j in range(1, n + 1)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __getitem__(self, i: int) -> Scalar:
        return self.components[i - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __repr__(self) -> str:
        return f"Vector({[str(c) for c in self.components]})"


class Matrix:
    """Dense n x n matrix of Scalars (a general linear map on R^n)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Scalar | int]]):
        n = len(rows)
        if n not in (7, 8) or any(len(r) != n for r in rows):
            raise InputError("matrices must be square of size 7 or 8")
        object.__setattr__(
            self, "rows", tuple(tuple(Scalar.coerce(x) for x in r) for r in rows)
        )
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, n: int, entries: Mapping[tuple[int, int], Scalar | int]) -> "Matrix":
        rows = [[ZERO for _ in range(n)] for _ in range(n)]
        for (i, j), value in entries.items():
            rows[i - 1][j - 1] = Scalar.coerce(value)
        return cls(rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i - 1][j - 1]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise InputError("matrix dimension mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [
                [sum((a * b for a, b in zip(row, col)), ZERO) for col in cols]
                for row in self.rows
            ]
        )

    def scale(self, factor: Scalar | int) -> "Matrix":
        f = Scalar.coerce(factor)
        return Matrix([[x * f for x in row] for row in self.rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise InputError("matrix dimension mismatch")
        return Matrix(
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def apply(self, v: Vector) -> Vector:
        if self.n != v.n:
            raise InputError("matrix/vector dimension mismatch")
        return Vector(
            [sum((x * c for x, c in zip(row, v.components)), ZERO) for row in self.rows]
        )


# -- operations ---------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; raises on degree overflow rather than clamping."""
    if a.n != b.n:
        raise InputError(f"dimension mismatch: R^{a.n} vs R^{b.n}")
    k = a.k + b.k
    if k > a.n:
        raise InputError(f"wedge degree overflow: {a.k} + {b.k} > {a.n}")
    terms: dict[IndexTuple, Scalar] = {}
    for left, cl in a.terms.items():
        for right, cr in b.terms.items():
            sign = merge_sign(left, right)
            if sign == 0:
                continue
            key = tuple(sorted(left + right))
            terms[key] = terms.get(key, ZERO) + cl * cr * sign
    return Form(a.n, k, terms)


def hodge_star(a: Form) -> Form:
    """Hodge star for the Euclidean metric, orientation dx_1...dx_n positive.

    Satisfies b ^ *a = <a,b> vol and *^2 = (-1)^(k(n-k)) on degree k.
    """
    full = tuple(range(1, a.n + 1))
    terms: dict[IndexTuple, Scalar] = {}
    for key, value in a.terms.items():
        complement = tuple(i for i in full if i not in key)
        sign = merge_sign(key, complement)
        terms[complement] = value * sign
    return Form(a.n, a.n - a.k, terms)


def interior_product(v: Vector, a: Form) -> Form:
    """Contraction v -| a; raises on degree-0 input."""
    if v.n != a.n:
        raise InputError(f"dimension mismatch: R^{v.n} vs R^{a.n}")
    if a.k == 0:
        raise InputError("interior product of a 0-form is undefined")
    terms: dict[IndexTuple, Scalar] = {}
    for key, value in a.terms.items():
        for pos, idx in enumerate(key):
            comp = v[idx]
            if comp.is_zero():
                continue
            reduced = key[:pos] + key[pos + 1 :]
            sign = -1 if pos % 2 else 1
            terms[reduced] = terms.get(reduced, ZERO) + value * comp * sign
    return Form(a.n, a.k - 1, terms)


def inner_product(a: Form, b: Form) -> Scalar:
    """Metric pairing; the monomial basis dx_I is orthonormal."""
    a._check_match(b)
    total = ZERO
    for key, value in a.terms.items():
        other = b.terms.get(key)
        if other is not None:
            total = total + value * other
    return total


def norm_squared(a: Form) -> Scalar:
    return inner_product(a, a)


def volume_form(n: int) -> Form:
    return Form.monomial(n, tuple(range(1, n + 1)))


def pullback(m: Matrix, a: Form) -> Form:
    """Pullback (m^* a)(v_1, ..., v_k) = a(m v_1, ..., m v_k).

    Built from wedge: m^* dx_I = m^* dx_i1 ^ ... ^ m^* dx_ik with
    m^* dx_i = sum_j m_ij dx_j.  Functorial in the contravariant sense:
    pullback(m @ g, a) == pullback(g, pullback(m, a)).
    """
    if m.n != a.n:
        raise InputError(f"dimension mismatch: R^{m.n} vs R^{a.n}")
    if a.k == 0:
        return a
    rows = [Form(a.n, 1, {(j,): x for j, x in enumerate(row, 1)}) for row in m.rows]
    total = Form.zero(a.n, a.k)
    for key, value in a.terms.items():
        term = rows[key[0] - 1].scale(value)
        for i in key[1:]:
            term = wedge(term, rows[i - 1])
        total = total + term
    return total


def gl_inf_action(m: Matrix, a: Form) -> Form:
    """Derivative of the pullback action: d/dt|_0 pullback(exp(t m), a).

    Computed exactly as the sum over slot insertions
    sum_s a(., ..., m ._s, ..., .); linear in m and in a.
    """
    if m.n != a.n:
        raise InputError(f"dimension mismatch: R^{m.n} vs R^{a.n}")
    terms: dict[IndexTuple, Scalar] = {}
    for key, value in a.terms.items():
        for pos, idx in enumerate(key):
            # dx_idx pulls back to sum_j m[idx][j] dx_j at first order.
            for j in range(1, a.n + 1):
                coeff = m.entry(idx, j)
                if coeff.is_zero():
                    continue
                candidate = key[:pos] + (j,) + key[pos + 1 :]
                sorted_key, sign = sort_with_sign(candidate)
                if sign == 0:
                    continue
                terms[sorted_key] = terms.get(sorted_key, ZERO) + value * coeff * sign
    return Form(a.n, a.k, terms)


def rho(k: int, b: Matrix) -> dict[tuple[int, int], int]:
    """gl_inf_action(b, .) on Lambda^k (R^8)* as a sparse integer matrix.

    Maps (row, column) positions in monomial_basis(8, k) to the nonzero
    entries.  For b = E_ij it is a signed index substitution: dx_I with i
    in I goes to sign * dx_J, J = I with i replaced by j.  b must have
    integer entries.
    """
    if b.n != 8:
        raise InputError("rho is defined for 8x8 matrices")
    row_entries: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(b.rows, 1):
        for j, x in enumerate(row, 1):
            value = x.as_fraction()
            if value.denominator != 1:
                raise InputError(f"rho needs an integer matrix, not entry {value}")
            if value:
                row_entries.setdefault(i, []).append((j, value.numerator))
    basis = monomial_basis(8, k)
    index = {key: i for i, key in enumerate(basis)}
    out: dict[tuple[int, int], int] = {}
    for col, key in enumerate(basis):
        for pos, i in enumerate(key):
            for j, value in row_entries.get(i, ()):
                sorted_key, sign = sort_with_sign(key[:pos] + (j,) + key[pos + 1 :])
                if sign:
                    cell = (index[sorted_key], col)
                    out[cell] = out.get(cell, 0) + sign * value
    return {cell: value for cell, value in out.items() if value}


# -- basis bookkeeping ----------------------------------------------------


def monomial_basis(n: int, k: int) -> list[IndexTuple]:
    """Lexicographically ordered basis of increasing k-tuples in 1..n."""
    return list(combinations(range(1, n + 1), k))


def form_to_coefficients(a: Form, basis: Sequence[IndexTuple]) -> list[Scalar]:
    return [a.terms.get(key, ZERO) for key in basis]


def form_from_coefficients(
    n: int, k: int, basis: Sequence[IndexTuple], coeffs: Iterable[Scalar | int]
) -> Form:
    return Form(n, k, dict(zip(basis, (Scalar.coerce(c) for c in coeffs))))
