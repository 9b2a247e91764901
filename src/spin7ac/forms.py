"""Sparse exact exterior algebra over R^7 and R^8.

Forms are sparse maps from strictly increasing index tuples (1-based) to
Scalar coefficients.  The metric is the standard Euclidean one, the
monomial basis dx_I is orthonormal, and the orientation is
dx_1 ^ ... ^ dx_n positive.  A degree-overflow wedge raises instead of
silently returning zero.

Every permutation sign has one rule: kernels key monomials by bitmask
(bit i for dx_i), and sorting dx_L ^ dx_R has sign
(-1)^popcount(mask(L) & _above(mask(R))).  ``hodge_star`` and the slice
star take R = full minus L; ``rho``'s substitution of j for i counts the
indices strictly between them.

``wedge``, ``pullback``, ``gl_inf_action``, ``interior_product`` and
``inner_product`` sum integer numerators (a, b, c, d) over one
denominator per operand and reduce each output coefficient by one gcd;
all but the last accumulate through one kernel, ``_wedge_into``.
``gl_inf_action`` is the derivation sum_i theta_i ^ (e_i -| a) with theta_i
row i of the matrix as a 1-form, and ``interior_product`` wedges each
e_i -| a with the 0-form v_i.  Results built from valid Forms skip key
validation but drop zero terms.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError
from .ratmat import IntMatrix
from .scalars import ZERO, Scalar, _canonical, common_numerators, strict_int

IndexTuple = tuple[int, ...]


def _validate_index_tuple(indices: Sequence[int], n: int) -> IndexTuple:
    t = tuple(indices)
    if any(not 1 <= i <= n for i in t):
        raise InputError(f"indices {t} out of range 1..{n}")
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise InputError(f"indices {t} must be strictly increasing")
    return t


def _index_mask(indices: IndexTuple) -> int:
    """Bitmask of an index tuple: two monomials overlap iff their masks do."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _above(mask: int) -> int:
    """XOR over the indices r in mask of the mask of all indices above r.

    Sorting dx_L ^ dx_R moves each index r of R past the indices of L above
    r, so its sign is (-1)^popcount(mask(L) & _above(mask(R))).
    """
    out = 0
    while mask:
        low = mask & -mask
        out ^= -(low << 1)  # ~((low << 1) - 1): every bit above low
        mask ^= low
    return out


def _wedge_into(acc: dict[int, tuple], lefts: Iterable[tuple], rights: Sequence[tuple]) -> None:
    """acc[l | r] += sign * x * y over the disjoint monomial pairs, in integers.

    Monomials are bitmasks, coefficients numerators (a, b, c, d); lefts are
    (mask, numerators) and rights (mask, _above(mask), numerators).  The
    product uses sqrt5 sqrt581 = sqrt2905 and the squares 5, 581 and 2905.
    """
    for lmask, (a1, b1, c1, d1) in lefts:
        for rmask, above, (a2, b2, c2, d2) in rights:
            if lmask & rmask:
                continue
            sign = -1 if (lmask & above).bit_count() & 1 else 1
            a, b, c, d = acc.get(lmask | rmask, (0, 0, 0, 0))
            acc[lmask | rmask] = (
                a + sign * (a1 * a2 + 5 * b1 * b2 + 581 * c1 * c2 + 2905 * d1 * d2),
                b + sign * (a1 * b2 + b1 * a2 + 581 * (c1 * d2 + d1 * c2)),
                c + sign * (a1 * c2 + c1 * a2 + 5 * (b1 * d2 + d1 * b2)),
                d + sign * (a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2),
            )


def _from_numerators(n: int, k: int, acc: Mapping[int, tuple], den: int) -> "Form":
    """The k-form sum (numerators / den) dx_mask over acc: one gcd per coefficient."""
    terms = {}
    for mask, (a, b, c, d) in acc.items():
        terms[tuple(i for i in range(1, n + 1) if mask >> i & 1)] = _canonical(a, b, c, d, den)
    return Form._from_valid(n, k, terms)


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
    def _from_valid(cls, n: int, k: int, terms: Mapping[IndexTuple, Scalar]) -> "Form":
        """A Form whose keys are known valid degree-k monomials over R^n; drops zeros."""
        form = object.__new__(cls)
        object.__setattr__(form, "n", n)
        object.__setattr__(form, "k", k)
        object.__setattr__(form, "terms", {key: v for key, v in terms.items() if not v.is_zero()})
        return form

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

    def __add__(self, other: "Form") -> "Form":
        self._check_match(other)
        terms = dict(self.terms)
        for key, value in other.terms.items():
            old = terms.get(key)
            terms[key] = value if old is None else old + value
        return Form._from_valid(self.n, self.k, terms)

    def __neg__(self) -> "Form":
        return Form._from_valid(self.n, self.k, {key: -value for key, value in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, factor: Scalar | int) -> "Form":
        f = Scalar.coerce(factor)
        return Form._from_valid(self.n, self.k, {key: value * f for key, value in self.terms.items()})

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
            terms = {}
            for key, value in obj.get("terms", {}).items():
                t = tuple(int(part) for part in key.split(",")) if key else ()
                canonical = ",".join(map(str, t))
                if key != canonical:  # one spelling per monomial: no two keys name one
                    raise InputError(f"form key {key!r} is not written as {canonical!r}")
                terms[t] = Scalar.from_json(value)
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
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"matrix entry ({i}, {j}) out of range 1..{n}")
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows


# -- operations ---------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; raises on degree overflow rather than clamping."""
    if a.n != b.n:
        raise InputError(f"dimension mismatch: R^{a.n} vs R^{b.n}")
    k = a.k + b.k
    if k > a.n:
        raise InputError(f"wedge degree overflow: {a.k} + {b.k} > {a.n}")
    lnums, lden = common_numerators(list(a.terms.values()))
    rnums, rden = common_numerators(list(b.terms.values()))
    rights = [(mask, _above(mask), x) for mask, x in zip(map(_index_mask, b.terms), rnums)]
    acc: dict[int, tuple] = {}
    _wedge_into(acc, zip(map(_index_mask, a.terms), lnums), rights)
    return _from_numerators(a.n, k, acc, lden * rden)


def hodge_star(a: Form) -> Form:
    """Hodge star for the Euclidean metric, orientation dx_1...dx_n positive.

    Satisfies b ^ *a = <a,b> vol and *^2 = (-1)^(k(n-k)) on degree k.
    """
    return Form._from_valid(a.n, a.n - a.k, _complement_terms(a, tuple(range(1, a.n + 1))))


def _complement_terms(a: Form, full: IndexTuple) -> dict[IndexTuple, Scalar]:
    """The terms of a with each dx_I mapped to sign * dx_(full minus I).

    sign is that of sorting dx_I ^ dx_(full minus I); every key of a lies in full.
    """
    full_mask = _index_mask(full)
    terms: dict[IndexTuple, Scalar] = {}
    for key, value in a.terms.items():
        mask = _index_mask(key)
        rest = full_mask ^ mask
        complement = tuple(i for i in full if rest >> i & 1)
        terms[complement] = -value if (mask & _above(rest)).bit_count() & 1 else value
    return terms


def _contractions(a: Form, nums: Sequence[tuple], flip: int) -> dict[int, list[tuple[int, tuple]]]:
    """Per index i, e_i -| a times (-1)^flip as terms (mask, numerators).

    nums are a's coefficients as integer numerators, in the order of
    a.terms.  e_i -| dx_I = (-1)^pos dx_(I minus i) where i = I[pos].
    """
    out: dict[int, list[tuple[int, tuple]]] = {}
    for key, x in zip(a.terms, nums):
        mask = _index_mask(key)
        minus = tuple(-t for t in x)
        for pos, i in enumerate(key):
            out.setdefault(i, []).append((mask ^ (1 << i), minus if (pos + flip) & 1 else x))
    return out


def interior_product(v: Vector, a: Form) -> Form:
    """Contraction v -| a = sum_i v_i (e_i -| a); raises on degree-0 input.

    Each e_i -| a is wedged with the 0-form v_i by the integer kernel.
    """
    if v.n != a.n:
        raise InputError(f"dimension mismatch: R^{v.n} vs R^{a.n}")
    if a.k == 0:
        raise InputError("interior product of a 0-form is undefined")
    vnums, vden = common_numerators(v.components)
    nums, aden = common_numerators(list(a.terms.values()))
    acc: dict[int, tuple] = {}
    for i, terms in _contractions(a, nums, 0).items():
        if any(vnums[i - 1]):
            _wedge_into(acc, terms, [(0, 0, vnums[i - 1])])
    return _from_numerators(a.n, a.k - 1, acc, aden * vden)


def inner_product(a: Form, b: Form) -> Scalar:
    """Metric pairing; the monomial basis dx_I is orthonormal.

    Sums the products of the shared coefficients' integer numerators, as
    in ``_wedge_into``, and reduces once.
    """
    a._check_match(b)
    shared = [key for key in a.terms if key in b.terms]
    xs, xden = common_numerators([a.terms[key] for key in shared])
    ys, yden = common_numerators([b.terms[key] for key in shared])
    a0 = b0 = c0 = d0 = 0
    for (a1, b1, c1, d1), (a2, b2, c2, d2) in zip(xs, ys):
        a0 += a1 * a2 + 5 * b1 * b2 + 581 * c1 * c2 + 2905 * d1 * d2
        b0 += a1 * b2 + b1 * a2 + 581 * (c1 * d2 + d1 * c2)
        c0 += a1 * c2 + c1 * a2 + 5 * (b1 * d2 + d1 * b2)
        d0 += a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
    return _canonical(a0, b0, c0, d0, xden * yden)


def norm_squared(a: Form) -> Scalar:
    return inner_product(a, a)


def volume_form(n: int) -> Form:
    return Form.monomial(n, tuple(range(1, n + 1)))


def _row_forms(m: Matrix) -> tuple[list[list[tuple]], int]:
    """Row i of m as the 1-form sum_j m_ij dx_j, and the rows' common denominator.

    Each row is the terms (mask, _above(mask), numerators) of its nonzero
    entries, as ``_wedge_into`` takes its right factor.
    """
    n = m.n
    entries, mden = common_numerators([x for row in m.rows for x in row])
    rows = [
        [(1 << j, _above(1 << j), x) for j, x in enumerate(entries[i * n : (i + 1) * n], 1) if any(x)]
        for i in range(n)
    ]
    return rows, mden


def pullback(m: Matrix, a: Form) -> Form:
    """Pullback (m^* a)(v_1, ..., v_k) = a(m v_1, ..., m v_k).

    m^* dx_I = sum_J det m[I, J] dx_J.  The minors of the rows P + (i,) are
    those of P wedged with row i (expansion along the last row), memoised
    by row prefix P, so keys of a with a common prefix share them.  The
    keys P + (i,) of a are summed first: m^* sum_i c_i dx_P ^ dx_i is the
    minors of P wedged with sum_i c_i (row i).  Functorial in the
    contravariant sense: pullback(m @ g, a) == pullback(g, pullback(m, a)).
    """
    if m.n != a.n:
        raise InputError(f"dimension mismatch: R^{m.n} vs R^{a.n}")
    if a.k == 0:
        return a
    rows, mden = _row_forms(m)
    coeffs, aden = common_numerators(list(a.terms.values()))
    last_rows: dict[IndexTuple, dict[int, tuple]] = {}
    for key, c in zip(a.terms, coeffs):
        _wedge_into(last_rows.setdefault(key[:-1], {}), [(0, c)], rows[key[-1] - 1])
    minors: dict[IndexTuple, list[tuple[int, tuple]]] = {(): [(0, (1, 0, 0, 0))]}
    acc: dict[int, tuple] = {}
    for prefix, row in last_rows.items():
        for r in range(1, len(prefix) + 1):
            if prefix[:r] not in minors:
                step: dict[int, tuple] = {}
                _wedge_into(step, minors[prefix[: r - 1]], rows[prefix[r - 1] - 1])
                minors[prefix[:r]] = [(mask, x) for mask, x in step.items() if any(x)]
        _wedge_into(acc, minors[prefix], [(mask, _above(mask), x) for mask, x in row.items() if any(x)])
    return _from_numerators(a.n, a.k, acc, aden * mden**a.k)


def gl_inf_action(m: Matrix, a: Form) -> Form:
    """Derivative of the pullback action: d/dt|_0 pullback(exp(t m), a).

    The derivation extending m from 1-forms: sum_i theta_i ^ (e_i -| a)
    with theta_i = sum_j m_ij dx_j, the first-order pullback of dx_i.
    Computed as sum_i (-1)^(k-1) (e_i -| a) ^ theta_i in integer
    numerators, with pullback's row 1-forms; linear in m and in a.
    """
    if m.n != a.n:
        raise InputError(f"dimension mismatch: R^{m.n} vs R^{a.n}")
    rows, mden = _row_forms(m)
    nums, aden = common_numerators(list(a.terms.values()))
    acc: dict[int, tuple] = {}
    for i, terms in _contractions(a, nums, a.k - 1).items():
        _wedge_into(acc, terms, rows[i - 1])
    return _from_numerators(a.n, a.k, acc, aden * mden)


def rho(k: int, b: IntMatrix) -> dict[tuple[int, int], int]:
    """gl_inf_action(b, .) on Lambda^k (R^8)* as a sparse integer matrix.

    b is an 8x8 list of ``int`` rows.  Maps (row, column) positions in
    monomial_basis(8, k) to the nonzero entries.  For b = E_ij it is a
    signed index substitution: dx_I with i in I goes to sign * dx_J, J = I
    with i replaced by j, and sign is (-1)^(the indices of I strictly
    between i and j).
    """
    if len(b) != 8 or any(len(row) != 8 for row in b):
        raise InputError("rho is defined for 8x8 matrices")
    row_entries: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(b, 1):
        for j, x in enumerate(row, 1):
            if type(x) is not int:
                raise InputError(f"rho needs an integer matrix, not entry {x}")
            if x:
                row_entries.setdefault(i, []).append((1 << j, x))
    basis = monomial_basis(8, k)
    masks = list(map(_index_mask, basis))
    index = {mask: row for row, mask in enumerate(masks)}
    out: dict[tuple[int, int], int] = {}
    for col, (key, mask) in enumerate(zip(basis, masks)):
        for i in key:
            rest = mask ^ (1 << i)
            for jbit, value in row_entries.get(i, ()):
                if rest & jbit:
                    continue
                cell = (index[rest | jbit], col)
                between = rest & (((1 << i) - 1) ^ (jbit - 1))
                out[cell] = out.get(cell, 0) + (-value if between.bit_count() & 1 else value)
    return {cell: value for cell, value in out.items() if value}


# -- basis bookkeeping ----------------------------------------------------


def monomial_basis(n: int, k: int) -> list[IndexTuple]:
    """Lexicographically ordered basis of increasing k-tuples in 1..n."""
    return list(combinations(range(1, n + 1), k))


def form_to_coefficients(a: Form, basis: Sequence[IndexTuple]) -> list[Scalar]:
    return [a.terms.get(key, ZERO) for key in basis]
