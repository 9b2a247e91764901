"""Plain Scalar exterior algebra: the tests' independent reference for forms.

``pullback`` is the wedge chain m^* dx_I = m^* dx_i1 ^ ... ^ m^* dx_ik,
and ``wedge`` multiplies and adds one ``Scalar`` per pair of monomials.
``gl_inf_action`` inserts m into each slot and sorts the indices,
``interior_product`` and ``inner_product`` multiply and add one ``Scalar``
per product.  None shares the integer-numerator kernel of ``spin7ac.forms``.

Permutation signs come from counting inversions, not from bitmasks:
``sort_with_sign`` is an insertion sort (``gl_inf_action`` and ``rho``
substitute an index and sort), and ``merge_sign`` merges two increasing
tuples (``wedge``, ``hodge_star`` and ``star7_slice``).
"""

from __future__ import annotations

from typing import Sequence

from spin7ac.errors import InputError
from spin7ac.forms import Form, IndexTuple, Matrix, Vector, monomial_basis
from spin7ac.ratmat import IntMatrix
from spin7ac.scalars import ZERO, Scalar


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


def wedge(a: Form, b: Form) -> Form:
    """Exterior product, one Scalar multiply and add per pair of disjoint monomials."""
    if a.n != b.n or a.k + b.k > a.n:
        raise InputError("dimension mismatch or degree overflow")
    terms: dict[IndexTuple, Scalar] = {}
    for left, cl in a.terms.items():
        for right, cr in b.terms.items():
            sign = merge_sign(left, right)
            if sign:
                key = tuple(sorted(left + right))
                terms[key] = terms.get(key, ZERO) + cl * cr * sign
    return Form(a.n, a.k + b.k, terms)


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
            product, acc = value * comp, terms.get(reduced, ZERO)
            terms[reduced] = acc - product if pos % 2 else acc + product
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
                product, acc = value * coeff, terms.get(sorted_key, ZERO)
                terms[sorted_key] = acc + product if sign > 0 else acc - product
    return Form(a.n, a.k, terms)


def hodge_star(a: Form) -> Form:
    """Hodge star for the Euclidean metric, orientation dx_1...dx_n positive.

    Satisfies b ^ *a = <a,b> vol and *^2 = (-1)^(k(n-k)) on degree k.
    """
    full = tuple(range(1, a.n + 1))
    terms: dict[IndexTuple, Scalar] = {}
    for key, value in a.terms.items():
        complement = tuple(i for i in full if i not in key)
        terms[complement] = value if merge_sign(key, complement) > 0 else -value
    return Form._from_valid(a.n, a.n - a.k, terms)


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


def rho(k: int, b: IntMatrix) -> dict[tuple[int, int], int]:
    """gl_inf_action(b, .) on Lambda^k (R^8)* as a sparse integer matrix.

    b is an 8x8 list of ``int`` rows.  Maps (row, column) positions in
    monomial_basis(8, k) to the nonzero entries.  For b = E_ij it is a
    signed index substitution: dx_I with i in I goes to sign * dx_J, J = I
    with i replaced by j.
    """
    if len(b) != 8 or any(len(row) != 8 for row in b):
        raise InputError("rho is defined for 8x8 matrices")
    row_entries: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(b, 1):
        for j, x in enumerate(row, 1):
            if type(x) is not int:
                raise InputError(f"rho needs an integer matrix, not entry {x}")
            if x:
                row_entries.setdefault(i, []).append((j, x))
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
