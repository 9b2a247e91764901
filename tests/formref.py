"""Plain Scalar exterior algebra: the tests' independent reference for forms.

``pullback`` is the wedge chain m^* dx_I = m^* dx_i1 ^ ... ^ m^* dx_ik,
and ``wedge`` multiplies and adds one ``Scalar`` per pair of monomials.
``gl_inf_action`` inserts m into each slot and sorts the indices,
``interior_product`` and ``inner_product`` multiply and add one ``Scalar``
per product.  None shares the integer-numerator kernel of ``spin7ac.forms``.
"""

from __future__ import annotations

from spin7ac.errors import InputError
from spin7ac.forms import Form, IndexTuple, Matrix, Vector, merge_sign, sort_with_sign
from spin7ac.scalars import ZERO, Scalar


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
