"""Plain Scalar exterior algebra: the tests' independent reference for forms.

``pullback`` is the wedge chain m^* dx_I = m^* dx_i1 ^ ... ^ m^* dx_ik,
and ``wedge`` multiplies and adds one ``Scalar`` per pair of monomials.
Neither shares the integer-numerator kernel of ``spin7ac.forms``.
"""

from __future__ import annotations

from spin7ac.errors import InputError
from spin7ac.forms import Form, IndexTuple, Matrix, merge_sign
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
