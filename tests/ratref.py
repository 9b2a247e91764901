"""Exact elimination over Q: the tests' independent reference.

The projector build runs no elimination; these helpers check its results
from another route (ranks, kernels, projectors onto spans), and check the
package's one elimination, ``ratmat.Echelon``, by rank and remainder.  Rank
computations clear denominators and run fraction-free (Bareiss-style)
integer elimination, which keeps intermediate entries as minors of the
scaled matrix instead of letting rational complexity blow up during
70x70 eliminations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from spin7ac.ratmat import zeros

RatMatrix = list[list[Fraction]]
RatVector = list[Fraction]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def _to_integer_matrix(a: RatMatrix) -> list[list[int]]:
    """Scale each row by its denominator lcm (row scaling preserves rank/kernel rows)."""
    out: list[list[int]] = []
    for row in a:
        denom = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * denom) for x in row])
    return out


def rank(a: RatMatrix) -> int:
    """Exact rank via fraction-free Bareiss elimination."""
    if not a or not a[0]:
        return 0
    m = _to_integer_matrix(a)
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def rref(a: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot column list)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def remainder(a: RatMatrix, v: RatVector) -> RatVector:
    """v minus its part in the row space of a along the rows of rref(a): zero at every pivot."""
    out = list(v)
    for row, p in zip(*rref(a)):
        f = out[p]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return out


def nullspace(a: RatMatrix) -> list[RatVector]:
    """Basis of the right kernel {v : a v = 0}, exact."""
    if not a:
        return []
    cols = len(a[0])
    reduced, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[RatVector] = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def gram_schmidt(vectors: Sequence[Sequence[Fraction]]) -> list[RatVector]:
    """Orthogonal (not normalized) basis over Q; drops dependent vectors."""
    basis: list[RatVector] = []
    norms: list[Fraction] = []
    for vec in vectors:
        w = list(vec)
        for b, nb in zip(basis, norms):
            coeff = dot(w, b) / nb
            if coeff:
                w = [x - coeff * y for x, y in zip(w, b)]
        if any(x != 0 for x in w):
            basis.append(w)
            norms.append(dot(w, w))
    return basis


def projector_onto_span(vectors: Sequence[Sequence[Fraction]], dim: int) -> RatMatrix:
    """Orthogonal projector onto span(vectors) as an exact dim x dim matrix."""
    basis = gram_schmidt(vectors)
    p = zeros(dim, dim)
    for b in basis:
        nb = dot(b, b)
        for i in range(dim):
            if b[i] == 0:
                continue
            for j in range(dim):
                p[i][j] += b[i] * b[j] / nb
    return p
