"""Exact integer matrix kernel for the projector table.

Matrices are dense lists of lists of ``int``.  The helpers use only
``+``, ``-``, ``*`` and ``==`` on the entries, so they apply unchanged to
``Fraction`` matrices too.  ``mat_mul`` skips zero entries: it keeps each
row of the right factor as its nonzero (column, value) pairs
(``sparse_rows``, the form ``scalars.int_row_sums`` takes too) and adds
a[i][k] * b[k][j] into row i only for nonzero a[i][k], so its cost follows
the nonzeros, not the shape (the projector numerators are 3-14% nonzero).
The projector table is built and certified on integer numerators with
these helpers alone; no elimination runs there.  ``Echelon``, sparse integer
rows over Q, is the elimination that ``cones.classify_rate`` runs.
"""

from __future__ import annotations

import math

IntMatrix = list[list[int]]
SparseRows = list[list[tuple[int, int]]]


def identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


def sparse_rows(a: IntMatrix) -> SparseRows:
    """Each row of a as its nonzero (column, value) pairs."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a b, adding a[i][k] * b[k][j] into row i over the nonzero entries only."""
    cols = len(b[0]) if b else 0
    sparse_b = sparse_rows(b)
    out: IntMatrix = []
    for row in a:
        acc = [0] * cols
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_scale(a: IntMatrix, s: int) -> IntMatrix:
    return [[x * s for x in row] for row in a]


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(row) for row in zip(*a)]


def trace(a: IntMatrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


def is_symmetric(a: IntMatrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


class Echelon:
    """Sparse row echelon over Q on integer rows ``{column: int}``, no zero entries.

    A row has content 1, a positive pivot at its smallest column and no
    pivot of an earlier row, so one in-order ``reduce`` pass leaves no pivot:
    a remainder unique for the span and pivots.  Rows cross-multiply, so no
    Fraction and no inverse is taken.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[int, dict[int, int]]] = []

    def add(self, row: dict[int, int]) -> None:
        vec, _ = self.reduce(row)
        if vec:
            pivot = min(vec)
            g = math.gcd(*vec.values()) * (1 if vec[pivot] > 0 else -1)
            self.rows.append((pivot, vec if g == 1 else {j: x // g for j, x in vec.items()}))

    def reduce(self, row: dict[int, int]) -> tuple[dict[int, int], int]:
        """The remainder of row as (numerators, den): den > 0, in lowest terms."""
        vec, den = dict(row), 1
        for pivot, prior in self.rows:
            f = vec.get(pivot)
            if f is not None:
                a = prior[pivot]
                g = math.gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    vec = {j: x * a for j, x in vec.items()}
                    den *= a
                for j, x in prior.items():
                    y = vec.get(j, 0) - f * x
                    if y:
                        vec[j] = y
                    else:
                        del vec[j]
        g = math.gcd(den, *vec.values())
        return (vec, den) if g == 1 else ({j: x // g for j, x in vec.items()}, den // g)
