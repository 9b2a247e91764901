"""ratmat.Echelon, the sparse integer echelon, against the Fraction reference in ratref."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import ratref
from spin7ac.ratmat import Echelon


def _random_row(rng: random.Random, cols: int, rational: bool) -> list[Fraction]:
    """A sparse row: one to six entries of up to twelve digits, over denominators up to 50 when rational."""
    row = [Fraction(0)] * cols
    for j in rng.sample(range(cols), rng.randint(1, 6)):
        size = rng.randint(1, 10 ** rng.randint(1, 12))
        row[j] = Fraction(rng.choice((-1, 1)) * size, rng.randint(1, 50) if rational else 1)
    return row


def _random_system(rng: random.Random, rows: int, cols: int, rational: bool) -> list[list[Fraction]]:
    """Random sparse rows, about a quarter of them combinations of two earlier rows."""
    out: list[list[Fraction]] = []
    for _ in range(rows):
        if len(out) >= 2 and rng.random() < 0.25:
            u, v = rng.sample(out, 2)
            a, b = rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            out.append([a * x + b * y for x, y in zip(u, v)])
        else:
            out.append(_random_row(rng, cols, rational))
    return out


def _integer_row(row: list[Fraction]) -> tuple[dict[int, int], int]:
    """The row as nonzero integer entries times scale, its denominators cleared."""
    scale = math.lcm(*(x.denominator for x in row))
    return {j: int(x * scale) for j, x in enumerate(row) if x}, scale


@pytest.mark.parametrize(
    "rows, cols, rational, seed",
    [(12, 8, False, 1), (12, 8, True, 2), (40, 60, False, 3), (40, 60, True, 4), (80, 300, False, 5), (80, 300, True, 6)],
)
def test_echelon_matches_the_reference(rows, cols, rational, seed):
    rng = random.Random(seed)
    system = _random_system(rng, rows, cols, rational)
    echelon = Echelon()
    for row in system:
        echelon.add(_integer_row(row)[0])
    pivots = [pivot for pivot, _ in echelon.rows]
    reduced, reference_pivots = ratref.rref(system)
    assert len(pivots) == ratref.rank(system) == len(reference_pivots) < rows
    assert sorted(pivots) == reference_pivots
    for i, (pivot, row) in enumerate(echelon.rows):
        assert pivot == min(row) and row[pivot] > 0 and all(row.values())
        assert math.gcd(*row.values()) == 1
        assert not set(pivots[:i]) & row.keys()
    for row in system:
        assert echelon.reduce(_integer_row(row)[0]) == ({}, 1)
    for _ in range(8):
        target = _random_row(rng, cols, rational)
        numerators, scale = _integer_row(target)
        vec, den = echelon.reduce(numerators)
        assert den > 0 and math.gcd(den, *vec.values()) == 1 and all(vec.values())
        assert not set(pivots) & vec.keys()
        assert [Fraction(vec.get(j, 0), den * scale) for j in range(cols)] == ratref.remainder(reduced, target)


def test_echelon_of_nothing():
    echelon = Echelon()
    echelon.add({})
    assert echelon.rows == [] and echelon.reduce({}) == ({}, 1)
    assert echelon.reduce({3: -6, 5: 4}) == ({3: -6, 5: 4}, 1)
    echelon.add({3: -6, 5: 4})
    assert echelon.rows == [(3, {3: 3, 5: -2})]
    assert echelon.reduce({5: 1}) == ({5: 1}, 1)
    assert echelon.reduce({3: 1}) == ({5: 2}, 3)
