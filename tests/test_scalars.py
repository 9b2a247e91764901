from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from spin7ac.errors import InputError
from spin7ac.scalars import ZERO, SQRT5, SQRT581, SQRT2905, Scalar, int_matvec, sqrt_rational


def random_scalar(rng: random.Random, span: int = 12) -> Scalar:
    def frac() -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    return Scalar(frac(), frac(), frac(), frac())


def test_surd_multiplication_table():
    assert SQRT5 * SQRT5 == Scalar(5)
    assert SQRT581 * SQRT581 == Scalar(581)
    assert SQRT2905 * SQRT2905 == Scalar(2905)
    assert SQRT5 * SQRT581 == SQRT2905
    assert SQRT5 * SQRT2905 == SQRT581 * 5
    assert SQRT581 * SQRT2905 == SQRT5 * 581


def test_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        x = random_scalar(rng)
        y = random_scalar(rng)
        z = random_scalar(rng)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert x * x.inverse() == Scalar(1)
            assert (y / x) * x == y


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()


def test_sign_agrees_with_float():
    rng = random.Random(2)
    for _ in range(500):
        x = random_scalar(rng)
        f = float(x)
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)
    assert Scalar(0).sign() == 0


def test_sign_on_tight_cancellations():
    # sqrt2905 = 53.8981..., so 55 - sqrt2905 > 0 and 53 - sqrt2905 < 0.
    assert (Scalar(55) - SQRT2905).sign() == 1
    assert (Scalar(53) - SQRT2905).sign() == -1
    # (-55 + sqrt2905)/15 lies in (-4, 0).
    lam = (Scalar(-55) + SQRT2905) / 15
    assert Scalar(-4) < lam < Scalar(0)
    # sqrt581 vs rational multiples of sqrt5: 581 = 116.2 * 5.
    assert (SQRT581 - 10 * SQRT5).sign() == 1
    assert (SQRT581 - 11 * SQRT5).sign() == -1


def test_comparisons_are_a_total_order():
    rng = random.Random(3)
    values = [random_scalar(rng, span=6) for _ in range(30)]
    ordered = sorted(values, key=float)
    for a, b in zip(ordered, ordered[1:]):
        assert a <= b


def test_pow():
    x = Scalar(Fraction(1, 2), Fraction(1, 3))
    assert x**0 == Scalar(1)
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


def test_float_rejected():
    with pytest.raises(InputError):
        Scalar(0.5)


def test_sqrt_rational():
    assert sqrt_rational(Fraction(9, 4)) == Scalar(Fraction(3, 2))
    assert sqrt_rational(Fraction(5)) == SQRT5
    assert sqrt_rational(Fraction(581, 4)) == SQRT581 / 2
    assert sqrt_rational(Fraction(581, 45)) == SQRT2905 / 15
    assert sqrt_rational(Fraction(7)) is None
    with pytest.raises(InputError):
        sqrt_rational(Fraction(-1))


def test_json_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        x = random_scalar(rng)
        assert Scalar.from_json(x.to_json()) == x
    assert Scalar.from_json("3/7") == Scalar(Fraction(3, 7))
    assert Scalar(0).to_json() == {}
    with pytest.raises(InputError):
        Scalar.from_json({"sqrt3": "1/1"})


def test_str_smoke():
    assert str(Scalar(0)) == "0"
    assert str(Scalar(Fraction(-2, 3))) == "-2/3"
    assert "sqrt5" in str(SQRT5)


def test_galois_norm_rational():
    rng = random.Random(5)
    for _ in range(50):
        x = random_scalar(rng)
        if x.is_zero():
            continue
        inv = x.inverse()
        assert float(inv) == pytest.approx(1.0 / float(x), rel=1e-9)


def test_float_conversion():
    x = (SQRT5 - SQRT581) / 5
    assert float(x) == pytest.approx((math.sqrt(5) - math.sqrt(581)) / 5)


def test_int_matvec_matches_scalar_sum():
    rng = random.Random(11)
    for trial in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        matrix = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        # Each surd part is zero throughout the vector with probability 1/2.
        live = [rng.random() < 0.5 for _ in range(4)]
        vec = []
        for _ in range(cols):
            x = random_scalar(rng)
            vec.append(Scalar(*(part if keep else 0 for part, keep in zip((x.a, x.b, x.c, x.d), live))))
        denom = rng.randint(1, 250)
        expected = [sum((v * m for m, v in zip(row, vec)), ZERO) / denom for row in matrix]
        assert int_matvec(matrix, vec, denom) == expected
    assert int_matvec([[1, 2]], [ZERO, ZERO], 7) == [ZERO]
