from __future__ import annotations

import importlib.util
import inspect
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from spin7ac.cones import classify_rate, one_form_critical_rates
from spin7ac.errors import InputError
from spin7ac.homrep import bryant_salamon_link_data, enumerate_candidates
from spin7ac.moduli import lambda_of_mu, moduli_dimension
from spin7ac.ratmat import sparse_rows
from spin7ac.scalars import ZERO, SQRT5, SQRT581, SQRT2905, Scalar, common_numerators, int_row_sums, sqrt_rational


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
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / 0


# Values that are not bounded rationals: each public entry point that takes a
# rational refuses every one with InputError, never ValueError, TypeError or
# ZeroDivisionError.
_NOT_RATIONALS = [
    "abc", "1/0", "-3/0", "", " ", "1/", "1/2/3", "0x10", "sqrt5", "nan",
    [1], (1, 2), {"1": "1/2"}, None, object(), 0.5, float("nan"), True, False,
    "1" * 601, "1e601", 10**601,
]
_LINK = bryant_salamon_link_data()
_ENTRY_POINTS = {
    "Scalar": Scalar,
    "Scalar-surd-part": lambda x: Scalar(1, 0, x),
    "coerce": Scalar.coerce,
    "from_json": lambda x: Scalar.from_json({"sqrt5": x}),
    "enumerate_candidates-lo": enumerate_candidates,
    "enumerate_candidates-hi": lambda x: enumerate_candidates(-1, x),
    "classify_rate": lambda x: classify_rate("even", x),
    "moduli_dimension": lambda x: moduli_dimension(_LINK, x),
    "lambda_of_mu": lambda_of_mu,
    "one_form_critical_rates": lambda x: one_form_critical_rates([x]),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
def test_every_malformed_rational_is_an_input_error(entry):
    for x in _NOT_RATIONALS:
        with pytest.raises(InputError):
            entry(x)


def test_malformed_rationals_name_the_value():
    for text in ("abc", "1/0", "", "1/2/3"):
        with pytest.raises(InputError, match=f"^not a rational: {text!r}$"):
            Scalar(text)
    for obj in ("1/0", {"1": "x"}, {"sqrt581": [2]}):
        with pytest.raises(InputError, match="^not a rational: "):
            Scalar.from_json(obj)
    with pytest.raises(InputError, match="^malformed scalar JSON: "):
        Scalar.from_json([1])


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


def test_to_json_matches_fraction_components():
    rng = random.Random(15)
    surds = [Scalar(1), SQRT5, SQRT581, SQRT2905]
    for _ in range(2000):
        # sparse components hit zeros and each surd alone; spans hit signs
        x = sum(
            (s * Fraction(rng.randint(-99, 99), rng.randint(1, 360)) for s in surds if rng.random() < 0.6),
            ZERO,
        )
        expected = {
            tag: f"{c.numerator}/{c.denominator}"
            for c, tag in zip((x.a, x.b, x.c, x.d), ("1", "sqrt5", "sqrt581", "sqrt2905"))
            if c != 0
        }
        assert x.to_json() == expected


def test_str_smoke():
    assert str(Scalar(0)) == "0"
    assert str(Scalar(Fraction(-2, 3))) == "-2/3"
    assert "sqrt5" in str(SQRT5)


def _fraction_str(x: Scalar) -> str:
    """Reference rendering through the Fraction components a..d."""
    parts = []
    for coeff, tag in zip((x.a, x.b, x.c, x.d), ("1", "sqrt5", "sqrt581", "sqrt2905")):
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = str(mag) if tag == "1" else tag if mag == 1 else f"{mag}*{tag}"
        sign = ("" if coeff > 0 else "-") if not parts else ("+ " if coeff > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def test_str_matches_the_fraction_rendering():
    rng = random.Random(33)
    units = [Scalar(*(rng.choice((-1, 0, 1)) for _ in range(4))) for _ in range(100)]
    for x in [ZERO, Scalar(1), -SQRT5, SQRT581, -SQRT2905, *units]:
        assert str(x) == _fraction_str(x)
    for _ in range(500):
        x = random_scalar(rng, rng.choice((12, 10**6)))
        assert str(x) == _fraction_str(x)
        assert str(-x) == _fraction_str(-x)
    assert str(Scalar(Fraction(3, 2), -1, Fraction(-4, 6), 2)) == "3/2 - sqrt5 - 2/3*sqrt581 + 2*sqrt2905"


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


def test_int_row_sums_matches_scalar_sum():
    rng = random.Random(11)

    def matvec(rows, vec, denom):
        # rows @ vec / denom through the integer columns, one Scalar per entry
        nums, common = common_numerators(vec)
        parts = int_row_sums(sparse_rows(rows), nums)
        return [Scalar(*(Fraction(x, common * denom) for x in entry)) for entry in zip(*parts)]

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
        assert matvec(matrix, vec, denom) == expected
    assert matvec([[1, 2]], [ZERO, ZERO], 7) == [ZERO]


def fields(x: Scalar) -> tuple[int, int, int, int, int]:
    return x._a, x._b, x._c, x._d, x._den


def test_results_are_canonical():
    """den > 0 and gcd(a, b, c, d, den) = 1 after every operation; zero is (0, 0, 0, 0)/1."""
    rng = random.Random(12)
    for _ in range(300):
        x, y = random_scalar(rng), random_scalar(rng)
        results = [x + y, x - y, x * y, -x, x * 6, x + Fraction(5, 6), Scalar(x.a, x.b, x.c, x.d)]
        if not x.is_zero():
            results.append(x.inverse())
        for z in results:
            a, b, c, d, den = fields(z)
            assert den > 0 and math.gcd(a, b, c, d, den) == 1
            assert Scalar(z.a, z.b, z.c, z.d) == z
        assert fields(x - x) == fields(x * ZERO) == fields(Scalar(Fraction(0, 7))) == (0, 0, 0, 0, 1)
    assert fields(Scalar(Fraction(2, 4), Fraction(-3, 6))) == (1, -1, 0, 0, 2)


def test_hash_agrees_with_equal_ints_and_fractions():
    # Scalar(3) == 3 and Scalar(1/2) == Fraction(1, 2), so their hashes must agree.
    rng = random.Random(13)
    for _ in range(200):
        x = random_scalar(rng)
        assert hash(x) == hash(Scalar(x.a, x.b, x.c, x.d))
        rational = Scalar(x.a)
        assert rational == x.a and hash(rational) == hash(x.a)
    for value in (3, -7, 0, Fraction(1, 2), Fraction(-22, 7)):
        assert Scalar(value) == value and hash(Scalar(value)) == hash(value)
        assert {Scalar(value): "x"}.get(value) == "x"
        assert {value: "x"}.get(Scalar(value)) == "x"


def test_float_is_the_sum_of_the_fraction_floats():
    """Bit for bit the float of each reduced Fraction component, scaled and summed in order."""
    rng = random.Random(14)
    for i in range(1000):
        span = (12, 10**6, 10**40)[i % 3]
        x = random_scalar(rng, span)
        expected = (
            float(x.a)
            + float(x.b) * math.sqrt(5.0)
            + float(x.c) * math.sqrt(581.0)
            + float(x.d) * math.sqrt(2905.0)
        )
        assert float(x).hex() == expected.hex()


def test_outside_integers_and_literals_stay_bounded():
    with pytest.raises(InputError):
        Scalar(1) * 10**700
    with pytest.raises(InputError):
        10**700 * Scalar(1)
    with pytest.raises(InputError):
        Scalar(1) + 10**700
    with pytest.raises(InputError):
        Scalar(1) - 10**700
    with pytest.raises(InputError):
        Scalar("1e9999")
    with pytest.raises(InputError):
        Scalar(1) * True


def test_traced_scalar_methods_are_plain_functions():
    """The benchmark's layer tracer wraps vars(Scalar)[name] for each of these names."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert len(layertrace._SCALAR_METHODS) == 17
    for name in layertrace._SCALAR_METHODS:
        assert inspect.isfunction(vars(Scalar).get(name)), name


def test_rational_inverse_is_canonical():
    """Rationals invert as den/a with the sign on the numerator, canonical as any result."""
    rng = random.Random(15)
    for _ in range(500):
        span = rng.choice((12, 10**6, 10**40))
        x = Scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, span)))
        inv = x.inverse()
        assert x * inv == Scalar(1)
        a, b, c, d, den = fields(inv)
        assert (b, c, d) == (0, 0, 0) and den > 0 and math.gcd(a, den) == 1
        assert inv == Scalar(1 / x.a)
