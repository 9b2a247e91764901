"""Exact arithmetic in the real number field Q(sqrt5, sqrt581).

Every scalar in this package is an element

    (a + b*sqrt(5) + c*sqrt(581) + d*sqrt(2905)) / den,    a, b, c, d, den in Z,

stored as four integer numerators over one denominator with den > 0 and
gcd(a, b, c, d, den) = 1, so equal values have equal fields.  Every
operation works on the integers and ends in one gcd.  The field is closed
under the four operations because sqrt(5)*sqrt(581) = sqrt(2905).  All
constants appearing in the rigidity computation (2/sqrt(5),
(sqrt5 - sqrt581)/5, (-55 + sqrt2905)/15, ...) live here, so the whole
pipeline runs without a single floating-point tolerance.

Sign determination is exact: as den > 0 it is the sign of the numerator,
decided for a + b*sqrt5 by comparing a^2 with 5 b^2, and then for
A + B*sqrt581 with A, B in Z[sqrt5] by comparing A^2 with 581 B^2.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union

from .errors import InputError

RationalLike = Union[int, Fraction, str]

_SURD_KEYS = ("1", "sqrt5", "sqrt581", "sqrt2905")


# Input rationals are bounded: a string has at most this many characters
# and a decimal exponent of at most this size, an int at most this many
# digits.  Every admitted value then has at most ~1,200 digits, so a
# product of three (cone-op's Laplacian scales a coefficient by a quadratic
# in the rate) still prints under Python's 4,300-digit int-to-str limit.
_MAX_RATIONAL_DIGITS = 600
_INT_BOUND = 10**_MAX_RATIONAL_DIGITS
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _frac(x: RationalLike) -> Fraction:
    """The one gate from inputs to Fraction: no floats or bools, bounded size."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise InputError(f"refusing to coerce {type(x).__name__} {x!r} into an exact scalar")
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        if len(x) > _MAX_RATIONAL_DIGITS or (exponent and int(exponent[1]) > _MAX_RATIONAL_DIGITS):
            raise InputError(f"rational literal beyond {_MAX_RATIONAL_DIGITS} characters or exponent")
    elif isinstance(x, int) and not -_INT_BOUND < x < _INT_BOUND:
        raise InputError(f"integer with more than {_MAX_RATIONAL_DIGITS} digits")
    return Fraction(x)


def strict_int(x: object, field: str) -> int:
    """An integer JSON field: a JSON integer, never a float, bool or string."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{field} must be an integer, not {type(x).__name__}")
    return x


def _sign(p: int) -> int:
    return (p > 0) - (p < 0)


def _sign_q_sqrt5(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(5)."""
    sp, sq = _sign(p), _sign(q)
    if sp * sq >= 0:
        return sp or sq
    # Opposite signs: |p| vs |q|*sqrt5 decided by squaring.  p^2 = 5 q^2
    # is impossible for rational p, q != 0, so cmp is never 0 here.
    cmp = _sign(p * p - 5 * q * q)
    if cmp == 0:  # pragma: no cover
        raise ArithmeticError(f"sqrt5 would be rational: p={p}, q={q}")
    return sp if cmp > 0 else sq


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class Scalar:
    """Immutable element of Q(sqrt5, sqrt581)."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den")

    def __new__(
        cls,
        a: RationalLike = 0,
        b: RationalLike = 0,
        c: RationalLike = 0,
        d: RationalLike = 0,
    ) -> "Scalar":
        parts = [_frac(a), _frac(b), _frac(c), _frac(d)]
        den = math.lcm(*(q.denominator for q in parts))
        return _canonical(*(q.numerator * (den // q.denominator) for q in parts), den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    # -- components ---------------------------------------------------

    a = property(lambda self: Fraction(self._a, self._den))
    b = property(lambda self: Fraction(self._b, self._den))
    c = property(lambda self: Fraction(self._c, self._den))
    d = property(lambda self: Fraction(self._d, self._den))

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt5(cls, coeff: RationalLike = 1) -> "Scalar":
        return cls(0, coeff)

    @classmethod
    def sqrt581(cls, coeff: RationalLike = 1) -> "Scalar":
        return cls(0, 0, coeff)

    @classmethod
    def sqrt2905(cls, coeff: RationalLike = 1) -> "Scalar":
        return cls(0, 0, 0, coeff)

    @classmethod
    def coerce(cls, x: "Scalar | RationalLike") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return _canonical(*_parts(x))

    # -- ring structure -----------------------------------------------

    def _plus(self, a: int, b: int, c: int, d: int, den: int) -> "Scalar":
        n = self._den
        if n == den:
            return _canonical(self._a + a, self._b + b, self._c + c, self._d + d, n)
        return _canonical(
            self._a * den + a * n,
            self._b * den + b * n,
            self._c * den + c * n,
            self._d * den + d * n,
            n * den,
        )

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self._plus(*_parts(other))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _canonical(-self._a, -self._b, -self._c, -self._d, self._den)

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        a, b, c, d, den = _parts(other)
        return self._plus(-a, -b, -c, -d, den)

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return (-self) + other

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2, den = _parts(other)
        # sqrt5^2 = 5, sqrt581^2 = 581, sqrt2905^2 = 2905,
        # sqrt5*sqrt581 = sqrt2905, sqrt5*sqrt2905 = 5 sqrt581,
        # sqrt581*sqrt2905 = 581 sqrt5.
        return _canonical(
            a1 * a2 + 5 * b1 * b2 + 581 * c1 * c2 + 2905 * d1 * d2,
            a1 * b2 + b1 * a2 + 581 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 5 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self._den * den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        a, b, c, d = self._a, self._b, self._c, self._d
        if not (b or c or d):
            # self = a/den with gcd(a, den) = 1, so 1/self = den/a; the sign moves up.
            return _canonical(-self._den if a < 0 else self._den, 0, 0, 0, abs(a))
        # Product of the three nontrivial Galois conjugates of the numerator x.
        cofactor = _canonical(a, -b, c, -d, 1) * _canonical(a, b, -c, -d, 1)
        cofactor = cofactor * _canonical(a, -b, -c, d, 1)
        norm = _canonical(a, b, c, d, 1) * cofactor
        if not norm.is_rational() or norm._a == 0:  # pragma: no cover
            raise ArithmeticError("field norm must be a nonzero rational")
        # self = x/den and x*cofactor = norm, so 1/self = cofactor*den/norm.
        return cofactor * Fraction(self._den, norm._a)

    def __truediv__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other: "Scalar | RationalLike") -> "Scalar":
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and order -----------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0 and self._c == 0 and self._d == 0

    def is_rational(self) -> bool:
        return self._b == 0 and self._c == 0 and self._d == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"{self} is not rational")
        return self.a

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, no floating point involved."""
        # den > 0, so this is the sign of the numerator A + B*sqrt581 with
        # A = a + b sqrt5, B = c + d sqrt5.
        a, b, c, d = self._a, self._b, self._c, self._d
        sa = _sign_q_sqrt5(a, b)
        sb = _sign_q_sqrt5(c, d)
        if sa * sb >= 0:
            return sa or sb
        # A, B have opposite signs: compare A^2 with 581 B^2 in Z[sqrt5].
        # A^2 = (a^2 + 5 b^2) + 2ab sqrt5, B^2 = (c^2 + 5 d^2) + 2cd sqrt5.
        p = a * a + 5 * b * b - 581 * (c * c + 5 * d * d)
        q = 2 * (a * b - 581 * c * d)
        cmp = _sign_q_sqrt5(p, q)
        if cmp == 0:
            # |A| = sqrt581 |B| would put sqrt581 in Q(sqrt5).
            raise ArithmeticError("sqrt581 would lie in Q(sqrt5)")  # pragma: no cover
        return sa if cmp > 0 else sb

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        # Canonical form: equal values have equal fields.
        return _parts(self) == _parts(other)

    def __hash__(self) -> int:
        # Equal to an int or Fraction of the same value, as __eq__ requires.
        if self.is_rational():
            return hash(Fraction(self._a, self._den))
        return hash((self._a, self._b, self._c, self._d, self._den))

    def __lt__(self, other: "Scalar | RationalLike") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "Scalar | RationalLike") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "Scalar | RationalLike") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "Scalar | RationalLike") -> bool:
        return (self - other).sign() >= 0

    # -- conversions ---------------------------------------------------

    def __float__(self) -> float:
        # Integer true division is correctly rounded, so each term is the
        # float of its reduced Fraction.
        den = self._den
        return (
            self._a / den
            + (self._b / den) * math.sqrt(5.0)
            + (self._c / den) * math.sqrt(581.0)
            + (self._d / den) * math.sqrt(2905.0)
        )

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        parts = []
        for num, tag in zip((self._a, self._b, self._c, self._d), _SURD_KEYS):
            if not num:
                continue
            g = math.gcd(num, self._den)  # one gcd per nonzero coefficient, as in to_json
            mag = f"{abs(num) // g}" if g == self._den else f"{abs(num) // g}/{self._den // g}"
            if tag == "1":
                body = mag
            elif mag == "1":
                body = tag
            else:
                body = f"{mag}*{tag}"
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts) or "0"

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for num, tag in zip((self._a, self._b, self._c, self._d), _SURD_KEYS):
            if num:
                g = math.gcd(num, self._den)  # den > 0, so the sign stays on num
                out[tag] = f"{num // g}/{self._den // g}"
        return out

    @classmethod
    def from_json(cls, obj: "dict[str, str] | str | int") -> "Scalar":
        if isinstance(obj, (str, int)):
            parts = [obj]
        elif isinstance(obj, dict):
            unknown = set(obj) - set(_SURD_KEYS)
            if unknown:
                raise InputError(f"unknown scalar keys {sorted(unknown)}")
            parts = [obj.get(tag, 0) for tag in _SURD_KEYS]
        else:
            raise InputError(f"malformed scalar JSON: {obj!r}")
        try:
            return cls(*parts)  # the constructor refuses floats
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed scalar JSON: {exc}") from exc


# The slot setters, bypassing Scalar.__setattr__.
_set_a, _set_b, _set_c, _set_d, _set_den = (vars(Scalar)[name].__set__ for name in Scalar.__slots__)


def _canonical(a: int, b: int, c: int, d: int, den: int) -> Scalar:
    """(a + b sqrt5 + c sqrt581 + d sqrt2905)/den for den > 0, reduced by one gcd."""
    g = math.gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    x = object.__new__(Scalar)
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    _set_d(x, d)
    _set_den(x, den)
    return x


def _parts(x: "Scalar | RationalLike") -> tuple[int, int, int, int, int]:
    """The fields of a Scalar operand; anything else goes through the _frac gate."""
    if isinstance(x, Scalar):
        return x._a, x._b, x._c, x._d, x._den
    if type(x) is int and -_INT_BOUND < x < _INT_BOUND:
        return x, 0, 0, 0, 1
    q = _frac(x)
    return q.numerator, 0, 0, 0, q.denominator


def common_numerators(xs: Sequence[Scalar]) -> tuple[list[tuple[int, int, int, int]], int]:
    """The integer numerators (a, b, c, d) of each x over one common denominator.

    One lcm over the denominators: x = (a + b sqrt5 + c sqrt581 + d sqrt2905) / common.
    """
    common = math.lcm(*(x._den for x in xs))
    out = []
    for x in xs:
        k = common // x._den
        out.append((x._a * k, x._b * k, x._c * k, x._d * k))
    return out, common


def int_row_sums(rows: list[list[tuple[int, int]]], nums: Sequence[tuple[int, int, int, int]]) -> list[list[int]]:
    """Per surd part, rows @ (that part of nums): four integer columns.

    Each row is its nonzero (column, value) pairs (``ratmat.sparse_rows``)
    and nums the numerators (a, b, c, d) of a vector; a part that is zero
    throughout gives a zero column without a pass over the rows.
    """
    parts = []
    for part in zip(*nums):
        live = any(part)
        parts.append([sum([v * part[j] for j, v in row]) if live else 0 for row in rows])
    return parts


def sqrt_rational(q: Fraction) -> Scalar | None:
    """Square root of a nonnegative rational inside Q(sqrt5, sqrt581).

    Representable exactly iff q is s^2, 5 s^2, 581 s^2 or 2905 s^2 for
    rational s; returns None otherwise.
    """
    if q < 0:
        raise InputError("sqrt of a negative rational requested")
    root = _sqrt_fraction(q)
    if root is not None:
        return Scalar(root)
    for divisor, ctor in ((5, Scalar.sqrt5), (581, Scalar.sqrt581), (2905, Scalar.sqrt2905)):
        root = _sqrt_fraction(q / divisor)
        if root is not None:
            return ctor(root)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT5 = Scalar.sqrt5()
SQRT581 = Scalar.sqrt581()
SQRT2905 = Scalar.sqrt2905()
