"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over ``fractions.Fraction``; nothing imports
spin7ac, so the program under test only ever sees the generated inputs.
Every generator draws from a ``random.Random`` that the caller seeds, so the
same seed gives byte-identical inputs (see ``canonical``).

Exact values in Q(sqrt5) are pairs ``(a, b)`` meaning a + b*sqrt5.  Forms over
R^8 are dicts from increasing 1-based index tuples to such pairs.

Where an input's cost varies a lot across its domain (pullback fill,
enumeration window, wedge degrees) consecutive draws step through the domain
in a fixed order (fixed fill levels, log-spaced enumeration windows, the grid
of degree pairs), so every run covers the whole domain in the same proportions
and run-to-run spread stays small.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations

ZERO2 = (Fraction(0), Fraction(0))

PSI0_TERMS = (
    ((1, 2, 3, 4), 1), ((1, 2, 5, 6), 1), ((1, 2, 7, 8), 1), ((1, 3, 5, 7), 1),
    ((1, 3, 6, 8), -1), ((1, 4, 5, 8), -1), ((1, 4, 6, 7), -1), ((2, 3, 5, 8), -1),
    ((2, 3, 6, 7), -1), ((2, 4, 5, 7), -1), ((2, 4, 6, 8), 1), ((3, 4, 5, 6), 1),
    ((3, 4, 7, 8), 1), ((5, 6, 7, 8), 1),
)

# All (p, q) with p, q >= 1 and p + q <= 8, for wedge products.
WEDGE_DEGREES = tuple((p, q) for p in range(1, 8) for q in range(1, 9 - p))

TYPE_LABELS = ("2_7", "2_21", "3_8", "3_48", "4_1", "4_7", "4_27", "4_35")

PULLBACK_FILLS = (1, 3, 5, 7, 8)
ENUMERATE_STRATA = 20
ETA_STRATA = 100
CONE_SHAPES = 25
ENUMERATE_LO_RANGE = (Fraction(-100), Fraction(-1, 2))


def basis(k: int, n: int = 8) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), k))


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` (distinct entries)."""
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def star_key(key: tuple[int, ...], n: int = 8) -> tuple[tuple[int, ...], int]:
    """Hodge star of dx_key: (complement, sign) with dx_key ^ dx_comp = sign vol."""
    comp = tuple(i for i in range(1, n + 1) if i not in key)
    return comp, perm_sign(key + comp)


def rat(rng: random.Random, num: int = 9, den: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if value or not nonzero:
            return value


def field_value(rng: random.Random, field: str) -> tuple[Fraction, Fraction]:
    """A coefficient in Q (field 'Q') or Q(sqrt5) (field 'Q5')."""
    return (rat(rng), rat(rng) if field == "Q5" else Fraction(0))


# -- JSON encodings the CLI and library accept --------------------------------


def frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def scalar_json(value: tuple[Fraction, Fraction]) -> dict[str, str]:
    out = {}
    if value[0]:
        out["1"] = frac_text(value[0])
    if value[1]:
        out["sqrt5"] = frac_text(value[1])
    return out


def form_json(k: int, terms: dict) -> dict:
    return {
        "n": 8,
        "k": k,
        "terms": {
            ",".join(map(str, key)): scalar_json(value)
            for key, value in sorted(terms.items())
            if value != ZERO2
        },
    }


def canonical(obj) -> str:
    """Byte-stable text of a generated input, for determinism checks."""

    def plain(x):
        if isinstance(x, dict):
            return sorted([json.dumps(plain(k)), plain(v)] for k, v in x.items())
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, Fraction):
            return frac_text(x)
        return x

    return json.dumps(plain(obj), sort_keys=True)


# -- forms ---------------------------------------------------------------------


def random_form(rng: random.Random, k: int, field: str, density: float = 1.0) -> dict:
    """Form of degree k; each monomial present with probability ``density``."""
    terms = {}
    for key in basis(k):
        if rng.random() < density:
            value = field_value(rng, field)
            if value != ZERO2:
                terms[key] = value
    return terms


def asd_eta(rng: random.Random, index: int | None = None) -> dict[tuple[int, ...], Fraction]:
    """Exact anti-self-dual 4-form with |eta| uniform over the ball (0, 0.1).

    A seeded rational 4-form v is projected by (Id - *)/2, then scaled by a
    rational s chosen so that |s*eta| <= rho for a radius rho drawn in
    (0, 1/10); |eta|^2 < 1/100 therefore holds exactly.  With ``index`` the
    radius is stratified: ETA_STRATA consecutive indices draw one radius from
    each of ETA_STRATA equal strata, so that every run meets the same mix of
    Newton iteration counts.
    """
    v = {key: rat(rng) for key in basis(4)}
    eta = {}
    for key in basis(4):
        comp, sign = star_key(key)
        coeff = (v[key] - sign * v[comp]) / 2
        if coeff:
            eta[key] = coeff
    if index is None:
        rho = Fraction(rng.randint(1, 10**6 - 1), 10**7)
    else:
        step = 10**6 // ETA_STRATA
        rho = Fraction((7 * index) % ETA_STRATA * step + rng.randint(1, step - 1), 10**7)
    norm2 = sum(c * c for c in eta.values())
    if not norm2:
        return {}
    scale = 10**9
    root_up = Fraction(math.isqrt(norm2.numerator * scale * scale // norm2.denominator) + 1, scale)
    s = rho / root_up
    return {key: c * s for key, c in eta.items()}


def eta_vector(eta: dict) -> list[float]:
    """Float coefficients in the lexicographic Lambda^4 basis."""
    return [float(eta.get(key, 0)) for key in basis(4)]


def eta_json(eta: dict) -> dict:
    return form_json(4, {key: (c, Fraction(0)) for key, c in eta.items()})


def psi0_terms() -> dict:
    return {key: (Fraction(sign), Fraction(0)) for key, sign in PSI0_TERMS}


def rational_matrix(rng: random.Random, per_row: int) -> list[list[Fraction]]:
    """8x8 rational matrix with ``per_row`` nonzero entries in each row, at seeded places."""
    rows = []
    for _ in range(8):
        places = set(rng.sample(range(8), per_row))
        rows.append([rat(rng, 5, 4, nonzero=True) if j in places else Fraction(0) for j in range(8)])
    return rows


def pullback_fill(index: int) -> int:
    """Nonzeros per row of the index-th pullback matrix: 1, 3, 5, 7 or 8.

    Five fixed levels from sparse to fully dense, visited in turn, so that
    every five pullbacks cost the same mix; entries and places are seeded.
    Equal counts per row keep the cost of one level steady across seeds.
    """
    return PULLBACK_FILLS[index % len(PULLBACK_FILLS)]


def tangent_vector(rng: random.Random) -> list[Fraction]:
    """Nonzero rational vector in R^8 with no dx_1 component (the slice)."""
    comps = [Fraction(0)] + [rat(rng, 6, 5) if rng.random() < 0.7 else Fraction(0) for _ in range(7)]
    forced = rng.randint(1, 7)
    if not comps[forced]:
        comps[forced] = rat(rng, 6, 5, nonzero=True)
    return comps


# -- cone forms and rates ----------------------------------------------------------

_OPS_DEGREE_BACK = {"d": lambda g: g - 1, "s": lambda g: 7 - g, "t": lambda g: g + 1}


def link_expr(shape: random.Random, rng: random.Random, degree: int, field: str) -> dict:
    """LinkExpr JSON of link degree ``degree`` (0..7): 1-3 words on atoms.

    ``shape`` draws the words, ``rng`` the coefficients and atom names.
    """
    terms = []
    for _ in range(shape.randint(1, 3)):
        word = [shape.choice("dst") for _ in range(shape.randint(0, 2))]
        g = degree
        for op in word:  # outermost first: undo it to find the inner degree
            g = _OPS_DEGREE_BACK[op](g)
        if not 0 <= g <= 7:
            word, g = [], degree
        value = field_value(rng, field)
        if value == ZERO2:
            value = (Fraction(1), Fraction(0))
        terms.append(
            {
                "coeff": scalar_json(value),
                "ops": word,
                "atom": {"name": f"x{g}_{rng.randint(0, 2)}", "degree": g},
            }
        )
    return {"degree": degree, "terms": terms}


def cone_form(rng: random.Random, index: int) -> dict:
    """Homogeneous cone form JSON: rational rate, link degrees 0..7.

    The cost of a cone operator hangs on the form's shape (its field, degrees
    and words), which varies over two orders of magnitude.  So the shape is
    a stratified draw: CONE_SHAPES consecutive indices take the CONE_SHAPES
    shapes of a fixed draw over the whole shape domain, at the same cost in
    every run; the rate, coefficients and atom names come from ``rng``.
    """
    shape = random.Random(f"cone-shape:{index % CONE_SHAPES}")
    field = ("Q", "Q5")[index % 2]
    rate = Fraction(rng.randint(-60, 0), rng.randint(1, 10))
    components = []
    for k in sorted(shape.sample(range(0, 9), shape.randint(1, 3))):
        alpha = link_expr(shape, rng, k - 1, field) if k >= 1 and shape.random() < 0.7 else None
        beta = link_expr(shape, rng, k, field) if k <= 7 and (alpha is None or shape.random() < 0.7) else None
        if alpha is None and beta is None:
            beta = link_expr(shape, rng, k, field) if k <= 7 else None
            alpha = link_expr(shape, rng, k - 1, field) if beta is None else None
        components.append({"degree": k, "alpha": alpha, "beta": beta})
    return {"rate": scalar_json((rate, Fraction(0))), "components": components}


def classify_rate_draw(rng: random.Random) -> tuple[str, Fraction]:
    """Parity and a rational rate in (-6, 0]."""
    q = rng.randint(1, 6)
    return rng.choice(("even", "odd")), Fraction(rng.randint(-6 * q + 1, 0), q)


CERTIFIED_RATES = (("even", Fraction(-4)), ("odd", Fraction(-3)))


def enumerate_lo(index: int, strata: int = ENUMERATE_STRATA) -> Fraction:
    """lo on a log-spaced grid over [-100, -1/2]: a stratified log-uniform draw.

    Enumeration cost and memory grow like lo^2, so a run's cost hangs on its
    largest windows.  The grid takes the midpoints of ``strata`` equal strata
    of the log range; ``strata`` consecutive indices visit each once
    (``strata`` must be coprime to 7), at the same cost in every run.
    Callers offset the index by a seeded start.
    """
    lo_abs, hi_abs = -ENUMERATE_LO_RANGE[1], -ENUMERATE_LO_RANGE[0]
    u = ((7 * index) % strata + 0.5) / strata
    x = math.exp(math.log(lo_abs) + u * (math.log(hi_abs) - math.log(lo_abs)))
    return -Fraction(x).limit_denominator(24)


BS_CRITICAL = Fraction(-10, 3)


def moduli_nu(rng: random.Random) -> Fraction:
    """Rational rate in (-4, 0), off the Bryant-Salamon critical rate -10/3.

    -10/3 (and nu with nu + 1 = -10/3, which lies below -4) are outside the
    formula's domain, so the draw is from (-4, 0) minus that point.
    """
    while True:
        q = rng.randint(1, 12)
        nu = Fraction(rng.randint(-4 * q + 1, -1), q)
        if nu != BS_CRITICAL:
            return nu


def irrational_lambda(rng: random.Random) -> tuple[Fraction, Fraction]:
    """lambda = a + b*sqrt5 with b != 0, near a uniform target in (-4, 0)."""
    target = rng.uniform(-4.0, 0.0)
    b = Fraction(rng.choice((-1, 1)), rng.randint(2, 9))
    a = Fraction(target - float(b) * math.sqrt(5)).limit_denominator(1000)
    return a, b


def casimir_label(rng: random.Random) -> tuple[int, int, int]:
    k1 = rng.randint(0, 6)
    return k1, rng.randint(0, k1), rng.randint(0, 6)


def critical_eigenvalues(rng: random.Random) -> list[Fraction]:
    """Link scalar eigenvalues: each 0 or >= 7 (the documented domain)."""
    out = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            out.append(Fraction(0))
        else:
            out.append(Fraction(7) + Fraction(rng.randint(0, 200), rng.randint(1, 8)))
    return out
