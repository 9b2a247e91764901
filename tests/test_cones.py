from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

import ratref

from spin7ac import cones
from spin7ac.cones import (
    HomogeneousConeForm,
    asd_closed_condition,
    asd_form,
    classify_rate,
    cone_d,
    cone_dstar,
    cone_laplacian,
    cone_star,
    one_form_critical_rates,
    psi_cone,
)
from spin7ac import linkexpr, scalars
from spin7ac.errors import InputError, InternalCheckError
from spin7ac.linkexpr import (
    CLOSED,
    COCLOSED,
    EMPTY_RELATIONS,
    HARMONIC,
    Atom,
    LinkExpr,
    Relations,
    apply_operator,
    d_link,
    dstar_link,
    laplacian_link,
    normalize,
    star_link,
)
from spin7ac.scalars import Scalar


def random_mixed_form(rng: random.Random, degrees=range(0, 9)) -> HomogeneousConeForm:
    parts = []
    for k in rng.sample(list(degrees), k=rng.randint(1, 4)):
        alpha = None
        beta = None
        if k >= 1:
            alpha = LinkExpr.atom(Atom(f"a{k}", k - 1)).scale(
                Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            )
        if k <= 7:
            beta = LinkExpr.atom(Atom(f"b{k}", k)).scale(
                Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            )
        parts.append((k, alpha, beta))
    rate = Scalar(Fraction(rng.randint(-8, 4), rng.randint(1, 3)))
    return HomogeneousConeForm.build(rate, parts)


def test_cone_d_examples():
    # closed pure beta at the degree where (lambda + k) = 0
    beta = Atom("b", 4)
    rules = Relations()
    rules.kill("b", CLOSED)
    gamma = HomogeneousConeForm.build(-4, [(4, None, LinkExpr.atom(beta))])
    assert cone_d(gamma, rules).is_zero()

    # pure dr-part: d(dr ^ alpha) = -dr ^ d alpha
    alpha = Atom("a", 3)
    gamma = HomogeneousConeForm.build(0, [(4, LinkExpr.atom(alpha), None)])
    out = cone_d(gamma)
    assert out.rate == Scalar(-1)
    assert out.slot(5, "alpha") == -d_link(LinkExpr.atom(alpha))
    assert out.slot(5, "beta") is None


def test_cone_d_squared_vanishes_random():
    rng = random.Random(30)
    for _ in range(20):
        g = random_mixed_form(rng)
        assert cone_d(cone_d(g)).is_zero()


def test_cone_dstar_examples():
    # pure beta (no dr-part): the output has only the tangential slot,
    # -(lambda+8-k)*0 + d* beta = d* beta
    beta = Atom("b", 2)
    gamma = HomogeneousConeForm.build(-1, [(2, None, LinkExpr.atom(beta))])
    out = cone_dstar(gamma)
    assert out.rate == Scalar(-2)
    assert out.slot(1, "beta") == dstar_link(LinkExpr.atom(beta))
    assert out.slot(1, "alpha") is None
    assert out.slot(0, "alpha") is None

    # a co-closed beta at the rate where lambda + 8 - k = 0 dies entirely
    rules = Relations()
    rules.kill("b", COCLOSED)
    gamma = HomogeneousConeForm.build(-6, [(2, None, LinkExpr.atom(beta))])
    assert cone_dstar(gamma, rules).is_zero()

    psi, np_rules = psi_cone()
    assert cone_dstar(psi, np_rules).is_zero()


def test_cone_dstar_squared_vanishes_random():
    rng = random.Random(31)
    for _ in range(20):
        g = random_mixed_form(rng)
        assert cone_dstar(cone_dstar(g)).is_zero()


def test_cone_dstar_squared_vanishes_on_formal_top_slot():
    # the classification engine carries a formal degree-8 tangential slot;
    # the first-order identities must survive it
    g = HomogeneousConeForm.build(-4, [(8, LinkExpr.atom(Atom("alpha7", 7)), LinkExpr.atom(Atom("beta8", 8)))])
    assert cone_dstar(cone_dstar(g)).is_zero()
    assert cone_laplacian(g) == cone_d(cone_dstar(g)) + cone_dstar(cone_d(g))


def test_cone_star_examples():
    psi, rules = psi_cone()
    assert cone_star(psi, rules) == psi  # psi_C is self-dual

    # a pure function beta: *gamma = r^(lambda+7) dr ^ *beta, sign +1
    beta = Atom("f", 0)
    gamma = HomogeneousConeForm.build(2, [(0, None, LinkExpr.atom(beta))])
    out = cone_star(gamma)
    assert out.rate == Scalar(2)
    assert out.slot(8, "alpha") == star_link(LinkExpr.atom(beta))
    assert out.slot(8, "beta") is None


def test_cone_star_squared_law():
    rng = random.Random(32)
    for _ in range(30):
        g = random_mixed_form(rng, degrees=range(0, 9))
        if any(k > 8 for k in g.components):
            continue
        ss = cone_star(cone_star(g))
        # *^2 = Id on even cone degrees, -Id on odd: check per component.
        for k, (alpha, beta) in g.components.items():
            sign = 1 if k % 2 == 0 else -1
            assert ss.slot(k, "alpha") == (None if alpha is None else alpha.scale(sign))
            assert ss.slot(k, "beta") == (None if beta is None else beta.scale(sign))
        # in particular the degree-4 component is fixed
        if 4 in g.components:
            assert ss.slot(4, "alpha") == g.slot(4, "alpha")
            assert ss.slot(4, "beta") == g.slot(4, "beta")


def test_cone_laplacian_examples():
    # pure function with Delta f = mu f: tangential slot (mu - lambda(lambda+6)) f
    mu = Scalar(Fraction(11, 2))
    lam = Scalar(Fraction(-3, 2))
    rules = Relations(eigen={"f": mu})
    f = LinkExpr.atom(Atom("f", 0))
    gamma = HomogeneousConeForm.build(lam, [(0, None, f)])
    out = cone_laplacian(gamma, rules)
    factor = mu - lam * (lam + Scalar(6))
    assert out.slot(0, "beta") == f.scale(factor)
    assert out.slot(0, "alpha") is None

    # 1-form r^lambda(dr ^ alpha + r beta): dr-slot
    # Delta alpha - (lambda-1)(lambda+7) alpha - 2 d* beta
    alpha = LinkExpr.atom(Atom("a", 0))
    beta = LinkExpr.atom(Atom("b", 1))
    gamma = HomogeneousConeForm.build(lam, [(1, alpha, beta)])
    out = cone_laplacian(gamma)
    from spin7ac.linkexpr import laplacian_link

    expected = (
        laplacian_link(alpha)
        + alpha.scale(-(lam - Scalar(1)) * (lam + Scalar(7)))
        + dstar_link(beta).scale(-2)
    )
    assert out.slot(1, "alpha") == expected


def test_cone_laplacian_is_composition_random():
    rng = random.Random(33)
    for _ in range(30):
        g = random_mixed_form(rng)
        lhs = cone_laplacian(g)
        rhs = cone_d(cone_dstar(g)) + cone_dstar(cone_d(g))
        assert lhs == rhs


def test_cone_d_psi_c_iff_nearly_parallel():
    with_np, rules = psi_cone()
    assert cone_d(with_np, rules).is_zero()
    assert not cone_d(psi_cone()[0], Relations()).is_zero()


def test_asd_closed_condition_values():
    c = asd_closed_condition(Scalar(Fraction(-10, 3)))
    assert not c.harmonic
    assert c.coefficient == Scalar(Fraction(-2, 3))
    c4 = asd_closed_condition(-4)
    assert c4.harmonic and c4.coefficient is None


def test_asd_form_closure_round_trip():
    # declaring the characterizing link equation makes the ASD 4-form closed
    for numerator, denominator in ((-10, 3), (-7, 3), (-1, 3), (-4, 1)):
        lam = Scalar(Fraction(numerator, denominator))
        alpha = Atom("alpha", 3)
        condition = asd_closed_condition(lam)
        rules = condition.relations_for(alpha)
        gamma = asd_form(alpha, lam, rules)
        assert cone_d(gamma, rules).is_zero()
        # without the relation the form is not closed
        free = asd_form(alpha, lam)
        assert not cone_d(free).is_zero()


def test_asd_form_is_antiselfdual():
    lam = Scalar(Fraction(-10, 3))
    alpha = Atom("alpha", 3)
    gamma = asd_form(alpha, lam)
    starred = cone_star(gamma)
    assert starred.slot(4, "alpha") == -gamma.slot(4, "alpha")
    assert starred.slot(4, "beta") == -gamma.slot(4, "beta")


def test_shared_default_relations_stay_empty():
    # EMPTY_RELATIONS is one mutable object, the default rules of every
    # operator below: none of them may declare or kill anything in it.
    def empty():
        return (EMPTY_RELATIONS.kills, EMPTY_RELATIONS.eigen, EMPTY_RELATIONS.duality) == ({}, {}, {})

    assert empty()
    rng = random.Random(11)
    for _ in range(10):
        g = random_mixed_form(rng)
        for op in (cone_d, cone_star, cone_dstar, cone_laplacian):
            try:
                g = op(g)
            except InputError:  # d and d* are undefined on some formal slots
                pass
    for k in range(9):
        expr = LinkExpr.atom(Atom(f"a{k}", k))
        for op in (d_link, star_link, dstar_link, laplacian_link, normalize,
                   *(lambda e, op=op: apply_operator(e, op) for op in "dst")):
            try:
                op(expr)
            except InputError:
                pass
    psi_cone()
    for lam in (-4, Fraction(-10, 3), 0):
        asd_form(Atom("alpha", 3), lam)
    for parity, lam in (("even", -4), ("odd", -3), ("even", Fraction(-7, 3)), ("odd", Fraction(-1, 2))):
        classify_rate(parity, lam)
    assert empty()


def test_classification_even_minus_four():
    result = classify_rate("even", -4)
    expected_zero = {
        (0, "beta"),
        (1, "alpha"),
        (2, "beta"),
        (5, "alpha"),
        (6, "beta"),
        (7, "alpha"),
        (8, "beta"),
    }
    assert set(result.forced_zero()) == expected_zero
    assert result.survivors() == [(3, "alpha"), (4, "beta")]
    for key in result.survivors():
        assert result.verdicts[key].coefficient == Scalar(0)
    # the pinned eigenvalue: Delta beta_0 = -8 beta_0
    v0 = result.verdicts[(0, "beta")]
    assert v0.mechanism == "eigenvalue" and v0.coefficient == Scalar(-8)
    # beta_2 dies by back-substitution, as in the source recursion
    assert result.verdicts[(2, "beta")].mechanism == "back-substitution"
    # every eigenvalue-mechanism slot has a strictly negative coefficient
    for key, verdict in result.verdicts.items():
        if verdict.status == "forced-zero" and verdict.mechanism == "eigenvalue":
            assert verdict.coefficient is not None
            assert verdict.coefficient.sign() < 0


def test_classification_odd_minus_three():
    result = classify_rate("odd", -3)
    expected_zero = {
        (0, "alpha"),
        (1, "beta"),
        (2, "alpha"),
        (5, "beta"),
        (6, "alpha"),
        (7, "beta"),
    }
    assert set(result.forced_zero()) == expected_zero
    assert result.survivors() == [(3, "beta"), (4, "alpha")]
    v = result.verdicts[(0, "alpha")]
    assert v.mechanism == "eigenvalue" and v.coefficient == Scalar(-8)
    assert result.verdicts[(2, "alpha")].mechanism == "back-substitution"


def test_classification_unsupported_rate_returns_coupled():
    result = classify_rate("even", -2)
    statuses = {v.status for v in result.verdicts.values()}
    assert "coupled" in statuses
    for verdict in result.verdicts.values():
        if verdict.status == "coupled":
            assert verdict.detail


def test_classification_rejects_bad_input():
    with pytest.raises(InputError):
        classify_rate("mixed", -4)
    with pytest.raises(InputError):
        classify_rate("even", Scalar.sqrt5())


def test_classification_json():
    payload = classify_rate("even", -4).to_json()
    assert payload["parity"] == "even"
    assert payload["verdicts"]["0:beta"]["status"] == "forced-zero"


# sha256 of the classify_rate JSON over every rate k/q in (-6, 0] with
# q <= 6 (72 rates, even then odd), recorded at 8ae928f before Stage 1
# built its first-order system once per call instead of once per slot.
_CLASSIFY_GRID_SHA256 = "934dba6882306cf4382a858d95018671d83b930db931283794ce652f80644871"


def test_classification_grid_is_byte_identical_to_pin():
    rates = sorted({Fraction(k, q) for q in range(1, 7) for k in range(-6 * q + 1, 1)})
    assert len(rates) == 72
    lines = [
        json.dumps(classify_rate(parity, rate).to_json(), sort_keys=True)
        for parity in ("even", "odd")
        for rate in rates
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CLASSIFY_GRID_SHA256


# sha256 of the classify_rate JSON (even then odd) over the sorted union of
# every rate k/q in (-12, 6] with q <= 4 outside the grid above (72 rates)
# and 24 rationals from random.Random(28) with numerator in +-10^6 and
# denominator 1..10^4: positive rates, rates below -6, large denominators.
# Recorded before the echelon rows were reduced in one pass.
_CLASSIFY_SWEEP_SHA256 = "2d2484d5750f9cc4f12255b444b266290a21ded6ff14daacf0a4609d3800efe7"


def test_classification_sweep_is_byte_identical_to_pin():
    grid = {Fraction(k, q) for q in range(1, 7) for k in range(-6 * q + 1, 1)}
    small = {Fraction(k, q) for q in range(1, 5) for k in range(-12 * q + 1, 6 * q + 1)} - grid
    rng = random.Random(28)
    large = {Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(24)}
    rates = sorted(small | large)
    assert (len(small), len(rates)) == (72, 96)
    lines = [
        json.dumps(classify_rate(parity, rate).to_json(), sort_keys=True)
        for parity in ("even", "odd")
        for rate in rates
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CLASSIFY_SWEEP_SHA256


# sha256 of the classify_rate JSON (all even lines, then all odd) over the
# sorted union of every rate k/q in [-12, 6] with q <= 24 (3,241 rates) and
# 300 rationals from random.Random(3541) with numerator in +-10^6 and
# denominator 1..10^4: the set against which the rewrites of classify_rate
# onto integer columns and onto the column graph were compared.
_CLASSIFY_LARGE_SHA256 = "d1599f7843f63200bec1e21993b6a0c453001f0799299cfc14bbebd48183e3bb"


def test_classification_large_set_is_byte_identical_to_pin():
    grid = {Fraction(k, q) for q in range(1, 25) for k in range(-12 * q, 6 * q + 1)}
    rng = random.Random(3541)
    large = {Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(300)}
    rates = sorted(grid | large)
    assert (len(grid), len(rates)) == (3241, 3541)
    lines = [
        json.dumps(classify_rate(parity, Scalar(rate)).to_json(), sort_keys=True)
        for parity in ("even", "odd")
        for rate in rates
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CLASSIFY_LARGE_SHA256


def _reference_remainder(rows, target, width):
    """ratref's remainder of the integer row target by the span of the integer
    rows, fully back-eliminated with pivots in column order, as {column: Fraction}."""
    dense = [[Fraction(row.get(j, 0)) for j in range(width)] for row in rows]
    remainder = ratref.remainder(dense, [Fraction(target.get(j, 0)) for j in range(width)])
    return {j: x for j, x in enumerate(remainder) if x}


def _as_fractions(remainder):
    vec, den = remainder
    return {j: Fraction(x, den) for j, x in vec.items()}


def test_linear_system_reduces_past_later_pivots():
    # Columns a, b, c = 0, 1, 2: the row a + b keeps the pivot b of the later
    # row b + c, so only an in-order pass takes a to the pivot-free remainder c.
    a, b, c = ({j: 1} for j in range(3))
    system = cones._LinearSystem()
    for row in ({**a, **b}, {**b, **c}):
        system.add(row)
    assert [pivot for pivot, _ in system.rows] == [0, 1]
    assert system.reduce(a) == (c, 1)
    assert _as_fractions(system.reduce(a)) == _reference_remainder([{**a, **b}, {**b, **c}], a, 3) == c


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("rate", [-4, -3, Fraction(-5, 2), -2, Fraction(1, 3), -7])
def test_first_order_system_is_echelon(monkeypatch, parity, rate):
    added = []

    class Recorded(cones._LinearSystem):
        def add(self, row) -> None:
            added.append(dict(row))
            super().add(row)

    monkeypatch.setattr(cones, "_LinearSystem", Recorded)
    skeleton = cones._skeleton(parity)
    dead = set()
    rate = Fraction(rate)
    equations = cones._promote(skeleton, cones._equations_at(skeleton, rate.numerator, rate.denominator), dead)
    system = cones._first_order(skeleton, equations, dead)
    assert len(added) > len(equations)  # the d and d* prolongations too
    rules = Relations()  # the dead columns as kill words
    for j in dead:
        word, atom = skeleton.columns[j]
        rules.kill(atom.name, [word[::-1]])
    pivots = [pivot for pivot, _ in system.rows]
    for i, (pivot, row) in enumerate(system.rows):
        assert pivot == min(row) and row[pivot] > 0 and math.gcd(*row.values()) == 1  # content 1 at the pivot
        assert not set(pivots[:i]) & row.keys()
    for row in added:
        assert system.reduce(row) == ({}, 1)
    for atom in skeleton.atoms.values():
        laplacian = laplacian_link(LinkExpr.atom(atom), rules)
        target = {skeleton.index[m]: int(c.as_fraction()) for m, c in laplacian.terms.items()}
        assert [Scalar(c) for c in target.values()] == list(laplacian.terms.values())
        expected = _reference_remainder(added, target, len(skeleton.columns))
        assert _as_fractions(system.reduce(target)) == expected


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_classification_builds_one_linear_system(monkeypatch, parity):
    built = []

    class Counted(cones._LinearSystem):
        def __init__(self) -> None:
            built.append(self)
            super().__init__()

    monkeypatch.setattr(cones, "_LinearSystem", Counted)
    for rate in (-4, -3, Fraction(-5, 2)):
        built.clear()
        classify_rate(parity, rate)
        assert len(built) == 1


def _reachable_monomials(atoms, length=3):
    """Every canonical monomial of at most ``length`` operators on the atoms, by degree."""
    by_degree = {}
    frontier = [LinkExpr.atom(atom) for atom in atoms]
    for step in range(length + 1):
        following = []
        for expr in frontier:
            ((monomial, _),) = expr.terms.items()
            by_degree.setdefault(expr.degree, set()).add(monomial)
            if step == length:
                continue
            for op, ok in (("d", expr.degree <= 8), ("s", expr.degree <= 7), ("t", expr.degree >= 1)):
                image = apply_operator(expr, op) if ok else LinkExpr.zero(0)
                if not image.is_zero():
                    following.append(image)
        frontier = following
    return {degree: sorted(monomials) for degree, monomials in by_degree.items()}


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_filtered_images_match_apply_operator(parity):
    skeleton = cones._skeleton(parity)
    atoms = list(skeleton.atoms.values())
    by_degree = _reachable_monomials(atoms)
    rng = random.Random(30 if parity == "even" else 31)
    applied = 0
    for _ in range(300):
        # The kills classify_rate makes: an atom forced to zero, an atom
        # harmonic, or promoted columns, each as kill words and dead columns.
        rules, dead = Relations(), set()
        for atom in rng.sample(atoms, rng.randint(0, len(atoms))):
            bare = skeleton.index[((), atom)]
            kind = rng.choice(["zero", "harmonic", "columns"])
            if kind == "harmonic":
                rules.kill(atom.name, HARMONIC)
                dead |= skeleton.kills[bare] - {bare}
                continue
            own = [j for j, (_, a) in enumerate(skeleton.columns) if a == atom]
            for j in [bare] if kind == "zero" else rng.sample(own, min(2, len(own))):
                rules.kill(atom.name, [skeleton.columns[j][0][::-1]])
                dead |= skeleton.kills[j]
        degree = rng.choice(sorted(by_degree))
        monomials = by_degree[degree]
        picked = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        coefficients = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in picked}
        # The picks that are columns, as an integer row: 60 clears every denominator.
        coefficients = {m: c for m, c in coefficients.items() if c and m in skeleton.index}
        expr = LinkExpr(degree, {m: Scalar(c) for m, c in coefficients.items()})
        row = {skeleton.index[m]: int(60 * c) for m, c in coefficients.items()}

        def terms(out, scale=60):
            return {skeleton.columns[j]: Scalar(Fraction(c, scale)) for j, c in out.items()}

        assert terms({j: c for j, c in row.items() if j not in dead}) == normalize(expr, rules).terms
        for op in ("d", "t"):
            if row.keys() <= skeleton.images[op].keys() and ((op == "d" and degree <= 8) or (op == "t" and degree >= 1)):
                assert terms(cones._apply(skeleton, op, row, dead)) == apply_operator(expr, op, rules).terms
                applied += bool(row)
        for atom in atoms:
            x = skeleton.index[((), atom)]
            assert terms(cones._laplacian(skeleton, x, dead), 1) == laplacian_link(LinkExpr.atom(atom), rules).terms
    assert applied > 150


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_column_kills_match_the_prefix_rule(parity):
    # A column's kill set is what killing its word kills; an atom's kill set
    # without the atom is what HARMONIC kills on it.
    skeleton = cones._skeleton(parity)

    def matched(name, words):
        rules = Relations()
        rules.kill(name, words)
        return {j for j, (word, atom) in enumerate(skeleton.columns) if rules.killed(atom.name, word[::-1])}

    for j, (word, atom) in enumerate(skeleton.columns):
        assert skeleton.kills[j] == matched(atom.name, [word[::-1]])
    for atom in skeleton.atoms.values():
        bare = skeleton.index[((), atom)]
        assert skeleton.kills[bare] - {bare} == matched(atom.name, HARMONIC)
    assert max(map(len, skeleton.kills)) > 3


def test_skeleton_refuses_images_ranked_after_their_column(monkeypatch):
    # Bare atoms first: every image then ranks after the column it comes from.
    monkeypatch.setattr(cones, "_monomial_rank", lambda m: (len(m[0]), m[0], m[1].name))
    cones._skeleton.cache_clear()
    try:
        with pytest.raises(InternalCheckError, match="the even column table ranks an image of"):
            cones._skeleton("even")
        assert cones._skeleton.cache_info().currsize == 0
    finally:
        cones._skeleton.cache_clear()


def test_skeleton_refuses_rate_laws_that_are_not_affine(monkeypatch):
    original = cones.cone_dstar

    def squared(g, rules=EMPTY_RELATIONS):
        # cone_dstar at rate lambda^2: the same at rates 0 and 1 only
        out = original(HomogeneousConeForm(g.rate * g.rate, g.components), rules)
        return HomogeneousConeForm(g.rate - 1, out.components)

    monkeypatch.setattr(cones, "cone_dstar", squared)
    cones._skeleton.cache_clear()
    try:
        with pytest.raises(InternalCheckError):
            cones._skeleton("even")
        assert cones._skeleton.cache_info().currsize == 0
    finally:
        cones._skeleton.cache_clear()


def test_warm_classifications_make_no_rewrites(monkeypatch):
    for parity in ("even", "odd"):
        classify_rate(parity, Fraction(-7, 3))
    calls, images = [], []

    def counted(calls, original):
        def call(*args):
            calls.append(args)
            return original(*args)

        return call

    monkeypatch.setattr(linkexpr, "_rewrite", counted(calls, linkexpr._rewrite))
    monkeypatch.setattr(cones, "_image", counted(images, cones._image))
    rates = sorted({Fraction(k, q) for q in range(1, 7) for k in range(-6 * q + 1, 1)})
    for parity in ("even", "odd"):
        for rate in rates:
            classify_rate(parity, rate)
    assert len(rates) == 72 and calls == []
    assert cones._skeleton.cache_info().currsize == 2
    skeleton = cones._skeleton.cache_info()
    with pytest.raises(InputError):
        classify_rate("mixed", -4)
    assert images == []
    assert cones._skeleton.cache_info().currsize == 2
    cones._skeleton("even")
    cones._skeleton("odd")
    assert cones._skeleton.cache_info().hits == skeleton.hits + 2  # both parities stayed cached


def test_warm_classifications_make_no_scalar_arithmetic(monkeypatch):
    # Rates enter as Scalars, as the CLI passes them, so the input gate is not counted.
    rates = [Scalar(r) for r in sorted({Fraction(k, q) for q in range(1, 7) for k in range(-6 * q + 1, 1)})]
    for parity in ("even", "odd"):
        classify_rate(parity, rates[0])
    builds = cones._skeleton.cache_info().misses
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for owner, name in ((Scalar, "__mul__"), (Scalar, "_plus"), (Scalar, "inverse"), (scalars, "_frac"),
                        (cones, "_image"), (linkexpr, "_rewrite"), (Relations, "kill"), (Relations, "killed")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for parity in ("even", "odd"):
        for rate in rates:
            classify_rate(parity, rate)
    assert len(rates) == 72 and calls == []
    assert cones._skeleton.cache_info().misses == builds
    (Scalar(Fraction(1, 3)) * 2 + 1).inverse()  # the counters do see arithmetic and kill words
    Relations().kill("a", HARMONIC)
    Relations().killed("a", ("d",))
    assert set(calls) == {"_frac", "__mul__", "_plus", "inverse", "kill", "killed"}


# sha256 of the classify_rate JSON, even then odd, at two rates whose
# numerators and denominators have 300 and 599 digits, the most an integer
# input may have; recorded before the elimination moved to integer rows.
_INPUT_BOUND_SHA256 = "2ccd008e86477d1e9680d9cd3e4b49ffe2efa29738a0dac4d0e24992fa651b7e"


def test_classifications_at_the_input_bound_are_pinned():
    rates = [Fraction(-(7 * 10**299 + 1), 3 * 10**299 + 11), Fraction(-(10**599 - 1), 10**599 - 3)]
    start = time.perf_counter()
    lines = [json.dumps(classify_rate(parity, rate).to_json(), sort_keys=True) for parity in ("even", "odd") for rate in rates]
    assert time.perf_counter() - start < 2  # coefficients do not grow past the rate's own size
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _INPUT_BOUND_SHA256


def test_skeleton_refuses_monomials_outside_its_columns(monkeypatch):
    # Columns come from _image, equation terms from cone_d + cone_dstar: an
    # image that is an unknown word leaves the equation terms outside.
    monkeypatch.setattr(cones, "_image", lambda op, word, atom: (("x",) + word, 1))
    cones._skeleton.cache_clear()
    try:
        with pytest.raises(InternalCheckError, match="the even column table has no images of"):
            cones._skeleton("even")
        assert cones._skeleton.cache_info().currsize == 0
    finally:
        cones._skeleton.cache_clear()


def test_one_form_critical_rates():
    # mu = 7: roots 0 and -8, neither in (0,1)
    assert one_form_critical_rates([Scalar(7)]) == []
    # mu = 16: roots 1 and -9; 1 is excluded (open interval)
    assert one_form_critical_rates([Scalar(16)]) == []
    # mu = 0 (constants) is allowed and contributes nothing
    assert one_form_critical_rates([Scalar(0)]) == []
    # mu = 135/16 gives lambda = -4 + sqrt(279)/4 ~ 0.1757, approximate
    rates = one_form_critical_rates([Scalar(Fraction(135, 16))])
    assert len(rates) == 1 and not rates[0].rate.exact
    assert rates[0].rate.value_float == pytest.approx(-4 + 279**0.5 / 4)
    # an exactly representable case: mu = 11 gives disc 20, sqrt = 2 sqrt5
    exact_rates = one_form_critical_rates([Scalar(11)])
    assert len(exact_rates) == 1 and exact_rates[0].rate.exact
    assert exact_rates[0].rate.value == Scalar.sqrt5(2) - Scalar(4)


def test_one_form_critical_rates_rejects_obata_violation():
    with pytest.raises(InputError):
        one_form_critical_rates([Scalar(5)])
    with pytest.raises(InputError):
        one_form_critical_rates([Scalar(-1)])


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(1), 7 - Fraction(1, 10**6)])
def test_one_form_critical_rates_refuses_just_inside_the_obata_gap(mu):
    # (0, 7) is refused up to both of its ends; 0 and 7 themselves are allowed
    with pytest.raises(InputError):
        one_form_critical_rates([Scalar(mu)])
    assert one_form_critical_rates([Scalar(0), Scalar(7)]) == []


def test_hcf_json_round_trip():
    psi, _ = psi_cone()
    again = HomogeneousConeForm.from_json(psi.to_json())
    assert again == psi
    # A repeated degree would replace the earlier component, hiding its error.
    bad = {"degree": 2, "alpha": LinkExpr.atom(Atom("a", 2)).to_json(), "beta": None}
    with pytest.raises(InputError, match="dr-slot of degree-2 component"):
        HomogeneousConeForm.from_json({"rate": "0", "components": [bad]})
    with pytest.raises(InputError, match="cone degree 2 given twice"):
        HomogeneousConeForm.from_json({"rate": "0", "components": [bad, {"degree": 2, "alpha": None}]})


def test_hcf_validation():
    with pytest.raises(InputError):
        HomogeneousConeForm.build(0, [(2, LinkExpr.atom(Atom("x", 3)), None)])
    a = HomogeneousConeForm.build(0, [(2, None, LinkExpr.atom(Atom("x", 2)))])
    b = HomogeneousConeForm.build(1, [(2, None, LinkExpr.atom(Atom("x", 2)))])
    with pytest.raises(InputError):
        a + b


def _pin_coefficient(rng: random.Random) -> Scalar:
    """A rational, or with even odds a surd in Q(sqrt5, sqrt581)."""
    parts = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))]
    if rng.random() < 0.5:
        parts += [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
    return Scalar(*parts)


def _pin_form(rng: random.Random) -> HomogeneousConeForm:
    """A random form over degrees 0..9; phi stands in some degree-3 slots."""
    parts = []
    for k in rng.sample(range(0, 10), k=rng.randint(1, 4)):
        alpha = beta = None
        if k >= 1:
            name = "phi" if k == 4 and rng.random() < 0.5 else f"a{k}"
            alpha = LinkExpr.atom(Atom(name, k - 1)).scale(_pin_coefficient(rng))
        if k <= 8 and rng.random() < 0.8:
            name = "phi" if k == 3 and rng.random() < 0.5 else f"b{k}"
            beta = LinkExpr.atom(Atom(name, k)).scale(_pin_coefficient(rng))
        parts.append((k, alpha, beta))
    surd = Fraction(rng.randint(-2, 2), 3) if rng.random() < 0.25 else 0
    return HomogeneousConeForm.build(Scalar(Fraction(rng.randint(-8, 4), rng.randint(1, 3)), surd), parts)


def _cone_operator_lines() -> list[str]:
    rng = random.Random(2207)
    rule_sets = (("empty", EMPTY_RELATIONS), ("psi", psi_cone()[1]))
    lines = []
    for _ in range(120):
        g = _pin_form(rng)
        for op in (cone_d, cone_star, cone_dstar, cone_laplacian):
            for tag, rules in rule_sets:
                try:
                    out = json.dumps(op(g, rules).to_json(), sort_keys=True)
                except InputError as exc:
                    out = f"InputError: {exc}"
                lines.append(f"{op.__name__} {tag} {out}")
    return lines


# sha256 of the four cone operators on 120 seeded random forms (rational and
# surd coefficients and rates, formal degree-8 and degree-9 slots) under the
# empty rules and the psi_cone() rules, the degree-9 refusals of star and d
# included; recorded at dc02227 before the operators shared one component
# accumulator, and re-recorded when d's refusal of a nonzero degree-10 part
# changed from "cone degree 10 out of range" to its own message (exactly the
# 52 such cone_d lines of 960 differ).
_CONE_OPERATOR_SHA256 = "4d36c6c7fc30b89a980ab10e819d22d1b0bdc19e0a2e13a644418fa436da76c0"


def test_cone_operators_are_byte_identical_to_pin():
    lines = _cone_operator_lines()
    assert any(line.startswith("cone_star") and "degree-9" in line for line in lines)
    assert any(line.startswith("cone_d ") and "d undefined on formal degree-9" in line for line in lines)
    assert any('"sqrt5"' in line for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _CONE_OPERATOR_SHA256


def _relation_rule_sets() -> list[tuple[str, Relations]]:
    """One rule set per relation kind, on atom names that ``_pin_form`` draws."""
    phi = Atom("phi", 3)
    kinds = {
        "closed": {name: CLOSED for name in ("phi", "b2", "a5")},
        "coclosed": {name: COCLOSED for name in ("phi", "b4", "a3", "b8", "a9")},
        "harmonic": {name: HARMONIC for name in ("phi", "b5", "a2", "b8")},
        "zero": {name: [()] for name in ("b3", "a6", "a9")},
        "prefix": {"b8": [("d",)], "a9": [("t", "d")]},  # both of degree 8
    }
    rule_sets = []
    for tag, kills in kinds.items():
        rules = Relations()
        for name, words in kills.items():
            rules.kill(name, words)
        rule_sets.append((tag, rules))
    eigen = {"b0": Scalar(2), "a2": Scalar(Fraction(5, 2)), "phi": Scalar(12),
             "a5": Scalar(Fraction(7, 3), 1), "b6": Scalar(3)}
    rule_sets.append(("eigen", Relations(eigen=eigen)))
    for coeff in (4, 0):
        rules = Relations()
        rules.declare_duality(phi, coeff)
        rule_sets.append((f"duality{coeff}", rules))
    return rule_sets


# sha256 of the four cone operators on 80 seeded random forms under each rule
# set of _relation_rule_sets (closed, co-closed, harmonic, zero, a prefix
# kill on degree-8 atoms, eigenvalues on degrees 0, 1, 3, 4 and 6, and
# d phi = c * (s phi) for c = 4 and c = 0); recorded at ba10032, where the
# same rule sets were written as the separate closed, coclosed, harmonic,
# zero and monomial_zeros fields and the Duality record.
_RELATIONS_SHA256 = "b20b983aa47d713a152c0e2716740868432e82ae91d557cbbaaa71ea306f4071"


def test_cone_operators_under_relations_are_byte_identical_to_pin():
    rng = random.Random(2909)
    rule_sets = _relation_rule_sets()
    lines = []
    for _ in range(80):
        g = _pin_form(rng)
        for op in (cone_d, cone_star, cone_dstar, cone_laplacian):
            for tag, rules in rule_sets:
                try:
                    out = json.dumps(op(g, rules).to_json(), sort_keys=True)
                except InputError as exc:
                    out = f"InputError: {exc}"
                lines.append(f"{op.__name__} {tag} {out}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _RELATIONS_SHA256
