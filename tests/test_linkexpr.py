from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from spin7ac.errors import InputError
from spin7ac.linkexpr import (
    CLOSED,
    COCLOSED,
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


def test_degree_bookkeeping():
    a = Atom("a", 3)
    x = LinkExpr.atom(a)
    assert d_link(x).degree == 4
    assert star_link(x).degree == 4
    assert dstar_link(x).degree == 2
    assert laplacian_link(x).degree == 3


def test_dd_and_tt_vanish():
    # degree 8 included: the inner codifferential stays a primitive letter
    # there, and the identity must hold across the primitive/bridged seam
    for degree in range(0, 9):
        x = LinkExpr.atom(Atom("a", degree))
        if degree <= 7:
            assert d_link(d_link(x)).is_zero()
        assert dstar_link(dstar_link(x)).is_zero()


def test_star_involution():
    for degree in range(0, 8):
        x = LinkExpr.atom(Atom("a", degree))
        assert star_link(star_link(x)) == x


def test_codifferential_bridge():
    # t = (-1)^k s d s on degree k in 1..7; t kills functions.
    f = LinkExpr.atom(Atom("f", 0))
    assert dstar_link(f).is_zero()
    x = LinkExpr.atom(Atom("a", 3))
    bridged = star_link(d_link(star_link(x))).scale(-1)
    assert dstar_link(x) == bridged


def test_star_rejects_formal_degree_eight():
    x = LinkExpr.atom(Atom("top", 8))
    with pytest.raises(InputError):
        star_link(x)
    # but the codifferential is a legal primitive there
    assert dstar_link(x).degree == 7


def test_closed_relation():
    rules = Relations()
    rules.kill("a", CLOSED)
    x = LinkExpr.atom(Atom("a", 2))
    assert d_link(x, rules).is_zero()
    assert not dstar_link(x, rules).is_zero()


def test_coclosed_relation():
    rules = Relations()
    rules.kill("a", COCLOSED)
    x = LinkExpr.atom(Atom("a", 2))
    assert dstar_link(x, rules).is_zero()
    assert not d_link(x, rules).is_zero()
    # d* of the star also dies: d s a = 0 for co-closed a.
    assert d_link(star_link(x, rules), rules).is_zero()


def test_harmonic_is_closed_and_coclosed():
    rules = Relations()
    rules.kill("a", HARMONIC)
    x = LinkExpr.atom(Atom("a", 4))
    assert d_link(x, rules).is_zero()
    assert dstar_link(x, rules).is_zero()
    assert laplacian_link(x, rules).is_zero()


def test_eigenform_relation_function():
    mu = Scalar(Fraction(7))
    rules = Relations(eigen={"f": mu})
    f = LinkExpr.atom(Atom("f", 0))
    assert laplacian_link(f, rules) == f.scale(mu)


def test_eigenform_relation_all_supported_degrees():
    mu = Scalar(Fraction(5, 2))
    for degree in range(0, 7):
        rules = Relations(eigen={"a": mu})
        a = LinkExpr.atom(Atom("a", degree))
        assert laplacian_link(a, rules) == a.scale(mu)
        # the rule also fires inside a previously normalized expression
        assert normalize(laplacian_link(a), rules) == a.scale(mu)
        # iterating the Laplacian squares the eigenvalue
        assert laplacian_link(laplacian_link(a, rules), rules) == a.scale(mu * mu)
    # a long word needs no rewrite depth: (s d s d) f = -mu f on a 0-form
    f = Atom("f", 0)
    word = LinkExpr.monomial(("s", "d", "s", "d") * 61, f)
    assert normalize(word, Relations(eigen={"f": Scalar(2)})) == LinkExpr.atom(f).scale(Scalar(-2) ** 61)


def test_duality_relation():
    phi = Atom("phi", 3)
    rules = Relations()
    rules.declare_duality(phi, 4)
    x = LinkExpr.atom(phi)
    assert d_link(x, rules) == star_link(x, rules).scale(4)
    # derived consequences: d(*phi) = 0 and d*(phi) = 0 and d*(*phi) = 4 phi
    assert d_link(star_link(x, rules), rules).is_zero()
    assert dstar_link(x, rules).is_zero()
    assert dstar_link(star_link(x, rules), rules) == x.scale(4)
    # d a and s a share a degree only on 3-forms; other degrees are refused
    for degree, coeff in ((8, 4), (8, 0), (5, 0), (5, 4), (2, 1)):
        with pytest.raises(InputError, match=f"needs a 3-form, not degree {degree}"):
            Relations().declare_duality(Atom("a", degree), coeff)


def test_zero_atom_rule():
    rules = Relations()
    rules.kill("a", [()])
    x = LinkExpr.atom(Atom("a", 2)) + LinkExpr.atom(Atom("b", 2))
    n = normalize(x, rules)
    assert n == LinkExpr.atom(Atom("b", 2))


def test_monomial_zero_rule():
    beta8 = Atom("beta8", 8)
    rules = Relations()
    rules.kill("beta8", [("d",)])
    x = d_link(LinkExpr.atom(beta8), rules)
    assert x.is_zero()
    # longer words built on a killed monomial also die
    y = dstar_link(d_link(LinkExpr.atom(beta8), rules), rules)
    assert y.is_zero()


def test_kill_accumulates_words():
    rules = Relations()
    rules.kill("a", CLOSED)
    rules.kill("a", CLOSED)
    rules.kill("a", HARMONIC)  # adds the co-closed words
    rules.kill("a", COCLOSED + CLOSED)
    rules.kill("a", [])
    rules.kill("b", [()])
    assert rules.kills == {"a": set(HARMONIC), "b": {()}}


def test_zero_duality_keeps_d_of_the_star():
    # d a = 0 * (s a) says a is closed; it says nothing about d s a.
    a = Atom("a", 3)
    rules = Relations()
    rules.declare_duality(a, 0)
    x = LinkExpr.atom(a)
    assert d_link(x, rules).is_zero()
    assert d_link(star_link(x, rules), rules) == d_link(star_link(x))
    assert not rules.kills


def test_kill_words_are_keyed_by_name():
    # the rule follows the atom's name whatever its degree
    rules = Relations()
    rules.kill("a", [("d",)])
    for degree in (2, 5):
        assert d_link(LinkExpr.atom(Atom("a", degree)), rules).is_zero()
    assert not d_link(LinkExpr.atom(Atom("b", 2)), rules).is_zero()


def test_linearity_and_equality():
    a = LinkExpr.atom(Atom("a", 2))
    b = LinkExpr.atom(Atom("b", 2))
    s = Scalar(Fraction(3, 7))
    assert d_link(a.scale(s) + b) == d_link(a).scale(s) + d_link(b)
    assert (a - a).is_zero()
    with pytest.raises(InputError):
        a + LinkExpr.atom(Atom("c", 3))


def test_json_round_trip():
    a = Atom("alpha3", 3)
    expr = d_link(star_link(LinkExpr.atom(a))).scale(Scalar(Fraction(-2, 3)))
    again = LinkExpr.from_json(expr.to_json())
    assert again == expr


def test_json_canonicalizes_unreduced_words():
    payload = {
        "degree": 3,
        "terms": [
            {
                "coeff": {"1": "2/1"},
                "ops": ["s", "s"],
                "atom": {"name": "a", "degree": 3},
            },
            {"coeff": {"1": "1/1"}, "ops": ["d", "d"], "atom": {"name": "b", "degree": 1}},
        ],
    }
    expr = LinkExpr.from_json(payload)
    assert expr == LinkExpr.atom(Atom("a", 3)).scale(2)


def test_atom_hash_agrees_with_equality():
    a, again = Atom("alpha3", 3), Atom("alpha" + "3", 3)
    assert a == again and hash(a) == hash(again)
    assert a != Atom("alpha3", 4) and Atom("a", 0) < Atom("a", 1) < Atom("b", 0)
    assert repr(a) == "Atom(name='alpha3', degree=3)"
    terms = {(("d", "s"), a): "x"}
    assert terms[(("d",) + ("s",), Atom("alpha3", 3))] == "x"
    assert (("d", "s"), Atom("alpha3", 4)) not in terms


def _word_pin_lines() -> list[str]:
    """One relation kind and one operator per seeded draw on a sum of whole words."""
    rng = random.Random(4101)
    ops = {
        "normalize": normalize,
        "d": lambda e, r: apply_operator(e, "d", r),
        "s": lambda e, r: apply_operator(e, "s", r),
        "t": lambda e, r: apply_operator(e, "t", r),
        "laplacian": laplacian_link,
    }
    lines = []
    for _ in range(3000):
        name = rng.choice(("a", "b", "phi"))
        atom = Atom(name, 3 if name == "phi" else rng.randint(0, 8))
        words = [tuple(rng.choice("dst") for _ in range(rng.randint(0, 6))) for _ in range(2)]
        coeffs = [Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-2, 2), 3))
                  for _ in range(2)]
        rules = Relations()
        kind = rng.choice(("kill", "eigen", "duality"))
        if kind == "kill":
            rules.kill(name, [tuple(rng.choice("dst") for _ in range(rng.randint(0, 2)))])
        elif kind == "eigen":
            rules.eigen[name] = Scalar(Fraction(rng.randint(-3, 12), rng.randint(1, 3)))
        else:
            rules.declare_duality(Atom("phi", 3), rng.choice((4, 0, Fraction(-2, 3))))
        op = rng.choice(sorted(ops))
        try:
            expr = LinkExpr.monomial(words[0], atom).scale(coeffs[0])
            second = LinkExpr.monomial(words[1], atom)
            if second.degree == expr.degree:
                expr = expr + second.scale(coeffs[1])
            out = json.dumps(ops[op](expr, rules).to_json(), sort_keys=True)
        except InputError as exc:
            out = f"InputError: {exc}"
        lines.append(f"{op} {kind} {out}")
    return lines


# sha256 of 3,000 seeded draws: one or two unreduced words of 0..6 letters
# over d, s and t on an atom a or b of degree 0..8 or phi of degree 3, under
# one kill word, one eigenvalue or a duality on phi, through normalize,
# apply_operator with d, s or t, or laplacian_link (refusals included);
# recorded at 9e8a73d, before the rewriting became one work-list loop.
_WORD_REWRITE_SHA256 = "ef0538716239ab4a7f4cc81714f1a6d01cbf24e78d9f2f86d00db576f4ba9c18"


def test_rewriting_of_whole_words_is_byte_identical_to_pin():
    lines = _word_pin_lines()
    assert any(line.startswith("laplacian eigen") and "sqrt5" in line for line in lines)
    assert any("InputError: star undefined on degree" in line for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _WORD_REWRITE_SHA256
