from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7ac import homrep
from spin7ac.errors import InputError
from spin7ac.forms import Form, hodge_star, wedge
from spin7ac.homrep import (
    BRANCHING,
    E_MODULES,
    LAMBDA_BAR_PAPER,
    MAX_WINDOW_DEPTH,
    PHI_FRAME,
    _PAPER_PRINTED,
    CasimirChain,
    HomData,
    IrrepLabel,
    _scaled_casimir,
    bryant_salamon_link_data,
    bryant_salamon_pipeline,
    casimir,
    enumerate_candidates,
    hom_obstruction_coefficient,
    is_type27,
    lambda_bar_of_rate,
    records_json,
    rescale_torsion_constant,
    trivial_hom_data,
    type27_residuals,
    ud_hom_data,
)
from spin7ac.moduli import lambda_of_mu
from spin7ac.scalars import SQRT5, SQRT581, SQRT2905, Scalar


def test_casimir_values():
    assert casimir(IrrepLabel(1, 1, 0)) == Scalar(Fraction(-2, 3))
    assert casimir(IrrepLabel(1, 0, 0)) == Scalar(Fraction(-5, 12))
    assert casimir(IrrepLabel(0, 0, 1)) == Scalar(Fraction(-3, 8))
    assert casimir(IrrepLabel(0, 0, 0)) == Scalar(0)


def test_casimir_strictly_decreasing_in_each_index():
    for k1 in range(0, 5):
        for k2 in range(0, k1 + 1):
            for l in range(0, 5):
                base = casimir(IrrepLabel(k1, k2, l))
                assert casimir(IrrepLabel(k1 + 1, k2, l)) < base
                if k2 < k1:
                    assert casimir(IrrepLabel(k1, k2 + 1, l)) < base
                assert casimir(IrrepLabel(k1, k2, l + 1)) < base


def test_invalid_labels_rejected():
    with pytest.raises(InputError):
        IrrepLabel(0, 1, 0)
    with pytest.raises(InputError):
        IrrepLabel(1, 0, -1)


def test_enumeration_window_examples():
    records = enumerate_candidates(Scalar(-1), Scalar(0))
    labels = [(r.label.k1, r.label.k2, r.label.l) for r in records]
    # the four printed candidates are all found, in decreasing Casimir order
    for expected in ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)):
        assert expected in labels
    # the exhaustive enumeration also finds (1,0,1) with Cas = -19/24,
    # which the printed list omits; it is flagged as such.
    assert (1, 0, 1) in labels
    extra = next(r for r in records if (r.label.k1, r.label.k2, r.label.l) == (1, 0, 1))
    assert extra.casimir == Scalar(Fraction(-19, 24))
    assert not extra.paper_listed
    assert len(records) == 5

    # boundary labels are excluded by the open lower end
    assert casimir(IrrepLabel(2, 0, 0)) == Scalar(-1)
    assert casimir(IrrepLabel(0, 0, 2)) == Scalar(-1)
    assert (2, 0, 0) not in labels and (0, 0, 2) not in labels

    narrow = enumerate_candidates(Scalar(Fraction(-1, 12)), Scalar(0))
    assert [(r.label.k1, r.label.k2, r.label.l) for r in narrow] == [(0, 0, 0)]


def test_enumeration_exhaustive_against_brute_force():
    # brute force over a generous box; the monotone frontier must agree
    lo, hi = Scalar(-1), Scalar(0)
    brute = set()
    for k1 in range(0, 8):
        for k2 in range(0, k1 + 1):
            for l in range(0, 8):
                c = casimir(IrrepLabel(k1, k2, l))
                if lo < c <= hi:
                    brute.add((k1, k2, l))
    records = enumerate_candidates(lo, hi)
    assert {(r.label.k1, r.label.k2, r.label.l) for r in records} == brute


def test_enumeration_closed_window():
    records = enumerate_candidates(Scalar(-1), Scalar(0), include_lo=True)
    labels = {(r.label.k1, r.label.k2, r.label.l) for r in records}
    assert (2, 0, 0) in labels and (0, 0, 2) in labels
    with pytest.raises(InputError):
        enumerate_candidates(Scalar(0), Scalar(-1))


@pytest.mark.parametrize("include_lo", [False, True])
@pytest.mark.parametrize("include_hi", [False, True])
def test_enumeration_window_ends_against_brute_force(include_lo, include_hi):
    # ends on, between and off the Casimir grid 1/24 Z; the deep windows
    # whose top lies below 0 start the l range above 0
    windows = [(-1, 0), (Fraction(-19, 24), Fraction(-3, 8)), (Fraction(-7, 5), Fraction(-1, 7)),
               (Fraction(-2), Fraction(-2)), (Fraction(-5, 2), Fraction(1, 3)),
               (Fraction(-60), Fraction(-40)), (Fraction(-1441, 24), Fraction(-961, 24)),
               (Fraction(-90), Fraction(-179, 2)), (Fraction(-50), Fraction(-50)),
               (Fraction(-1201, 24), Fraction(-1201, 24))]
    for lo, hi in windows:
        # 2 k1^2 <= N and 3 l^2 <= N for N = -24 Cas bound every label in the window
        n_top = math.floor(-24 * lo)
        brute = []
        for k1 in range(math.isqrt(n_top // 2) + 1):
            for k2 in range(k1 + 1):
                for l in range(math.isqrt(n_top // 3) + 1):
                    c = casimir(IrrepLabel(k1, k2, l))
                    above = lo <= c if include_lo else lo < c
                    below = c <= hi if include_hi else c < hi
                    if above and below:
                        brute.append((-c, (k1, k2, l)))
        records = enumerate_candidates(lo, hi, include_lo=include_lo, include_hi=include_hi)
        assert [(r.label.k1, r.label.k2, r.label.l) for r in records] == [
            label for _, label in sorted(brute)
        ]


def test_enumeration_refuses_irrational_and_too_deep_windows():
    with pytest.raises(InputError):
        enumerate_candidates(-SQRT5, Scalar(0))
    with pytest.raises(InputError):
        enumerate_candidates(Scalar(-1), SQRT5)
    with pytest.raises(InputError):
        enumerate_candidates(Scalar(-MAX_WINDOW_DEPTH) - Scalar(Fraction(1, 24)))
    # the deepest benchmark window stays admitted
    assert enumerate_candidates(Scalar(-100), Scalar(-99))


# sha256 of the JSON of every record in (-200, 0], recorded at 8ae928f
# before the chains skipped lambda_of_mu outside Cas in (-1, 0].
_DEEPEST_WINDOW_SHA256 = "6186a15ae4e5e9500e3ed2244e06ac89a03c71c39bf63efc98bcdd947decca9d"


def test_deepest_window_is_byte_identical_to_pin():
    records = [r.to_json() for r in enumerate_candidates(-MAX_WINDOW_DEPTH)]
    assert len(records) == 23451
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == _DEEPEST_WINDOW_SHA256


def test_records_json_builds_each_chain_once_per_casimir(monkeypatch):
    records = enumerate_candidates(-MAX_WINDOW_DEPTH)
    calls = [0]
    original = CasimirChain.to_json

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(CasimirChain, "to_json", counting)
    out = records_json(records)
    assert calls[0] == len({r.casimir for r in records})
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == _DEEPEST_WINDOW_SHA256


def test_records_share_one_frozen_chain_per_casimir():
    records = enumerate_candidates(-60)
    assert len({id(r.chain) for r in records}) == len({r.casimir for r in records})
    # casimir() and the chain take -N/24 by the same integer path
    for r in records:
        n = _scaled_casimir(r.label.k1, r.label.k2, r.label.l)
        assert casimir(r.label) == r.casimir == Fraction(-n, 24)
    record = records[-1]
    with pytest.raises(AttributeError):
        record.chain = records[0].chain
    with pytest.raises(AttributeError):
        record.chain.lambdas = ()
    with pytest.raises(AttributeError):
        record.casimir = Scalar(0)


def _all_labels_by_n(n_top: int) -> list[tuple[int, tuple[int, int, int]]]:
    """(N, label) for every label with N = -24 Cas <= n_top, sorted, by brute force."""
    return sorted(
        (_scaled_casimir(k1, k2, l), (k1, k2, l))
        for k1 in range(math.isqrt(n_top // 2) + 1)
        for k2 in range(k1 + 1)
        for l in range(math.isqrt(n_top // 3) + 1)
        if _scaled_casimir(k1, k2, l) <= n_top
    )


@pytest.mark.parametrize("include_lo", [False, True])
@pytest.mark.parametrize("include_hi", [False, True])
def test_ladder_matches_brute_force_in_any_call_order(empty_ladder, include_lo, include_hi):
    # thin deep windows, whole windows and windows off the 1/24 grid, asked
    # deepest first (the ladder is built at once) and shallowest first (it
    # grows with every call)
    windows = [(Fraction(-200), Fraction(-199)), (Fraction(-200), Fraction(0)),
               (Fraction(-100), Fraction(-99)), (Fraction(-1441, 24), Fraction(-961, 24)),
               (Fraction(-5, 2), Fraction(1, 3)), (Fraction(-2), Fraction(-2)),
               (Fraction(-7, 5), Fraction(-1, 7)), (Fraction(-1), Fraction(0))]
    brute = _all_labels_by_n(24 * MAX_WINDOW_DEPTH)
    for order in (windows, windows[::-1]):
        empty_ladder()
        for lo, hi in order:
            expected = [
                label for n, label in brute
                if (lo <= Fraction(-n, 24) if include_lo else lo < Fraction(-n, 24))
                and (Fraction(-n, 24) <= hi if include_hi else Fraction(-n, 24) < hi)
            ]
            records = enumerate_candidates(lo, hi, include_lo=include_lo, include_hi=include_hi)
            assert [(r.label.k1, r.label.k2, r.label.l) for r in records] == expected, (lo, hi)


def test_each_call_returns_a_fresh_list_of_shared_records(empty_ladder):
    first = enumerate_candidates(-1)
    first.clear()
    second = enumerate_candidates(-1)
    assert len(second) == 5 and second is not enumerate_candidates(-1)
    # a deeper call shares the records and chains the first call built
    deeper = enumerate_candidates(-2)
    assert all(a is b for a, b in zip(second, deeper))
    assert deeper[4].chain is second[4].chain


def test_ladder_holds_the_deepest_window_once(empty_ladder):
    enumerate_candidates(-MAX_WINDOW_DEPTH)
    snapshot = homrep._ladder
    top, ns, records = snapshot
    assert top == 24 * MAX_WINDOW_DEPTH - 1
    assert len(ns) == len(records) == 23451
    assert ns == tuple(_scaled_casimir(r.label.k1, r.label.k2, r.label.l) for r in records)
    assert list(ns) == sorted(ns)
    for lo, hi in ((-MAX_WINDOW_DEPTH, 0), (-1, 0), (-200, -199), (Fraction(-7, 5), 1), (3, 5)):
        enumerate_candidates(lo, hi)
        assert homrep._ladder is snapshot


def test_cold_import_builds_no_rung():
    code = (
        f"import sys; sys.path[:0] = {sys.path!r}\n"
        "import spin7ac.cli\n"
        "from spin7ac import homrep\n"
        "assert homrep._ladder == (-1, (), ()), homrep._ladder[0]\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_printed_values_are_36_25_times_the_formula_chain():
    # Every eigenvalue printed at the source is 36/25 times the formula
    # chain's, i.e. the printed chain takes mu = 4N/5 where the code takes
    # 5N/9.  This pins the fact; it rules on no acceptance criterion.
    by_label = {(r.label.k1, r.label.k2, r.label.l): r for r in enumerate_candidates(-1)}
    ratio = Fraction(36, 25)
    pairs = {
        (label, field): (printed[field], getattr(by_label[label].chain, chain_field))
        for label, printed in _PAPER_PRINTED.items()
        for field, chain_field in (("mu", "mu_scal42"), ("mu_squashed", "mu_squashed"))
        if field in printed
    }
    assert {key: (str(p), str(f)) for key, (p, f) in pairs.items() if not f.is_zero()} == {
        ((0, 0, 1), "mu_squashed"): ("324/25", "9"),
        ((1, 0, 0), "mu_squashed"): ("72/5", "10"),
        ((1, 1, 0), "mu"): ("64/5", "80/9"),
        ((1, 1, 0), "mu_squashed"): ("576/25", "16"),
    }
    assert all(p == f * ratio for p, f in pairs.values())
    # the one other field is the printed rate of (1,1,0), up to its sign the
    # in-range root of the printed mu
    assert {f for printed in _PAPER_PRINTED.values() for f in printed} == {
        "mu", "mu_squashed", "lambda_printed"
    }
    (root,) = lambda_of_mu(_PAPER_PRINTED[(1, 1, 0)]["mu"])
    assert root.value == -_PAPER_PRINTED[(1, 1, 0)]["lambda_printed"]

    # The plus root grows with mu and mu with N, so the labels of (-4, 0]
    # (N < 96) include every label with a rate in (-4, 0) under either constant.
    records = enumerate_candidates(-4)
    assert lambda_of_mu(Fraction(5 * 95, 9)) == [] and lambda_of_mu(Fraction(4 * 95, 5)) == []

    def with_rates(mu_of_n):
        return [
            (r.label.k1, r.label.k2, r.label.l)
            for r in records
            if lambda_of_mu(mu_of_n(-24 * r.casimir.as_fraction()))
        ]

    printed = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]
    assert with_rates(lambda n: n * Fraction(4, 5)) == printed
    assert with_rates(lambda n: n * Fraction(5, 9)) == printed + [(1, 0, 1)]
    assert [(r.label.k1, r.label.k2, r.label.l) for r in records if r.lambdas] == printed + [(1, 0, 1)]


def test_rates_in_range_iff_casimir_above_minus_one():
    # every N = -24 Cas an admitted window can reach: mu = 5N/9 has rates
    # in (-4, 0) exactly when N < 24, the bound the chains rely on
    for n in range(24 * MAX_WINDOW_DEPTH + 1):
        assert bool(lambda_of_mu(Fraction(5 * n, 9))) == (n < 24), n


@settings(max_examples=5, deadline=None)
@given(lo=st.fractions(-MAX_WINDOW_DEPTH, -100, max_denominator=48))
def test_deep_window_fuzz(lo):
    start = time.perf_counter()
    records = enumerate_candidates(lo)
    assert time.perf_counter() - start < 5.0
    n_max = math.ceil(-24 * lo) - 1  # lo < Cas <=> N < -24 lo
    found = [(r.label.k1, r.label.k2, r.label.l) for r in records]
    assert all(0 <= -24 * r.casimir.as_fraction() <= n_max for r in records)
    # -24 Cas from the docstring formula; 2 k1^2 <= N, 3 l^2 <= N and
    # k2 <= k1 bound every label in the window
    def n_of(k1, k2, l):
        return 2 * (4 * k1 + k1 * k1 + 2 * k2 + k2 * k2) + 3 * (2 * l + l * l)

    brute = {
        (k1, k2, l)
        for k1 in range(math.isqrt(n_max // 2) + 1)
        for k2 in range(k1 + 1)
        for l in range(math.isqrt(n_max // 3) + 1)
        if n_of(k1, k2, l) <= n_max
    }
    assert len(found) == len(brute) and set(found) == brute


def test_record_chains_and_flags():
    records = {
        (r.label.k1, r.label.k2, r.label.l): r
        for r in enumerate_candidates(Scalar(-1), Scalar(0))
    }
    r110 = records[(1, 1, 0)]
    assert r110.mu_scal42 == Scalar(Fraction(80, 9))
    assert r110.mu_squashed == Scalar(16)
    assert r110.paper_mu == Scalar(Fraction(64, 5))
    assert r110.paper_mu_squashed == Scalar(Fraction(576, 25))
    assert r110.consistent_with_paper is False
    # formula-chain rate is exactly -2/3
    assert r110.lambdas[0].exact and r110.lambdas[0].value == Scalar(Fraction(-2, 3))
    # the printed lambda is positive, i.e. out of range as printed
    assert r110.paper_lambda_printed > Scalar(0)

    r100 = records[(1, 0, 0)]
    assert r100.mu_squashed == Scalar(10)
    assert r100.paper_mu_squashed == Scalar(Fraction(72, 5))
    assert r100.consistent_with_paper is False

    r001 = records[(0, 0, 1)]
    assert r001.mu_squashed == Scalar(9)
    assert r001.paper_mu_squashed == Scalar(Fraction(324, 25))
    assert r001.consistent_with_paper is False

    r000 = records[(0, 0, 0)]
    assert r000.consistent_with_paper is True
    assert r000.lambdas[0].value == Scalar(Fraction(-10, 3))


def test_rescale_torsion_constant():
    value = rescale_torsion_constant((Scalar(5) - SQRT2905) / 15)
    assert value == (SQRT5 - SQRT581) / 5
    assert rescale_torsion_constant(Scalar(0)) == Scalar(0)
    assert rescale_torsion_constant(Scalar(Fraction(-2, 3))) == Scalar.sqrt5(
        Fraction(-2, 5)
    )


def test_lambda_bar_dictionary():
    assert lambda_bar_of_rate(Scalar(Fraction(-10, 3))) == Scalar(0)
    printed_rate = (Scalar(-55) + SQRT2905) / 15
    assert lambda_bar_of_rate(printed_rate) == LAMBDA_BAR_PAPER


def test_a_table_type27_certification():
    ud = ud_hom_data()
    for value in ud.all_values():
        w1, w2 = type27_residuals(value)
        assert w1.is_zero() and w2.is_zero()
    # the certification is nontrivial: a generic 3-form fails it
    assert not is_type27(Form.monomial(7, (1, 2, 3)))
    # and PHI_FRAME itself is an admissible G2 form: phi ^ *phi = 7 vol
    seven_vol = wedge(PHI_FRAME, hodge_star(PHI_FRAME))
    assert seven_vol == Form.monomial(7, tuple(range(1, 8))).scale(7)


def test_obstruction_coefficient_paper_value():
    ud = ud_hom_data()
    coefficient = hom_obstruction_coefficient(ud, LAMBDA_BAR_PAPER, "e4", (1, 2, 3, 4))
    assert coefficient == (SQRT5 + SQRT581) * Fraction(3, 5)
    # equal to 6 sqrt5/5 - 3 lambda_bar
    assert coefficient == Scalar.sqrt5(Fraction(6, 5)) - LAMBDA_BAR_PAPER * 3


def test_obstruction_nonvanishing_under_alternative_chain():
    # the formula-derived chain gives rate -2/3, hence the canonical-
    # connection constant -8/3 at scalar curvature 42
    ud = ud_hom_data()
    alt_rational = Scalar(Fraction(-8, 3))
    value = hom_obstruction_coefficient(ud, alt_rational, "e4", (1, 2, 3, 4))
    assert value == Scalar(8) + Scalar.sqrt5(Fraction(6, 5))  # rational + irrational
    assert not value.is_zero()
    alt_rescaled = rescale_torsion_constant(alt_rational)
    value = hom_obstruction_coefficient(ud, alt_rescaled, "e4", (1, 2, 3, 4))
    assert value == Scalar.sqrt5(6)
    assert not value.is_zero()


def test_obstruction_linearity():
    rng = random.Random(50)
    ud = ud_hom_data()
    for _ in range(10):
        s = Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        scaled = HomData(
            name="scaled",
            hom_dimension=1,
            action={key: value.scale(s) for key, value in ud.action.items()},
            direct={key: value.scale(s) for key, value in ud.direct.items()},
        )
        lb = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        assert hom_obstruction_coefficient(
            scaled, lb, "e4", (1, 2, 3, 4)
        ) == hom_obstruction_coefficient(ud, lb, "e4", (1, 2, 3, 4)) * s
        # linear in lambda_bar: affine with slope the star coefficient
        c0 = hom_obstruction_coefficient(ud, Scalar(0), "e4", (1, 2, 3, 4))
        c1 = hom_obstruction_coefficient(ud, Scalar(1), "e4", (1, 2, 3, 4))
        assert hom_obstruction_coefficient(ud, lb, "e4", (1, 2, 3, 4)) == c0 + (
            c1 - c0
        ) * lb


def test_obstruction_trivial_rep():
    a_value = Form(7, 3, {(1, 2, 3): Scalar(2), (4, 5, 6): Scalar(-1)})
    data = trivial_hom_data(a_value)
    lb = Scalar(Fraction(3, 2))
    starred = hodge_star(a_value)
    for target in ((4, 5, 6, 7), (1, 2, 3, 7)):
        assert hom_obstruction_coefficient(data, lb, "v", target) == lb * starred.coefficient(
            target
        )
    # lambda_bar = 0 kills every coefficient: the equation is vacuous
    for target in ((4, 5, 6, 7), (1, 2, 3, 7), (2, 3, 4, 5)):
        assert hom_obstruction_coefficient(data, Scalar(0), "v", target).is_zero()


def test_obstruction_missing_entry_errors():
    ud = ud_hom_data()
    with pytest.raises(InputError):
        hom_obstruction_coefficient(ud, Scalar(1), "e4", (1, 2, 3, 5))
    with pytest.raises(InputError):
        hom_obstruction_coefficient(ud, Scalar(1), "e9", (1, 2, 3, 4))
    with pytest.raises(InputError):
        hom_obstruction_coefficient(ud, Scalar(1), "e4", (1, 2, 3, 9))
    with pytest.raises(InputError):
        hom_obstruction_coefficient(ud, Scalar(1), "e4", (1, 2, 3))


def test_branching_table_consistency():
    assert set(BRANCHING[(1, 1, 0)]) & set(E_MODULES) == {"U.D", "C"}
    assert set(BRANCHING[(1, 0, 0)]) & set(E_MODULES) == set()
    assert set(BRANCHING[(0, 0, 1)]) & set(E_MODULES) == set()
    assert set(BRANCHING[(0, 0, 0)]) & set(E_MODULES) == {"C"}
    assert set(BRANCHING[(1, 0, 1)]) & set(E_MODULES) == {"U.D", "C"}


def test_pipeline_report():
    report = bryant_salamon_pipeline()
    verdict_by_label = {
        (c.record.label.k1, c.record.label.k2, c.record.label.l): c.verdict
        for c in report.candidates
    }
    assert verdict_by_label[(0, 0, 0)] == "contributes"
    assert verdict_by_label[(1, 1, 0)] == "obstructed"
    assert verdict_by_label[(1, 0, 0)] == "no-common-subrepresentation"
    assert verdict_by_label[(0, 0, 1)] == "no-common-subrepresentation"
    assert verdict_by_label[(1, 0, 1)] == "unresolved"

    assert [(str(c.rate), c.dim) for c in report.e_table] == [("-10/3", 1)]
    assert report.dimensions == {"-7/2": 0, "-3": 1, "-2": 1, "-1": 1, "-1/2": 1}
    assert report.obstruction_coefficient == (SQRT5 + SQRT581) * Fraction(3, 5)
    # the mu discrepancy must be flagged for (1,1,0), with both values shown
    flagged = [note for note in report.mu_discrepancies if "(1,1,0)" in note]
    assert flagged and "80/9" in flagged[0] and "64/5" in flagged[0]
    assert any("(1,0,1)" in item for item in report.unresolved)

    payload = report.to_json()
    assert payload["moduli_dimension"]["-1"] == 1
    text = report.table_text()
    assert "contributes" in text and "obstructed" in text


def test_pipeline_link_data_matches_shipped():
    link = bryant_salamon_link_data()
    assert link.dim_h4_minus_l2 == 0
    assert link.dim_im_upsilon4 == 0
    assert [(str(c.rate), c.dim) for c in link.contributions] == [("-10/3", 1)]
