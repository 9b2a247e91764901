from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from spin7ac.cli import main
from spin7ac.cones import one_form_critical_rates
from spin7ac.errors import InputError
from spin7ac.homrep import enumerate_candidates, records_json
from spin7ac.moduli import (
    Contribution,
    LinkData,
    lambda_of_mu,
    moduli_dimension,
    mu_of_lambda,
    scaling_contribution,
)
from spin7ac.scalars import SQRT2905, Scalar


def bs_link() -> LinkData:
    return LinkData(
        name="bryant-salamon",
        dim_h4_minus_l2=0,
        dim_im_upsilon4=0,
        contributions=(Contribution(rate=Scalar(Fraction(-10, 3)), dim=1),),
        critical_rates=(Scalar(Fraction(-10, 3)),),
    )


def test_mu_of_lambda_values():
    assert mu_of_lambda(Scalar(Fraction(-10, 3))) == Scalar(0)
    assert mu_of_lambda(Scalar(-4)) == Scalar(0)
    assert mu_of_lambda(Scalar(0)) == Scalar(Fraction(40, 3))
    assert mu_of_lambda(Scalar(Fraction(-2, 3))) == Scalar(Fraction(80, 9))


def test_mu_range_minimum():
    # mu takes its minimum -1/9 at -11/3: nearby rational rates give strictly larger mu
    lam, mu = Scalar(Fraction(-11, 3)), Scalar(Fraction(-1, 9))
    assert mu_of_lambda(lam) == mu
    for eps in (Fraction(1, 100), Fraction(-1, 100)):
        assert mu_of_lambda(lam + Scalar(eps)) > mu


def test_lambda_of_mu_is_exact_for_a_sqrt5_rate_with_rational_mu():
    # lambda = -11/3 + b sqrt5 has the rational mu = 5 b^2 - 1/9, so its roots
    # are exact.  perfbench's irrational_lambda can draw a = -11/3, and its
    # check_lambda_round_trip then counts this right answer as a failure.
    mu = Scalar(Fraction(41, 36))
    plus, minus = (Scalar(Fraction(-11, 3), sign * Fraction(1, 2)) for sign in (1, -1))
    assert mu_of_lambda(plus) == mu and mu_of_lambda(minus) == mu
    roots = lambda_of_mu(mu)  # minus ~ -4.79 lies below -4
    assert [r.value for r in roots] == [plus] and roots[0].exact
    assert roots[0].value_float == float(plus)


def test_lambda_of_mu_examples():
    roots = lambda_of_mu(Scalar(0))
    assert len(roots) == 1 and roots[0].exact
    assert roots[0].value == Scalar(Fraction(-10, 3))

    roots = lambda_of_mu(Scalar(Fraction(64, 5)))
    assert len(roots) == 1 and roots[0].exact
    assert roots[0].value == (Scalar(-55) + SQRT2905) / 15

    roots = lambda_of_mu(Scalar(Fraction(80, 9)))
    assert len(roots) == 1 and roots[0].exact
    assert roots[0].value == Scalar(Fraction(-2, 3))


def test_lambda_of_mu_inverse_round_trip():
    rng = random.Random(40)
    for _ in range(200):
        mu = Scalar(Fraction(rng.randint(-1, 130), rng.randint(1, 10)))
        if mu <= Scalar(Fraction(-1, 9)):
            continue
        for root in lambda_of_mu(mu):
            if root.exact:
                assert mu_of_lambda(root.value) == mu
            else:
                x = root.value_float + 4.0
                assert x * x - (2.0 / 3.0) * x == pytest.approx(float(mu), rel=1e-12)


def test_lambda_of_mu_root_counts_exhaustive_sampling():
    # mu >= 0: at most one root in (-4,0); mu in (-1/9, 0): exactly two.
    for k in range(-110, 0):
        mu = Scalar(Fraction(k, 1000))
        if mu <= Scalar(Fraction(-1, 9)):
            with pytest.raises(InputError):
                lambda_of_mu(mu)
            continue
        assert len(lambda_of_mu(mu)) == 2
    for k in range(0, 1200, 7):
        mu = Scalar(Fraction(k, 90))
        roots = lambda_of_mu(mu)
        assert len(roots) <= 1
        if mu < Scalar(Fraction(40, 3)):
            assert len(roots) == 1


def test_lambda_of_mu_rejects_below_minimum():
    with pytest.raises(InputError):
        lambda_of_mu(Scalar(Fraction(-1, 9)))
    with pytest.raises(InputError):
        lambda_of_mu(Scalar(-1))


def test_moduli_dimension_bryant_salamon():
    link = bs_link()
    assert moduli_dimension(link, Scalar(-1)).total == 1
    assert moduli_dimension(link, Scalar(Fraction(-7, 2))).total == 0
    with pytest.raises(InputError):
        moduli_dimension(link, Scalar(Fraction(-10, 3)))
    with pytest.raises(InputError):
        moduli_dimension(link, Scalar(-5))
    with pytest.raises(InputError):
        moduli_dimension(link, Scalar(0))


def test_moduli_dimension_counts_window():
    link = LinkData(
        name="synthetic",
        dim_h4_minus_l2=2,
        dim_im_upsilon4=1,
        contributions=(
            Contribution(rate=Scalar(Fraction(-7, 2)), dim=3),
            Contribution(rate=Scalar(Fraction(-3, 2)), dim=5),
        ),
    )
    assert moduli_dimension(link, Scalar(Fraction(-15, 4))).total == 3
    assert moduli_dimension(link, Scalar(-2)).total == 6
    assert moduli_dimension(link, Scalar(-1)).total == 11


def test_moduli_dimension_nondecreasing_random():
    rng = random.Random(41)
    for _ in range(1000):
        n_contrib = rng.randint(0, 4)
        rates: list[Fraction] = []
        while len(rates) < n_contrib:
            candidate = Fraction(rng.randint(-39, -1), 10)
            if candidate not in rates:
                rates.append(candidate)
        link = LinkData(
            name="random",
            dim_h4_minus_l2=rng.randint(0, 3),
            dim_im_upsilon4=rng.randint(0, 3),
            contributions=tuple(
                Contribution(rate=Scalar(r), dim=rng.randint(0, 4)) for r in rates
            ),
        )
        nus = []
        while len(nus) < 2:
            nu = Fraction(rng.randint(-395, -5), 100)
            if all(Scalar(nu) != c.rate for c in link.contributions):
                nus.append(nu)
        lo, hi = sorted(nus)
        assert (
            moduli_dimension(link, Scalar(lo)).total
            <= moduli_dimension(link, Scalar(hi)).total
        )


def test_link_data_validation():
    with pytest.raises(InputError):
        LinkData("bad", -1, 0, ())
    with pytest.raises(InputError):
        LinkData("bad", 0, 0, (Contribution(rate=Scalar(-5), dim=1),))
    with pytest.raises(InputError):
        LinkData(
            "bad",
            0,
            0,
            (
                Contribution(rate=Scalar(-1), dim=1),
                Contribution(rate=Scalar(-1), dim=2),
            ),
        )


@pytest.mark.parametrize("rate", [Fraction(-4), Fraction(0)])
def test_link_data_refuses_a_rate_at_either_end(rate):
    with pytest.raises(InputError):
        LinkData("bad", 0, 0, (Contribution(rate=Scalar(rate), dim=1),))


def test_link_data_accepts_rates_just_inside_both_ends():
    inside = (-4 + Fraction(1, 10**6), -Fraction(1, 10**6))
    link = LinkData("edges", 0, 0, tuple(Contribution(rate=Scalar(r), dim=1) for r in inside))
    assert [c.rate for c in link.contributions] == [Scalar(r) for r in inside]


def test_link_data_sorted_and_round_trip():
    link = LinkData(
        name="two",
        dim_h4_minus_l2=0,
        dim_im_upsilon4=1,
        contributions=(
            Contribution(rate=Scalar(-1), dim=1),
            Contribution(rate=Scalar(-3), dim=2),
        ),
        critical_rates=(Scalar(-3),),
    )
    assert [float(c.rate) for c in link.contributions] == [-3.0, -1.0]
    again = LinkData.from_json(link.to_json())
    assert again.contributions == link.contributions
    assert again.critical_rates == link.critical_rates


def test_link_data_order_does_not_depend_on_the_input_order(tmp_path, capsys):
    # -1 and -1 + 10^-30 round to the same float; they must still sort exactly.
    near = Fraction(-1) + Fraction(1, 10**30)
    orders = ((Fraction(-1), near), (near, Fraction(-1)))
    links = [
        LinkData("close", 0, 0, tuple(Contribution(rate=Scalar(r), dim=1) for r in order))
        for order in orders
    ]
    assert [c.rate for c in links[0].contributions] == [Scalar(-1), Scalar(near)]
    assert links[0] == links[1]
    assert links[0].to_json() == links[1].to_json()
    outputs = []
    for i, order in enumerate(orders):
        path = tmp_path / f"link{i}.json"
        contributions = [{"lambda": str(r), "dim_E": 1} for r in order]
        path.write_text(json.dumps(
            {"name": "close", "dim_h4_minus_L2": 0, "dim_im_upsilon4": 0, "contributions": contributions}
        ))
        assert main(["moduli-dim", "--nu=-1/2", "--link", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["total"] == 2


def test_scaling_contribution_validator():
    link = bs_link()
    assert scaling_contribution(link, Scalar(Fraction(-10, 3))).valid
    emptied = LinkData("bs-empty", 0, 0, ())
    check = scaling_contribution(emptied, Scalar(Fraction(-10, 3)))
    assert not check.valid
    check = scaling_contribution(link, Scalar(Fraction(-1, 2)))
    assert not check.valid
    # a contribution at the metric's rate that carries no deformation
    silent = LinkData("bs-silent", 0, 0, (Contribution(rate=Scalar(Fraction(-10, 3)), dim=0),))
    check = scaling_contribution(silent, Fraction(-10, 3))
    assert not check.valid and check.reason == "contribution at -10/3 has dim_E = 0"
    with pytest.raises(InputError):
        scaling_contribution(link, Scalar(-5))


def test_dimension_report_json():
    report = moduli_dimension(bs_link(), Scalar(-1))
    payload = report.to_json()
    assert payload["total"] == 1
    assert payload["breakdown"]["L2"] == 0
    assert len(payload["breakdown"]["contributions"]) == 1


def _rate_layer_mus() -> list[Scalar]:
    """Seeded mu over Q, Q(sqrt5) and the whole field, field squares past each shift, edges."""
    rng = random.Random(2509)

    def q(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 12))

    mus = [Scalar(q(-3, 200)) for _ in range(150)]
    mus += [Scalar(q(-3, 200), q(-20, 20)) for _ in range(150)]
    mus += [Scalar(q(-3, 200), q(-20, 20), q(-3, 3), q(-2, 2)) for _ in range(150)]
    for shift in (Fraction(1, 9), Fraction(9)):  # lambda_of_mu, one_form_critical_rates
        for c in (1, 5, 581, 2905):
            for _ in range(30):  # sqrt(c s^2) spread over (0, 6), where the roots lie
                den = rng.randint(1, 12)
                s = Fraction(round(rng.uniform(0, 6) / c**0.5 * den), den)
                mus.append(Scalar(c * s * s - shift))
    edges = (16 - Fraction(1, 10**20), 7 + Fraction(1, 10**20), Fraction(41, 36), 0, Fraction(40, 3))
    return mus + [Scalar(x) for x in (*edges, Fraction(-1, 9), 7, 16, -1)]


def _rate_layer_lines() -> list[str]:
    lines = []
    for mu in _rate_layer_mus():
        for name, call in (
            ("lambda_of_mu", lambda: [r.to_json() for r in lambda_of_mu(mu)]),
            ("one_form_critical_rates", lambda: [r.to_json() for r in one_form_critical_rates([mu])]),
        ):
            try:
                out = json.dumps(call(), sort_keys=True)
            except InputError as exc:
                out = f"InputError: {exc}"
            lines.append(f"{name} {json.dumps(mu.to_json(), sort_keys=True)} {out}")
    lines.append(json.dumps(records_json(enumerate_candidates(-200)), sort_keys=True))
    return lines


# sha256 of lambda_of_mu and one_form_critical_rates (refusals included) on
# seeded mu over Q, Q(sqrt5) and Q(sqrt5, sqrt581), on mu whose discriminant
# is a field square, and on edge inputs, plus records_json of
# enumerate_candidates(-200); recorded at 89b97fc before both rate functions
# shared one root rule and one rate record.
_RATE_LAYER_SHA256 = "2932deace9a1f8fcd953db3ba132b1f6536c6ce0303819c8043fb05038c2f578"


def test_rate_layer_is_byte_identical_to_pin():
    lines = _rate_layer_lines()
    assert any('"exact": false' in line for line in lines)
    assert any('"sqrt2905"' in line and '"exact": true' in line for line in lines)
    assert any("InputError" in line for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _RATE_LAYER_SHA256
