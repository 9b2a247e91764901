"""The package's records: immutable NamedTuples, validated where they carry invariants."""

from __future__ import annotations

import pytest

from spin7ac import ratmat
from spin7ac.cones import (
    AsdClosedCondition,
    CriticalRate,
    HomogeneousConeForm,
    RateClassification,
    SlotVerdict,
    asd_closed_condition,
    classify_rate,
    one_form_critical_rates,
)
from spin7ac.errors import InputError
from spin7ac.forms import Form
from spin7ac.homrep import (
    CandidateVerdict,
    CasimirChain,
    CasimirRecord,
    HomData,
    IrrepLabel,
    RigidityReport,
    bryant_salamon_link_data,
    bryant_salamon_pipeline,
    enumerate_candidates,
    ud_hom_data,
)
from spin7ac.linkexpr import Atom, LinkExpr, Relations
from spin7ac.moduli import (
    Contribution,
    DimensionReport,
    LinkData,
    Rate,
    ScalingCheck,
    moduli_dimension,
    scaling_contribution,
)
from spin7ac.pitheta import PiThetaResult, pi_theta
from spin7ac.projectors import Decomposition, ProjectorTable, build_projectors, decompose, psi0
from spin7ac.scalars import Scalar

_RECORDS = {
    Atom: lambda: Atom("a", 3),
    IrrepLabel: lambda: IrrepLabel(1, 1, 0),
    HomogeneousConeForm: lambda: HomogeneousConeForm.build(-4, {1: (None, LinkExpr.atom(Atom("b", 1)))}),
    LinkData: bryant_salamon_link_data,
    ProjectorTable: build_projectors,
    AsdClosedCondition: lambda: asd_closed_condition(-1),
    SlotVerdict: lambda: next(iter(classify_rate("even", -4).verdicts.values())),
    RateClassification: lambda: classify_rate("even", -4),
    CriticalRate: lambda: one_form_critical_rates([8])[0],
    Rate: lambda: Rate.of(Scalar(-1)),
    Contribution: lambda: bryant_salamon_link_data().contributions[0],
    DimensionReport: lambda: moduli_dimension(bryant_salamon_link_data(), Scalar(-1)),
    ScalingCheck: lambda: scaling_contribution(bryant_salamon_link_data(), Scalar(-1)),
    CasimirChain: lambda: CasimirChain.of(16),
    CasimirRecord: lambda: enumerate_candidates(-1)[0],
    HomData: ud_hom_data,
    CandidateVerdict: lambda: bryant_salamon_pipeline().candidates[0],
    RigidityReport: bryant_salamon_pipeline,
    PiThetaResult: lambda: pi_theta(Form.zero(8, 4)),
    Decomposition: lambda: decompose(psi0()),
}


@pytest.mark.parametrize("kind", _RECORDS, ids=lambda kind: kind.__name__)
def test_records_are_immutable(kind):
    record = _RECORDS[kind]()
    assert type(record) is kind and len(kind._fields) == len(record)
    for name in kind._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):  # no __dict__ to take a new attribute
        record.extra = None


@pytest.mark.parametrize(
    "make",
    [
        lambda: Atom("a", 9),
        lambda: Atom("a", -1),
        lambda: IrrepLabel(1, 2, 0),
        lambda: IrrepLabel(0, 0, -1),
        lambda: LinkData("bad", -1, 0, ()),
        lambda: LinkData("bad", 0, 0, (Contribution(Scalar(-5), 1),)),
        lambda: LinkData("bad", 0, 0, (Contribution(Scalar(-1), 1), Contribution(Scalar(-1), 2))),
        lambda: HomogeneousConeForm(Scalar(0), {2: (None, LinkExpr.atom(Atom("a", 3)))}),
        lambda: HomogeneousConeForm(Scalar(0), {2: (LinkExpr.atom(Atom("a", 2)), None)}),
        lambda: HomogeneousConeForm(Scalar(0), {10: (None, None)}),
    ],
)
def test_validated_records_refuse_bad_fields(make):
    with pytest.raises(InputError):
        make()


def test_link_data_sorts_its_contributions():
    rates = [Scalar(-1), Scalar(-3), Scalar(-2)]
    link = LinkData("x", 0, 0, tuple(Contribution(rate, 1) for rate in rates), critical_rates=(Scalar(-1),))
    assert [c.rate for c in link.contributions] == sorted(rates)
    assert link.critical_rates == (Scalar(-1),)
    assert LinkData.from_json(link.to_json()) == link


def test_zero_cone_forms_of_any_rate_are_equal():
    zero_a, zero_b = HomogeneousConeForm.build(-1, {}), HomogeneousConeForm.build(-2, {})
    assert zero_a == zero_b and not zero_a != zero_b
    g = _RECORDS[HomogeneousConeForm]()
    assert g != zero_a and not g == zero_a


def test_relations_do_not_share_dicts():
    first, second = Relations(), Relations()
    first.kill("a", [()])
    first.eigen["a"] = Scalar(3)
    first.duality["a"] = Scalar(4)
    assert (second.kills, second.eigen, second.duality) == ({}, {}, {})
    assert first.eigen is not second.eigen and first.duality is not second.duality
    eigen = {"f": Scalar(2)}
    assert Relations(eigen=eigen).eigen is eigen


def test_projector_table_derives_rows_from_projectors():
    numerators = {(2, 7): [[0, 3], [5, 0]]}
    table = ProjectorTable(numerators, [], [])
    assert table.projectors is numerators
    assert table.rows == {(2, 7): ratmat.sparse_rows(numerators[(2, 7)])}
    built = build_projectors()
    assert built.rows == {label: ratmat.sparse_rows(n) for label, n in built.projectors.items()}
    assert "apply" in vars(ProjectorTable)  # the benchmark's tracer wraps it there
