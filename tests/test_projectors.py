from __future__ import annotations

import random
from fractions import Fraction

import pytest

from spin7ac import ratmat
from spin7ac.errors import InputError, InternalCheckError
from spin7ac.forms import (
    Form,
    Matrix,
    Vector,
    form_to_coefficients,
    gl_inf_action,
    hodge_star,
    inner_product,
    interior_product,
    monomial_basis,
    wedge,
)
from spin7ac.projectors import (
    PSI0_TERMS,
    _certify,
    antisym_matrix_from_form,
    build_projectors,
    decompose,
    g2_phi_eight,
    g2_phi_seven,
    psi0,
    reindex_to_seven,
    seven_factor_check,
    star7_slice,
    star_matrix,
    sym0_matrix_basis,
)
from spin7ac.scalars import Scalar


def test_psi0_explicit_terms():
    psi = psi0()
    assert len(psi.terms) == 14
    assert psi.coefficient((1, 2, 3, 4)) == Scalar(1)
    assert psi.coefficient((2, 3, 6, 7)) == Scalar(-1)
    assert all(abs(int(s)) == 1 for _, s in PSI0_TERMS)


def test_rank_table(table):
    assert table.rank_table() == {
        "2_7": 7,
        "2_21": 21,
        "3_8": 8,
        "3_48": 48,
        "4_1": 1,
        "4_7": 7,
        "4_27": 27,
        "4_35": 35,
    }


def test_projector_identities(table):
    # Symmetric, idempotent, trace = rank, mutually annihilating, complete:
    # all certified during construction; re-check a sample here explicitly.
    p35 = table.projector(4, 35)
    assert ratmat.mat_mul(p35, p35) == p35
    assert ratmat.is_symmetric(p35)
    assert ratmat.trace(p35) == 35
    p1 = table.projector(4, 1)
    prod = ratmat.mat_mul(p1, p35)
    assert all(all(x == 0 for x in row) for row in prod)


def test_p35_is_antiselfdual_half(table):
    s = star_matrix(8, 4)
    half = Fraction(1, 2)
    expected = ratmat.mat_scale(ratmat.mat_sub(ratmat.identity(70), s), half)
    assert table.projector(4, 35) == expected
    # Independent route: the span of the infinitesimal images of the
    # traceless symmetric matrices has exactly this projector.
    basis4 = monomial_basis(8, 4)
    vectors = []
    for m in sym0_matrix_basis():
        image = gl_inf_action(m, psi0())
        vectors.append([c.as_fraction() for c in form_to_coefficients(image, basis4)])
    assert ratmat.rank(vectors) == 35
    assert ratmat.projector_onto_span(vectors, 70) == expected


def test_p1_fixes_psi0(table):
    psi = psi0()
    assert table.apply(4, 1, psi) == psi
    for dim in (7, 27, 35):
        assert table.apply(4, dim, psi).is_zero()


def test_decompose_examples(table):
    assert decompose(psi0()).nonzero_labels() == [(4, 1)]
    contraction = interior_product(Vector.basis(8, 1), psi0())
    assert decompose(contraction).nonzero_labels() == [(3, 8)]
    asd = Form.monomial(8, (1, 2, 3, 4)) - Form.monomial(8, (5, 6, 7, 8))
    d = decompose(asd)
    assert d.nonzero_labels() == [(4, 35)]
    assert d.component(35) == asd


def test_decompose_components_sum_and_are_fixed(table):
    rng = random.Random(20)
    for degree in (2, 3, 4):
        basis = monomial_basis(8, degree)
        keys = rng.sample(basis, 6)
        a = Form(8, degree, {key: Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for key in keys})
        d = decompose(a)
        total = Form.zero(8, degree)
        for (deg, dim), comp in d.components.items():
            assert table.apply(deg, dim, comp) == comp
            total = total + comp
        assert total == a


def test_decompose_rejects_other_degrees():
    with pytest.raises(InputError):
        decompose(Form.monomial(8, (1,)))


def test_lambda2_21_is_stabiliser_algebra(table):
    psi = psi0()
    assert len(table.lambda2_21_matrices) == 21
    for m in table.lambda2_21_matrices:
        assert gl_inf_action(m, psi).is_zero()


def test_gl8_kernel_dimension_21():
    # On all of gl(8): kernel dimension 21, image dimension 43
    # (the orbit of psi0 has codimension 27 in the 70-dimensional space).
    psi = psi0()
    basis4 = monomial_basis(8, 4)
    columns = []
    for i in range(1, 9):
        for j in range(1, 9):
            image = gl_inf_action(Matrix.from_entries(8, {(i, j): 1}), psi)
            columns.append(
                [c.as_fraction() for c in form_to_coefficients(image, basis4)]
            )
    matrix = ratmat.transpose(columns)  # 70 x 64
    kernel = ratmat.nullspace(matrix)
    assert len(kernel) == 21
    assert ratmat.rank(matrix) == 43


def test_lambda2_bases_have_full_rank_and_are_fixed(table):
    basis2 = monomial_basis(8, 2)
    for dim, matrices in ((7, table.lambda2_7_matrices), (21, table.lambda2_21_matrices)):
        vectors = [[m.entry(i, j).as_fraction() for i, j in basis2] for m in matrices]
        assert len(vectors) == dim
        assert ratmat.rank(vectors) == dim
        p = table.projector(2, dim)
        for v in vectors:
            assert [ratmat.dot(row, v) for row in p] == v


def test_build_needs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("elimination helper called")

    for name in ("rank", "rref", "nullspace", "gram_schmidt", "projector_onto_span"):
        monkeypatch.setattr(ratmat, name, refuse)
    rebuilt = build_projectors.__wrapped__()
    assert rebuilt.projectors == build_projectors().projectors


def test_lambda4_7_dimension_and_orthogonality(table):
    psi = psi0()
    assert len(table.lambda4_7_basis) == 7
    for v in table.lambda4_7_basis:
        assert inner_product(v, psi).is_zero()
        # self-dual: orthogonal to every anti-self-dual form
        assert hodge_star(v) == v


def test_lambda3_8_injectivity(table):
    basis3 = monomial_basis(8, 3)
    vectors = []
    for i in range(1, 9):
        contraction = interior_product(Vector.basis(8, i), psi0())
        vectors.append(
            [c.as_fraction() for c in form_to_coefficients(contraction, basis3)]
        )
    assert ratmat.rank(vectors) == 8


def test_slice_model_identity():
    # psi0 = dx1 ^ phi + *7 phi with phi = e1 -| psi0.
    phi = g2_phi_eight()
    dx1 = Form.monomial(8, (1,))
    assert wedge(dx1, phi) + star7_slice(phi) == psi0()


def test_star7_slice_squares_to_identity():
    phi = g2_phi_eight()
    assert star7_slice(star7_slice(phi)) == phi


def test_seven_factor_examples(table):
    assert seven_factor_check(Vector.basis(8, 2)) == Scalar(Fraction(4, 7))
    x = Vector([0, 1, 0, 0, 3, 0, 0, 0])
    assert seven_factor_check(x) == Scalar(Fraction(4, 7))
    with pytest.raises(InputError):
        seven_factor_check(Vector.basis(8, 1))
    with pytest.raises(InputError):
        seven_factor_check(Vector([0] * 8))


def test_seven_factor_fifty_random(table):
    rng = random.Random(21)
    for _ in range(50):
        comps = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7)]
        if all(c == 0 for c in comps):
            comps[3] = Fraction(1)
        x = Vector([Scalar(c) for c in comps])
        assert seven_factor_check(x) == Scalar(Fraction(4, 7))


def test_g2_phi_seven_shape():
    phi = g2_phi_seven()
    assert phi.n == 7 and phi.k == 3 and len(phi.terms) == 7
    assert phi.coefficient((1, 2, 3)) == Scalar(1)


def test_reindex_rejects_radial_terms():
    with pytest.raises(InputError):
        reindex_to_seven(Form.monomial(8, (1, 2, 3)))


def test_antisym_round_trip():
    omega = Form(8, 2, {(1, 2): Scalar(3), (2, 5): Scalar(-2)})
    m = antisym_matrix_from_form(omega)
    assert m.entry(1, 2) == Scalar(3)
    assert m.entry(2, 1) == Scalar(-3)


def _broken_copy(table, label, edit):
    copy = {key: [list(row) for row in p] for key, p in table.projectors.items()}
    edit(copy[label])
    return copy


def _off_diagonal(p):
    p[0][1] += Fraction(1, 4)


def _diagonal(p):
    p[0][0] += Fraction(1, 4)


def _other_rank7_projector(p):
    # symmetric, idempotent and of trace 7, but not the Lambda^2_7 projector
    for i, row in enumerate(p):
        row[:] = [Fraction(int(i == j and i < 7)) for j in range(len(row))]


@pytest.mark.parametrize(
    "label, edit, message",
    [
        ((2, 7), _off_diagonal, "not symmetric"),
        ((3, 48), _diagonal, "not idempotent"),
        ((2, 7), _other_rank7_projector, "sum to Id|not orthogonal"),
    ],
)
def test_certificate_rejects_broken_tables(table, label, edit, message):
    with pytest.raises(InternalCheckError, match=message):
        _certify(_broken_copy(table, label, edit))
