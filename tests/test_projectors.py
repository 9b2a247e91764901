from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations

import formref
import pytest
import ratref

import spin7ac
from spin7ac import projectors, ratmat
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
    DENOMINATORS,
    PSI0_TERMS,
    ProjectorTable,
    VALID_LABELS,
    _certify,
    antisym_matrix,
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
from spin7ac.scalars import ZERO, Scalar


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
        image = gl_inf_action(Matrix(m), psi0())
        vectors.append([c.as_fraction() for c in form_to_coefficients(image, basis4)])
    assert ratref.rank(vectors) == 35
    assert ratref.projector_onto_span(vectors, 70) == expected


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
        assert gl_inf_action(Matrix(m), psi).is_zero()


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
    kernel = ratref.nullspace(matrix)
    assert len(kernel) == 21
    assert ratref.rank(matrix) == 43


def test_lambda2_bases_have_full_rank_and_are_fixed(table):
    basis2 = monomial_basis(8, 2)
    for dim, matrices in ((7, table.lambda2_7_matrices), (21, table.lambda2_21_matrices)):
        vectors = [[m[i - 1][j - 1] for i, j in basis2] for m in matrices]
        assert len(vectors) == dim
        assert ratref.rank(vectors) == dim
        p = table.projector(2, dim)
        for v in vectors:
            assert [ratref.dot(row, v) for row in p] == v


def test_build_needs_no_elimination():
    # The elimination helpers live only in the tests' reference module.
    rebuilt = build_projectors.__wrapped__()
    assert rebuilt.projectors == build_projectors().projectors
    moved = ("rank", "rref", "nullspace", "gram_schmidt", "projector_onto_span", "_to_integer_matrix", "dot")
    modules = [m for name, m in sys.modules.items() if name.startswith("spin7ac.")]
    assert spin7ac.ratmat in modules
    assert not [(m.__name__, name) for m in modules for name in moved if hasattr(m, name)]


def test_certificate_makes_sixteen_products(table, monkeypatch):
    # 8 squares (N N = D N) and the 8 pairwise products per degree: 1 + 1 + 6.
    calls = []
    product = ratmat.mat_mul

    def counting(a, b):
        calls.append((len(a), len(b)))
        return product(a, b)

    monkeypatch.setattr(ratmat, "mat_mul", counting)
    _certify(table.projectors)
    assert len(calls) == 16
    assert sorted(set(calls)) == [(28, 28), (56, 56), (70, 70)]


def _naive_product(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), 0) for j in range(cols)]
        for i in range(len(a))
    ]


def _random_matrix(rng, rows, cols, density, entry):
    m = [[entry(rng) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and cols > 1:  # one all-zero row and one all-zero column
        m[rng.randrange(rows)] = [0] * cols
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    return m


def _int_entry(rng):
    return rng.randint(-9, 9)


def _fraction_entry(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


@pytest.mark.parametrize("entry", [_int_entry, _fraction_entry])
def test_mat_mul_matches_triple_loop(entry):
    rng = random.Random(2021)
    shapes = [(1, 1, 1), (5, 5, 5), (3, 7, 4), (7, 2, 6), (1, 6, 1), (6, 1, 6), (12, 12, 12)]
    for rows, inner, cols in shapes:
        for density in (0.0, 0.05, 0.3, 0.7, 1.0):
            a = _random_matrix(rng, rows, inner, density, entry)
            b = _random_matrix(rng, inner, cols, density, entry)
            assert ratmat.mat_mul(a, b) == _naive_product(a, b)
    assert ratmat.mat_mul([[entry(rng)]], [[0]]) == [[0]]
    assert ratmat.mat_mul([], [[1, 2]]) == []
    assert ratmat.mat_mul([[], []], []) == [[], []]
    assert ratmat.mat_mul([[1], [2]], [[]]) == [[], []]


def test_lambda4_7_dimension_and_orthogonality(table):
    p = table.projector(4, 7)
    assert ratref.rank(p) == 7
    psi = psi0()
    basis4 = monomial_basis(8, 4)
    for column in ratmat.transpose(p):
        v = Form(8, 4, dict(zip(basis4, column)))
        assert inner_product(v, psi).is_zero()
        # self-dual: orthogonal to every anti-self-dual form
        assert hodge_star(v) == v


def test_table_holds_integer_numerators(table):
    for (degree, dim), numerator in table.projectors.items():
        assert all(type(x) is int for row in numerator for x in row)
        denom = DENOMINATORS[degree]
        assert table.projector(degree, dim) == [[Fraction(x, denom) for x in row] for row in numerator]


def test_apply_matches_fraction_loop(table):
    rng = random.Random(22)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for degree, dims in VALID_LABELS.items():
        basis = monomial_basis(8, degree)
        a = Form(8, degree, {key: Scalar(frac(), frac()) for key in rng.sample(basis, len(basis) // 2)})
        vec = form_to_coefficients(a, basis)
        for dim in dims:
            expected = [
                sum((v * x for x, v in zip(row, vec)), ZERO) for row in table.projector(degree, dim)
            ]
            assert table.apply(degree, dim, a) == Form(8, degree, dict(zip(basis, expected)))


def test_table_rows_are_the_numerators_nonzero_entries(table):
    assert table.rows.keys() == table.projectors.keys()
    for label, numerator in table.projectors.items():
        rows = table.rows[label]
        assert all(value for row in rows for _, value in row)
        dense = [[0] * len(numerator[0]) for _ in rows]
        for i, row in enumerate(rows):
            for j, value in row:
                dense[i][j] = value
        assert dense == numerator


def test_apply_reduces_once_per_basis_element(table, canonical_calls):
    rng = random.Random(23)
    for degree, dims in VALID_LABELS.items():
        basis = monomial_basis(8, degree)
        a = Form(8, degree, {key: Scalar(*(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)))
                             for key in basis})
        for dim in dims:
            before = canonical_calls[0]
            table.apply(degree, dim, a)
            assert canonical_calls[0] - before <= len(basis)


def test_decompose_refuses_a_corrupted_numerator(table, monkeypatch):
    a = Form(8, 4, {(1, 2, 3, 4): Scalar(1, Fraction(1, 3)), (5, 6, 7, 8): Scalar(2)})
    broken = _broken_copy(table, (4, 27), _diagonal)  # basis element 0 is dx_1234
    copy = ProjectorTable(broken, table.lambda2_21_matrices, table.lambda2_7_matrices)
    monkeypatch.setattr(projectors, "build_projectors", lambda: copy)
    with pytest.raises(InternalCheckError, match="^type components do not sum to the input$"):
        decompose(a)


def test_decompose_reduces_once_per_basis_element_per_component(table, canonical_calls):
    # the sum check runs on integer columns: no reduction beyond the components'
    rng = random.Random(24)
    for degree, dims in VALID_LABELS.items():
        basis = monomial_basis(8, degree)
        a = Form(8, degree, {key: Scalar(*(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)))
                             for key in basis})
        before = canonical_calls[0]
        decompose(a)
        assert canonical_calls[0] - before <= len(basis) * len(dims)


def test_seven_factor_check_refuses_a_projection_off_the_multiple(table, monkeypatch):
    x = Vector.basis(8, 2)
    alpha7 = interior_product(x, star7_slice(g2_phi_eight()))
    col = monomial_basis(8, 3).index(min(alpha7.terms))

    def edit(n):
        n[0][col] += 7  # row 0 is dx_123, absent from x -| psi0

    copy = ProjectorTable(_broken_copy(table, (3, 8), edit), table.lambda2_21_matrices, table.lambda2_7_matrices)
    monkeypatch.setattr(projectors, "build_projectors", lambda: copy)
    with pytest.raises(InternalCheckError, match=r"^type-8 projection is not a multiple of X -\| psi0$"):
        seven_factor_check(x)


def test_model_forms_are_fresh_copies(table):
    psi, phi = psi0(), g2_phi_eight()
    psi.terms.clear()
    phi.terms[(2, 3, 4)] = Scalar(5)
    assert seven_factor_check(Vector.basis(8, 3)) == Scalar(Fraction(4, 7))
    assert decompose(psi0()).nonzero_labels() == [(4, 1)]
    assert g2_phi_eight() == interior_product(Vector.basis(8, 1), psi0())


def test_lambda3_8_injectivity(table):
    basis3 = monomial_basis(8, 3)
    vectors = []
    for i in range(1, 9):
        contraction = interior_product(Vector.basis(8, i), psi0())
        vectors.append(
            [c.as_fraction() for c in form_to_coefficients(contraction, basis3)]
        )
    assert ratref.rank(vectors) == 8


def test_slice_model_identity():
    # psi0 = dx1 ^ phi + *7 phi with phi = e1 -| psi0.
    phi = g2_phi_eight()
    dx1 = Form.monomial(8, (1,))
    assert wedge(dx1, phi) + star7_slice(phi) == psi0()


def test_star7_slice_squares_to_identity():
    phi = g2_phi_eight()
    assert star7_slice(star7_slice(phi)) == phi


def test_star7_slice_matches_merge_sign_reference():
    surd = Scalar(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 6))
    for k in range(8):
        for key in combinations(range(2, 9), k):
            for coeff in (Scalar(1), surd):
                a = Form.monomial(8, key, coeff)
                assert star7_slice(a) == formref.star7_slice(a)
    touching = Form(8, 3, {(2, 3, 4): surd, (1, 5, 6): Scalar(1)})
    for star in (star7_slice, formref.star7_slice):
        with pytest.raises(InputError, match="touching dx_1"):
            star(touching)


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
    basis2 = monomial_basis(8, 2)
    coeffs = [{(1, 2): 3, (2, 5): -2}.get(key, 0) for key in basis2]
    m = antisym_matrix(coeffs)
    assert m[0][1] == 3
    assert m[1][0] == -3


def _broken_copy(table, label, edit):
    copy = {key: [list(row) for row in p] for key, p in table.projectors.items()}
    edit(copy[label])
    return copy


def _off_diagonal(n):
    n[0][1] += 8


def _diagonal(n):
    n[0][0] += 1


def _other_rank7_projector(n):
    # 32 times a symmetric idempotent of trace 7 that is not P^2_7
    for i, row in enumerate(n):
        row[:] = [32 * int(i == j and i < 7) for j in range(len(row))]


def _rank6_projector(n):
    # 32 times a symmetric idempotent of trace 6: the trace check is the first to fail
    for i, row in enumerate(n):
        row[:] = [32 * int(i == j and i < 6) for j in range(len(row))]


@pytest.mark.parametrize(
    "label, edit, message",
    [
        ((2, 7), _off_diagonal, "not symmetric"),
        ((3, 48), _diagonal, "not idempotent"),
        ((2, 7), _other_rank7_projector, "sum to Id|not orthogonal"),
        ((2, 7), _rank6_projector, r"projector Lambda\^2_7: trace 6 != expected rank 7$"),
    ],
)
def test_certificate_rejects_broken_tables(table, label, edit, message):
    with pytest.raises(InternalCheckError, match=message):
        _certify(_broken_copy(table, label, edit))
