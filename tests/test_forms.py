from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from spin7ac.errors import InputError
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
    norm_squared,
    pullback,
    rho,
    volume_form,
    wedge,
)
from spin7ac.projectors import psi0
from spin7ac.scalars import Scalar


# -- independent oracles ----------------------------------------------------


def brute_sign(seq) -> int:
    """Permutation sign by explicit pair counting (independent of the library)."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def brute_wedge_monomials(left, right):
    """(sorted tuple, sign) of a monomial wedge; sign 0 on overlap."""
    merged = tuple(left) + tuple(right)
    return tuple(sorted(merged)), brute_sign(merged)


def test_wedge_disjoint_and_repeated():
    a = Form.monomial(8, (1, 2))
    assert wedge(a, Form.monomial(8, (3, 4))) == Form.monomial(8, (1, 2, 3, 4))
    assert wedge(a, Form.monomial(8, (1, 3))).is_zero()


def test_psi0_wedge_psi0_is_14_vol_via_bruteforce():
    # Oracle: expand the 14 x 14 monomial products with the independent sign.
    psi = psi0()
    total = Fraction(0)
    for left, cl in psi.terms.items():
        for right, cr in psi.terms.items():
            key, sign = brute_wedge_monomials(left, right)
            if sign:
                assert key == (1, 2, 3, 4, 5, 6, 7, 8)
                total += cl.as_fraction() * cr.as_fraction() * sign
    assert total == 14
    assert wedge(psi, psi) == volume_form(8).scale(Scalar(total))


def test_wedge_degree_overflow_raises():
    with pytest.raises(InputError):
        wedge(Form.monomial(8, (1, 2, 3, 4, 5)), Form.monomial(8, (1, 2, 3, 4)))
    with pytest.raises(InputError):
        wedge(Form.monomial(8, (1, 2)), Form.monomial(7, (1, 2)))


def test_wedge_graded_commutative_exhaustive_to_degree_4():
    for k in range(1, 5):
        for l in range(1, 5):
            sign = -1 if (k * l) % 2 else 1
            for left in combinations(range(1, 9), k):
                for right in combinations(range(1, 9), l):
                    a = Form.monomial(8, left)
                    b = Form.monomial(8, right)
                    assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_bilinear_associative_random():
    rng = random.Random(11)

    def rand_form(n, k, terms=3):
        basis = monomial_basis(n, k)
        chosen = rng.sample(basis, min(terms, len(basis)))
        return Form(n, k, {key: Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for key in chosen})

    for _ in range(40):
        a = rand_form(8, rng.randint(1, 2))
        b = rand_form(8, rng.randint(1, 2))
        c = rand_form(8, rng.randint(1, 3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        s = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        assert wedge(a.scale(s), b) == wedge(a, b).scale(s)


def test_hodge_star_examples():
    assert hodge_star(Form.monomial(8, (1, 2, 3, 4))) == Form.monomial(8, (5, 6, 7, 8))
    # psi0 is self-dual, term by term via the independent sign oracle.
    psi = psi0()
    rebuilt = {}
    for key, value in psi.terms.items():
        complement = tuple(i for i in range(1, 9) if i not in key)
        sign = brute_sign(key + complement)
        rebuilt[complement] = value * sign
    assert Form(8, 4, rebuilt) == psi
    assert hodge_star(psi) == psi


def test_star_squared_sign_law_exhaustive():
    # *^2 = (-1)^(k(n-k)): on R^8 this is +Id on even k, -Id on odd k;
    # on R^7 it is +Id in every degree.
    for n in (7, 8):
        for k in range(n + 1):
            for key in monomial_basis(n, k):
                m = Form.monomial(n, key)
                sign = -1 if (k * (n - k)) % 2 else 1
                assert hodge_star(hodge_star(m)) == m.scale(sign)


def test_defining_property_of_star_random():
    rng = random.Random(12)
    for n in (7, 8):
        for k in range(n + 1):
            basis = monomial_basis(n, k)
            for _ in range(200):
                keys_a = rng.sample(basis, min(3, len(basis)))
                keys_b = rng.sample(basis, min(3, len(basis)))
                a = Form(n, k, {key: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for key in keys_a})
                b = Form(n, k, {key: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for key in keys_b})
                assert wedge(b, hodge_star(a)) == volume_form(n).scale(inner_product(a, b))


def test_interior_product_examples():
    e1 = Vector.basis(8, 1)
    e2 = Vector.basis(8, 2)
    assert interior_product(e1, Form.monomial(8, (1, 2))) == Form.monomial(8, (2,))
    assert interior_product(e2, Form.monomial(8, (1, 3))).is_zero()
    expected = Form(
        8,
        3,
        {
            (2, 3, 4): Scalar(1),
            (2, 5, 6): Scalar(1),
            (2, 7, 8): Scalar(1),
            (3, 5, 7): Scalar(1),
            (3, 6, 8): Scalar(-1),
            (4, 5, 8): Scalar(-1),
            (4, 6, 7): Scalar(-1),
        },
    )
    assert interior_product(e1, psi0()) == expected


def test_interior_product_antiderivation_and_square():
    rng = random.Random(13)
    for _ in range(60):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        a = Form.monomial(8, tuple(sorted(rng.sample(range(1, 9), k))))
        b = Form.monomial(8, tuple(sorted(rng.sample(range(1, 9), l))))
        v = Vector([Scalar(rng.randint(-3, 3)) for _ in range(8)])
        lhs = interior_product(v, wedge(a, b))
        rhs = wedge(interior_product(v, a), b) + wedge(a, interior_product(v, b)).scale(
            -1 if k % 2 else 1
        )
        assert lhs == rhs
        if k >= 2:
            assert interior_product(v, interior_product(v, a)).is_zero()


def test_interior_product_degree_zero_raises():
    with pytest.raises(InputError):
        interior_product(Vector.basis(8, 1), Form(8, 0, {(): Scalar(1)}))


def test_inner_product_examples():
    a = Form.monomial(8, (1, 2))
    assert inner_product(a, a) == Scalar(1)
    assert inner_product(a, Form.monomial(8, (1, 3))).is_zero()
    assert inner_product(psi0(), psi0()) == Scalar(14)
    with pytest.raises(InputError):
        inner_product(a, Form.monomial(8, (1, 2, 3)))


def test_pullback_examples():
    psi = psi0()
    assert pullback(Matrix.identity(8), psi) == psi
    doubled = Matrix([[Scalar(2 if i == j else 0) for j in range(8)] for i in range(8)])
    assert pullback(doubled, Form.monomial(8, (1, 2, 3, 4))) == Form.monomial(
        8, (1, 2, 3, 4)
    ).scale(16)


def test_pullback_functorial_random():
    rng = random.Random(14)
    choices = (0, 0, 0, 0, 1, -1, 2)
    for _ in range(5):
        m = Matrix([[Scalar(rng.choice(choices)) for _ in range(8)] for _ in range(8)])
        g = Matrix([[Scalar(rng.choice(choices)) for _ in range(8)] for _ in range(8)])
        a = Form.monomial(8, tuple(sorted(rng.sample(range(1, 9), 3))))
        assert pullback(m @ g, a) == pullback(g, pullback(m, a))


def test_pullback_by_stabiliser_exponential_binary64(table):
    # exp(t * a) for a in the stabiliser algebra preserves psi0 up to
    # binary64 roundoff.
    from spin7ac.pitheta import compound4, matrix_exp, _form_to_float

    a = table.lambda2_21_matrices[5]
    a_float = np.array([[float(x) for x in row] for row in a.rows])
    psi_vec = _form_to_float(psi0())
    for t in (0.1, 0.02):
        g = matrix_exp(t * a_float)
        residual = np.linalg.norm(compound4(g) @ psi_vec - psi_vec)
        assert residual < 1e-10


def test_gl_inf_action_euler_identity():
    psi = psi0()
    assert gl_inf_action(Matrix.identity(8), psi) == psi.scale(4)


def test_gl_inf_action_disjoint_rotation():
    rotation = Matrix.from_entries(8, {(1, 2): 1, (2, 1): -1})
    assert gl_inf_action(rotation, Form.monomial(8, (3, 4))).is_zero()


def test_gl_inf_action_symmetric_traceless_lands_asd(table):
    rng = random.Random(15)
    entries = {}
    for i in range(1, 9):
        for j in range(i + 1, 9):
            value = rng.randint(-3, 3)
            entries[(i, j)] = value
            entries[(j, i)] = value
    diag = [rng.randint(-3, 3) for _ in range(7)]
    for i, value in enumerate(diag, start=2):
        entries[(i, i)] = value
    entries[(1, 1)] = -sum(diag)
    m = Matrix.from_entries(8, entries)
    image = gl_inf_action(m, psi0())
    # (1 + *)/2 annihilates the image: it is anti-self-dual.
    assert hodge_star(image) == -image
    assert table.apply(4, 35, image) == image


def test_rho_sums_to_gl_inf_action_random():
    # sum_ij m_ij rho_k(E_ij), applied to the coefficients of a, is gl_inf_action(m, a).
    rng = random.Random(15)
    units = {
        (i, j): Matrix.from_entries(8, {(i, j): 1}) for i in range(1, 9) for j in range(1, 9)
    }
    for k in range(1, 8):
        basis = monomial_basis(8, k)
        rhos = {ij: rho(k, e) for ij, e in units.items()}
        for _ in range(2):
            m = {ij: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for ij in units}
            a = Form(8, k, {
                key: Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for key in rng.sample(basis, min(6, len(basis)))
            })
            coeffs = [c.as_fraction() for c in form_to_coefficients(a, basis)]
            image = [Fraction(0)] * len(basis)
            for ij, sparse in rhos.items():
                for (row, col), value in sparse.items():
                    image[row] += m[ij] * value * coeffs[col]
            expected = gl_inf_action(Matrix.from_entries(8, m), a)
            assert [Scalar(x) for x in image] == form_to_coefficients(expected, basis)


def test_rho_is_a_signed_substitution_and_refuses_fractions():
    for i, j in ((1, 1), (2, 7)):
        action = rho(4, Matrix.from_entries(8, {(i, j): 1}))
        assert len(action) == (35 if i == j else 20)
        assert set(action.values()) <= {1, -1}
    with pytest.raises(InputError):
        rho(4, Matrix.from_entries(8, {(1, 2): Fraction(1, 2)}))


def test_gl_inf_action_matches_finite_differences():
    rng = random.Random(16)
    dense = {(i, j): rng.randint(-2, 2) for i in range(1, 9) for j in range(1, 9)}
    antisym = {}
    for i in range(1, 9):
        for j in range(i + 1, 9):
            value = rng.randint(-2, 2)
            antisym[(i, j)] = value
            antisym[(j, i)] = -value
    from spin7ac.pitheta import compound4, matrix_exp, _form_to_float

    for entries in (dense, antisym):
        m = Matrix.from_entries(8, entries)
        a = Form.monomial(8, (1, 3, 5, 7)) + Form.monomial(8, (2, 4, 6, 8)).scale(2)
        exact = gl_inf_action(m, a)
        basis = monomial_basis(8, 4)
        exact_vec = np.array([float(c) for c in form_to_coefficients(exact, basis)])
        m_float = np.array([[float(x) for x in row] for row in m.rows])
        a_vec = _form_to_float(a)
        errors = []
        for t in (1e-4, 1e-5):
            diff = (compound4(matrix_exp(t * m_float)) @ a_vec - a_vec) / t
            errors.append(np.linalg.norm(diff - exact_vec))
        # O(t^2) error after dividing by t: O(t).
        assert errors[0] < 1e-2
        assert errors[1] < errors[0] / 5


def test_form_json_round_trip():
    psi = psi0()
    assert Form.from_json(psi.to_json()) == psi
    zero = Form.zero(8, 4)
    assert Form.from_json(zero.to_json()) == zero
    scalar_form = Form(7, 0, {(): Scalar(Fraction(3, 2))})
    assert Form.from_json(scalar_form.to_json()) == scalar_form
    with pytest.raises(InputError):
        Form.from_json({"n": 8})


def test_form_validation():
    with pytest.raises(InputError):
        Form(8, 2, {(2, 1): Scalar(1)})
    with pytest.raises(InputError):
        Form(8, 2, {(1, 9): Scalar(1)})
    with pytest.raises(InputError):
        Form(6, 2, {})
    assert Form(8, 2, {(1, 2): Scalar(0)}).is_zero()


def test_norm_squared():
    psi = psi0()
    assert norm_squared(psi) == Scalar(14)


def test_form_to_float_matches_dense_conversion():
    from spin7ac.pitheta import _form_to_float

    rng = random.Random(581)
    surds = (Scalar(1), Scalar.sqrt5(), Scalar.sqrt581(), Scalar.sqrt2905())
    basis = monomial_basis(8, 4)
    terms = {
        key: sum((s * Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in surds), Scalar(0))
        for key in rng.sample(basis, 40)
    }
    a = Form(8, 4, terms)
    dense = np.array([float(c) for c in form_to_coefficients(a, basis)])
    assert np.array_equal(_form_to_float(a), dense)


def test_symbolic_modules_import_without_numpy():
    modules = ("forms", "projectors", "linkexpr", "cones", "moduli", "homrep")
    code = (
        f"import sys; sys.path[:0] = {sys.path!r}; "
        + "; ".join(f"import spin7ac.{m}" for m in modules)
        + "; spin7ac.projectors.build_projectors()"
        + "; assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
