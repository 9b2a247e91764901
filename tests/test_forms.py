from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import formref
import numpy as np
import pytest
import ratref

from spin7ac import ratmat
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
from spin7ac.projectors import psi0, sym0_matrix_basis
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


def surd_scalar(rng: random.Random) -> Scalar:
    """All four surd parts, each with a non-integral denominator most of the time."""
    return Scalar(*(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)))


def surd_form(rng: random.Random, n: int, k: int, terms: int) -> Form:
    basis = monomial_basis(n, k)
    return Form(n, k, {key: surd_scalar(rng) for key in rng.sample(basis, min(terms, len(basis)))})


def surd_matrices(rng: random.Random, n: int) -> list[Matrix]:
    """Dense, sparse rational, with zero rows and rank-deficient n x n matrices."""
    dense = [[surd_scalar(rng) for _ in range(n)] for _ in range(n)]
    sparse = [[Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) if rng.random() < 0.3 else 0
               for _ in range(n)] for _ in range(n)]
    zero_rows = [row if i % 3 else [0] * n for i, row in enumerate(dense)]
    # row 3 = row 1 + row 2 / 2 and rows 4, 5 proportional: rank n - 2
    deficient = [list(row) for row in dense]
    deficient[2] = [x + y * Fraction(1, 2) for x, y in zip(dense[0], dense[1])]
    deficient[4] = [x * Scalar(0, Fraction(-2, 3)) for x in dense[3]]
    return [Matrix(rows) for rows in (dense, sparse, zero_rows, deficient)]


def holds_no_zero(a: Form) -> bool:
    return all(not value.is_zero() for value in a.terms.values())


def test_wedge_matches_per_pair_reference():
    rng = random.Random(41)
    for n in (7, 8):
        for p in range(n + 1):
            for q in range(n + 1 - p):
                a = surd_form(rng, n, p, 4)
                b = surd_form(rng, n, q, 4)
                out = wedge(a, b)
                assert out == formref.wedge(a, b)
                assert holds_no_zero(out)
    dense = Form(8, 2, {key: surd_scalar(rng) for key in monomial_basis(8, 2)})
    other = Form(8, 3, {key: surd_scalar(rng) for key in monomial_basis(8, 3)})
    assert wedge(dense, other) == formref.wedge(dense, other)


def test_pullback_matches_wedge_chain_reference():
    rng = random.Random(42)
    for n in (7, 8):
        for m in surd_matrices(rng, n):
            for k in range(n + 1):
                a = surd_form(rng, n, k, 3)
                out = pullback(m, a)
                assert out == formref.pullback(m, a)
                assert holds_no_zero(out)


def test_wedge_and_pullback_cancel_to_the_zero_form():
    rng = random.Random(43)
    for n in (7, 8):
        odd = surd_form(rng, n, 3, 6)
        assert wedge(odd, odd).is_zero() and wedge(odd, odd).terms == {}
        for m in surd_matrices(rng, n)[2:]:  # a zero row; rank n - 2
            top = pullback(m, volume_form(n))
            assert top.is_zero() and top.terms == {}
    # rows 1 and 2 equal: dx_1 ^ dx_3 - dx_2 ^ dx_3 pulls back to zero,
    # and so does the degree-2 term alone, each key's minors cancelling.
    rows = [[surd_scalar(rng) for _ in range(8)] for _ in range(8)]
    rows[1] = rows[0]
    m = Matrix(rows)
    across_keys = Form(8, 2, {(1, 3): Scalar(1), (2, 3): Scalar(-1)})
    assert pullback(m, across_keys).terms == {}
    assert pullback(m, Form.monomial(8, (1, 2))).terms == {}


def test_wedge_and_pullback_reduce_once_per_output_coefficient(canonical_calls):
    rng = random.Random(44)
    for n in (7, 8):
        m = Matrix([[surd_scalar(rng) for _ in range(n)] for _ in range(n)])
        for k in range(n + 1):
            a = Form(n, k, {key: surd_scalar(rng) for key in monomial_basis(n, k)})
            p = rng.randint(0, k)
            b = Form(n, p, {key: surd_scalar(rng) for key in monomial_basis(n, p)})
            c = Form(n, k - p, {key: surd_scalar(rng) for key in monomial_basis(n, k - p)})
            before = canonical_calls[0]
            wedge(b, c)
            assert canonical_calls[0] - before <= math.comb(n, k)
            before = canonical_calls[0]
            pullback(m, a)
            assert canonical_calls[0] - before <= math.comb(n, k)


def surd_vectors(rng: random.Random, n: int) -> list[Vector]:
    """Dense, sparse rational and zero vectors in R^n."""
    dense = Vector([surd_scalar(rng) for _ in range(n)])
    sparse = Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.4 else 0 for _ in range(n)])
    return [dense, sparse, Vector([0] * n)]


def test_contractions_and_inner_product_match_scalar_reference():
    rng = random.Random(45)
    for n in (7, 8):
        matrices = surd_matrices(rng, n) + [Matrix([[0] * n for _ in range(n)])]
        vectors = surd_vectors(rng, n)
        for k in range(n + 1):
            dense = Form(n, k, {key: surd_scalar(rng) for key in monomial_basis(n, k)})
            for a in (surd_form(rng, n, k, 4), dense):
                for m in matrices:
                    out = gl_inf_action(m, a)
                    assert out == formref.gl_inf_action(m, a)
                    assert holds_no_zero(out)
                for v in vectors if k else ():
                    out = interior_product(v, a)
                    assert out == formref.interior_product(v, a)
                    assert holds_no_zero(out)
                b = surd_form(rng, n, k, len(dense.terms) // 2 + 1)
                assert inner_product(a, b) == formref.inner_product(a, b)
                assert inner_product(a, a) == formref.inner_product(a, a)


def test_contractions_and_inner_product_cancel_to_zero(table):
    rng = random.Random(46)
    s, t = surd_scalar(rng), surd_scalar(rng)
    for n in (7, 8):
        # (t e_1 - s e_2) -| (s dx_13 + t dx_23) = (ts - st) dx_3, and <a, b> = st - ts
        a = Form(n, 2, {(1, 3): s, (2, 3): t})
        v = Vector([t, -s] + [0] * (n - 2))
        assert interior_product(v, a).terms == {}
        b = Form(n, 2, {(1, 3): t, (2, 3): -s})
        assert inner_product(a, b).to_json() == {} and inner_product(a, b) == Scalar(0)
        # m = s (E_11 - E_22) sends dx_1 ^ dx_2 to (s - s) dx_1 ^ dx_2
        m = Matrix.from_entries(n, {(1, 1): s, (2, 2): -s})
        assert gl_inf_action(m, Form.monomial(n, (1, 2), t)).terms == {}
    # the stabiliser algebra Lambda^2_21 of psi0, scaled by a surd
    for rows in table.lambda2_21_matrices[:5]:
        m = Matrix([[x * s for x in row] for row in rows])
        assert gl_inf_action(m, psi0().scale(t)).terms == {}


def test_contractions_and_inner_product_reduce_once(canonical_calls):
    rng = random.Random(47)
    for n in (7, 8):
        m = Matrix([[surd_scalar(rng) for _ in range(n)] for _ in range(n)])
        v = Vector([surd_scalar(rng) for _ in range(n)])
        for k in range(n + 1):
            a = Form(n, k, {key: surd_scalar(rng) for key in monomial_basis(n, k)})
            b = Form(n, k, {key: surd_scalar(rng) for key in monomial_basis(n, k)})
            before = canonical_calls[0]
            gl_inf_action(m, a)
            assert canonical_calls[0] - before <= math.comb(n, k)
            if k:
                before = canonical_calls[0]
                interior_product(v, a)
                assert canonical_calls[0] - before <= math.comb(n, k - 1)
            before = canonical_calls[0]
            inner_product(a, b)
            assert canonical_calls[0] - before == 1


def t_coefficient_weights(ts: list[Fraction]) -> list[Fraction]:
    """w_i with p'(0) = sum_i w_i p(t_i) for every polynomial p of degree < len(ts).

    w_i is the t-coefficient of the Lagrange basis polynomial of t_i.
    """
    weights = []
    for i, ti in enumerate(ts):
        poly, scale = [Fraction(1)], Fraction(1)  # coefficients, lowest degree first
        for j, tj in enumerate(ts):
            if j != i:  # poly *= t - tj
                poly = [x - tj * y for x, y in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
                scale *= ti - tj
        weights.append(poly[1] / scale if len(poly) > 1 else Fraction(0))
    return weights


def test_gl_inf_action_is_the_t_coefficient_of_pullback():
    # pullback(I + t m, a) is a polynomial of degree <= k in t; its
    # t-coefficient, found exactly by Lagrange interpolation at k + 1
    # rational t, is the infinitesimal action.
    rng = random.Random(48)
    for n in (7, 8):
        for m in surd_matrices(rng, n)[:2]:
            for k in range(n + 1):
                a = surd_form(rng, n, k, 3)
                ts = [Fraction(j + 1, 3) for j in range(k + 1)]
                derivative = Form.zero(n, k)
                for t, w in zip(ts, t_coefficient_weights(ts)):
                    shifted = Matrix([[int(i == j) + x * t for j, x in enumerate(row)] for i, row in enumerate(m.rows)])
                    derivative = derivative + pullback(shifted, a).scale(w)
                assert gl_inf_action(m, a) == derivative


def rand_q5_form(rng: random.Random, k: int, terms: int = 5) -> Form:
    """Random k-form on R^8 with coefficients in Q(sqrt5)."""
    basis = monomial_basis(8, k)

    def part() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    return Form(8, k, {key: Scalar(part(), part()) for key in rng.sample(basis, min(terms, len(basis)))})


def test_gl_inf_action_is_a_derivation_over_wedge():
    rng = random.Random(16)
    for _ in range(12):
        m = Matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)] for _ in range(8)])
        p = rng.randint(0, 5)
        a, b = rand_q5_form(rng, p), rand_q5_form(rng, rng.randint(0, 8 - p))
        expected = wedge(gl_inf_action(m, a), b) + wedge(a, gl_inf_action(m, b))
        assert gl_inf_action(m, wedge(a, b)) == expected


def rational_orthogonal(rng: random.Random) -> tuple[list[list[Fraction]], int]:
    """A signed permutation times the Cayley transform (I - S)(I + S)^-1 of a
    rational skew S, with its determinant."""
    s = [[Fraction(0)] * 8 for _ in range(8)]
    for i, j in combinations(range(8), 2):
        if rng.random() < 0.3:
            s[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            s[j][i] = -s[i][j]
    plus = [[int(i == j) + s[i][j] for j in range(8)] for i in range(8)]
    minus = [[int(i == j) - s[i][j] for j in range(8)] for i in range(8)]
    reduced, _ = ratref.rref([row + [Fraction(int(i == j)) for j in range(8)] for i, row in enumerate(plus)])
    cayley = ratmat.mat_mul(minus, [row[8:] for row in reduced])
    perm = rng.sample(range(8), 8)
    signs = [rng.choice((1, -1)) for _ in range(8)]
    g = [[signs[i] * x for x in cayley[perm[i]]] for i in range(8)]
    det = brute_sign(perm) * math.prod(signs)
    return g, det


def test_pullback_by_rational_orthogonal_commutes_with_star():
    """g* (star a) = det(g) star (g* a) for orthogonal g, det(g) = +-1."""
    rng = random.Random(17)
    dets = set()
    for _ in range(8):
        g, det = rational_orthogonal(rng)
        assert ratmat.mat_mul(ratmat.transpose(g), g) == ratmat.identity(8)
        dets.add(det)
        m = Matrix(g)
        a = rand_q5_form(rng, rng.randint(1, 4), terms=3)
        assert pullback(m, hodge_star(a)) == hodge_star(pullback(m, a)).scale(det)
    assert dets == {1, -1}


def test_pullback_by_stabiliser_exponential_binary64(table):
    # exp(t * a) for a in the stabiliser algebra preserves psi0 up to
    # binary64 roundoff.
    from spin7ac.pitheta import compound4, exp_action, form_to_lambda4_vector

    a = table.lambda2_21_matrices[5]
    a_float = np.array([[float(x) for x in row] for row in a])
    psi_vec = form_to_lambda4_vector(psi0())
    for t in (0.1, 0.02):
        g = exp_action(t * a_float, np.eye(8))
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
        (i, j): [[int((r, c) == (i, j)) for c in range(1, 9)] for r in range(1, 9)]
        for i in range(1, 9)
        for j in range(1, 9)
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
            exact = Matrix.from_entries(8, m)
            image = [Scalar(x) for x in image]
            assert image == form_to_coefficients(gl_inf_action(exact, a), basis)
            # and against the slot-insertion reference, which shares no sign code
            assert image == form_to_coefficients(formref.gl_inf_action(exact, a), basis)


def test_rho_is_a_signed_substitution_and_refuses_fractions():
    for i, j in ((1, 1), (2, 7)):
        unit = ratmat.zeros(8, 8)
        unit[i - 1][j - 1] = 1
        action = rho(4, unit)
        assert len(action) == (35 if i == j else 20)
        assert set(action.values()) <= {1, -1}
    for bad in (Fraction(1, 2), True, 0.5):
        entry = ratmat.zeros(8, 8)
        entry[0][1] = bad
        with pytest.raises(InputError, match="rho needs an integer matrix"):
            rho(4, entry)


def test_rho_matches_sort_with_sign_reference(table):
    units = [[[int((r, c) == (i, j)) for c in range(8)] for r in range(8)] for i in range(8) for j in range(8)]
    w = [ratmat.identity(8)] + sym0_matrix_basis() + table.lambda2_7_matrices
    assert len(w) == 43 and len(table.lambda2_21_matrices) == 21
    # A diagonal in {-1, 0, 1}: the cell (I, I) sums b_ii over i in I and often cancels.
    rng = random.Random(48)
    cancelling = [
        [[rng.randint(-1, 1) if r == c else rng.randint(-3, 3) for c in range(8)] for r in range(8)]
        for _ in range(4)
    ]
    dropped = 0
    for k in range(9):
        basis = monomial_basis(8, k)
        for b in units + w + table.lambda2_21_matrices + cancelling:
            out = rho(k, b)
            assert out == formref.rho(k, b)
            assert 0 not in out.values()
        for b in cancelling:
            out = rho(k, b)
            for col, key in enumerate(basis):
                diagonal = [b[i - 1][i - 1] for i in key]
                if any(diagonal) and not sum(diagonal):
                    assert (col, col) not in out
                    dropped += 1
    assert dropped


def test_reference_sign_helpers_match_inversion_count():
    # formref's sign helpers are the reference for the bitmask rule, so they
    # are checked against explicit pair counting; a repeated index gives 0.
    for length in range(6):
        for seq in product(range(1, 9), repeat=length):
            assert formref.sort_with_sign(seq) == (tuple(sorted(seq)), brute_sign(seq))
    increasing = [key for k in range(9) for key in combinations(range(1, 9), k)]
    for left in increasing:
        for right in increasing:
            assert formref.merge_sign(left, right) == brute_sign(left + right)


def test_hodge_star_matches_merge_sign_reference():
    rng = random.Random(47)
    surd = Scalar(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 6))
    for n in (7, 8):
        for k in range(n + 1):
            for key in monomial_basis(n, k):
                for coeff in (Scalar(1), surd):
                    a = Form.monomial(n, key, coeff)
                    assert hodge_star(a) == formref.hodge_star(a)
            dense = Form(n, k, {key: surd_scalar(rng) for key in monomial_basis(n, k)})
            assert hodge_star(dense) == formref.hodge_star(dense)


def test_gl_inf_action_matches_finite_differences():
    rng = random.Random(16)
    dense = {(i, j): rng.randint(-2, 2) for i in range(1, 9) for j in range(1, 9)}
    antisym = {}
    for i in range(1, 9):
        for j in range(i + 1, 9):
            value = rng.randint(-2, 2)
            antisym[(i, j)] = value
            antisym[(j, i)] = -value
    from spin7ac.pitheta import compound4, exp_action, form_to_lambda4_vector

    for entries in (dense, antisym):
        m = Matrix.from_entries(8, entries)
        a = Form.monomial(8, (1, 3, 5, 7)) + Form.monomial(8, (2, 4, 6, 8)).scale(2)
        exact = gl_inf_action(m, a)
        basis = monomial_basis(8, 4)
        exact_vec = np.array([float(c) for c in form_to_coefficients(exact, basis)])
        m_float = np.array([[float(x) for x in row] for row in m.rows])
        a_vec = form_to_lambda4_vector(a)
        errors = []
        for t in (1e-4, 1e-5):
            diff = (compound4(exp_action(t * m_float, np.eye(8))) @ a_vec - a_vec) / t
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
    # One spelling per monomial: "01,2" or " 1, 2" would silently merge with "1,2".
    for key in ("01,2", " 1,2", "1, 2", "+1,2", "0_1,2"):
        with pytest.raises(InputError, match="not written as '1,2'"):
            Form.from_json({"n": 8, "k": 2, "terms": {"1,2": "1", key: "3"}})
    for key in ("1,2,", ",", " "):
        with pytest.raises(InputError):
            Form.from_json({"n": 8, "k": 2, "terms": {key: "1"}})


def test_form_validation():
    with pytest.raises(InputError):
        Form(8, 2, {(2, 1): Scalar(1)})
    with pytest.raises(InputError):
        Form(8, 2, {(1, 9): Scalar(1)})
    with pytest.raises(InputError):
        Form(6, 2, {})
    assert Form(8, 2, {(1, 2): Scalar(0)}).is_zero()
    # Matrix entries are 1-based; index 0 would wrap to row or column n.
    assert Matrix.from_entries(8, {(8, 8): 1}).entry(8, 8) == Scalar(1)
    for cell in ((0, 1), (1, 0), (9, 1), (1, 9), (-1, 2)):
        with pytest.raises(InputError, match="out of range 1..8"):
            Matrix.from_entries(8, {cell: 1})


def test_norm_squared():
    psi = psi0()
    assert norm_squared(psi) == Scalar(14)


def test_form_to_float_matches_dense_conversion():
    from spin7ac.pitheta import form_to_lambda4_vector

    rng = random.Random(581)
    surds = (Scalar(1), Scalar.sqrt5(), Scalar.sqrt581(), Scalar.sqrt2905())
    basis = monomial_basis(8, 4)
    terms = {
        key: sum((s * Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for s in surds), Scalar(0))
        for key in rng.sample(basis, 40)
    }
    a = Form(8, 4, terms)
    dense = np.array([float(c) for c in form_to_coefficients(a, basis)])
    assert np.array_equal(form_to_lambda4_vector(a), dense)


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
