"""Output pin of the exact Form and projector kernels.

One sha256 over the JSON of seeded ``decompose`` (degrees 2, 3, 4),
``seven_factor_check``, ``gl_inf_action``, ``interior_product`` and
``inner_product`` outputs, with coefficients over Q and over all four surd
parts of Q(sqrt5, sqrt581).  Recorded before these kernels moved to integer
numerators; any rewrite must reproduce it byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from spin7ac.forms import Form, Matrix, Vector, gl_inf_action, inner_product, interior_product, monomial_basis
from spin7ac.projectors import decompose, psi0, seven_factor_check
from spin7ac.scalars import Scalar

FIELDS = ("Q", "surd")


def _scalar(rng: random.Random, field: str) -> Scalar:
    parts = 1 if field == "Q" else 4
    return Scalar(*(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(parts)))


def _form(rng: random.Random, field: str, n: int, k: int, terms: int) -> Form:
    basis = monomial_basis(n, k)
    return Form(n, k, {key: _scalar(rng, field) for key in rng.sample(basis, min(terms, len(basis)))})


def _vector(rng: random.Random, field: str, n: int, tangent: bool = False) -> Vector:
    comps = [_scalar(rng, field) if rng.random() < 0.7 else 0 for _ in range(n)]
    if tangent:
        comps[0] = 0
        comps[rng.randrange(1, n)] = Scalar(rng.randint(1, 6))
    return Vector(comps)


def _matrix(rng: random.Random, field: str, n: int, fill: float) -> Matrix:
    return Matrix([[_scalar(rng, field) if rng.random() < fill else 0 for _ in range(n)] for _ in range(n)])


def pinned_records() -> list:
    rng = random.Random(19)
    records: list = []
    for field in FIELDS:
        for k in (2, 3, 4):
            for terms in (3, 12, 70):
                records.append(["decompose", decompose(_form(rng, field, 8, k, terms)).to_json()])
        records.append(["decompose", decompose(psi0().scale(_scalar(rng, field))).to_json()])
        for _ in range(3):
            records.append(["seven", seven_factor_check(_vector(rng, field, 8, tangent=True)).to_json()])
        for n in (7, 8):
            for k in range(n + 1):
                m = _matrix(rng, field, n, (0.2, 0.6, 1.0)[k % 3])
                records.append(["gl", gl_inf_action(m, _form(rng, field, n, k, 6)).to_json()])
                a, b = _form(rng, field, n, k, 10), _form(rng, field, n, k, 10)
                records.append(["inner", inner_product(a, b).to_json()])
                if k:
                    records.append(["interior", interior_product(_vector(rng, field, n), a).to_json()])
        records.append(["gl", gl_inf_action(_matrix(rng, field, 8, 0.5), psi0()).to_json()])
    return records


_PIN_SHA256 = "0297b18bc0c8407ace6af92037cad7d9fafc23bb4262466970ee93eabe30ee9c"


def test_exact_kernel_outputs_match_the_pin():
    lines = [json.dumps(record, sort_keys=True) for record in pinned_records()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _PIN_SHA256
