"""Output checks the benchmark computes itself.

Every check takes an output of the program, in the JSON form the CLI
prints or in the plain data the library returns, and recomputes what it must
satisfy with code of its own: exact arithmetic in Q(sqrt5, sqrt581) over
``Fraction`` quadruples, its own wedge, Hodge star and determinants, and its
own numpy minors and matrix exponential.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np

from inputs import BS_CRITICAL, basis, perm_sign, psi0_terms, star_key

RANK_TABLE = {"2_7": 7, "2_21": 21, "3_8": 8, "3_48": 48, "4_1": 1, "4_7": 7, "4_27": 27, "4_35": 35}

# The certified tables of the rate classification (criterion 7 of the paper).
CERTIFIED_TABLES = {
    ("even", Fraction(-4)): {
        "harmonic": {(3, "alpha"), (4, "beta")},
        "forced-zero": {(0, "beta"), (1, "alpha"), (2, "beta"), (5, "alpha"),
                        (6, "beta"), (7, "alpha"), (8, "beta")},
    },
    ("odd", Fraction(-3)): {
        "harmonic": {(3, "beta"), (4, "alpha")},
        "forced-zero": {(0, "alpha"), (1, "beta"), (2, "alpha"), (5, "beta"),
                        (6, "alpha"), (7, "beta")},
    },
}

PARITY_SLOTS = {
    "even": {(k - 1, "alpha") for k in (2, 4, 6, 8)} | {(k, "beta") for k in (0, 2, 4, 6, 8)},
    "odd": {(k - 1, "alpha") for k in (1, 3, 5, 7)} | {(k, "beta") for k in (1, 3, 5, 7)},
}

SEVEN_FACTOR = Fraction(4, 7)
PI_THETA_TOL = 1e-10  # the default tol of pi_theta and of the CLI
_SURDS = ("1", "sqrt5", "sqrt581", "sqrt2905")
ZERO4 = (Fraction(0),) * 4


class CheckFailed(AssertionError):
    """An output of the program failed a benchmark check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- exact scalars: quadruples over Q(sqrt5, sqrt581) ---------------------------


def q4(obj) -> tuple[Fraction, ...]:
    """Scalar JSON ({"1": "p/q", ...}) or a (a, b) Q(sqrt5) pair -> quadruple."""
    if isinstance(obj, dict):
        return tuple(Fraction(obj.get(tag, "0")) for tag in _SURDS)
    if isinstance(obj, tuple):
        return tuple(obj) + (Fraction(0),) * (4 - len(obj))
    return (Fraction(obj), Fraction(0), Fraction(0), Fraction(0))


def add4(x, y):
    return tuple(p + q for p, q in zip(x, y))


def mul4(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 + 5 * b1 * b2 + 581 * c1 * c2 + 2905 * d1 * d2,
        a1 * b2 + b1 * a2 + 581 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 5 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def scale4(x, s):
    return tuple(p * s for p in x)


def form_terms(form_json: dict) -> dict:
    """Form JSON -> {index tuple: quadruple}, dropping zeros."""
    out = {}
    for key, value in form_json.get("terms", {}).items():
        q = q4(value)
        if q != ZERO4:
            out[tuple(int(p) for p in key.split(",")) if key else ()] = q
    return out


def as_q4_terms(terms: dict) -> dict:
    return {key: q4(value) for key, value in terms.items() if q4(value) != ZERO4}


def own_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if set(ka) & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            term = scale4(mul4(va, vb), perm_sign(ka + kb))
            out[key] = add4(out.get(key, ZERO4), term)
    return {k: v for k, v in out.items() if v != ZERO4}


def own_inner(a: dict, b: dict):
    total = ZERO4
    for key, value in a.items():
        if key in b:
            total = add4(total, mul4(value, b[key]))
    return total


def own_star(a: dict) -> dict:
    out = {}
    for key, value in a.items():
        comp, sign = star_key(key)
        out[comp] = scale4(value, sign)
    return out


def det_exact(rows: list[list[Fraction]]) -> Fraction:
    """Leibniz determinant (sizes up to 4 here)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(perm_sign(perm))
        for i, j in enumerate(perm):
            prod *= rows[i][j]
            if not prod:
                break
        total += prod
    return total


def evaluate(form: dict, vectors: list[list[Fraction]]):
    """a(v_1, ..., v_k) = sum_I a_I det(v_s[i])_{i in I}."""
    total = ZERO4
    for key, value in form.items():
        d = det_exact([[v[i - 1] for v in vectors] for i in key])
        if d:
            total = add4(total, scale4(value, d))
    return total


def mat_vec(m: list[list[Fraction]], v: list[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def _probe_vectors(rng: random.Random, k: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(8)] for _ in range(k)]


# -- exterior algebra checks ---------------------------------------------------------


def check_decompose(input_form: dict, components: dict[str, dict]) -> None:
    """Components sum exactly to the input and are pairwise orthogonal."""
    a = as_q4_terms(input_form)
    comps = [form_terms(c) for _, c in sorted(components.items())]
    degree = len(next(iter(a))) if a else None
    labels = sorted(components)
    expected = sorted(label for label in RANK_TABLE if degree is None or label.startswith(f"{degree}_"))
    require(degree is None or labels == expected, f"decompose labels {labels} != {expected}")
    total: dict = {}
    for comp in comps:
        for key, value in comp.items():
            total[key] = add4(total.get(key, ZERO4), value)
    total = {k: v for k, v in total.items() if v != ZERO4}
    require(total == a, "decompose components do not sum to the input")
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            require(own_inner(comps[i], comps[j]) == ZERO4, f"components {labels[i]}, {labels[j]} not orthogonal")


def check_wedge(a: dict, b: dict, result: dict) -> None:
    require(form_terms(result) == own_wedge(as_q4_terms(a), as_q4_terms(b)), "wedge differs from the benchmark's own")


def check_hodge_star(a: dict, star_a: dict) -> None:
    """a ^ *a = |a|^2 vol, with the benchmark's own wedge."""
    a4 = as_q4_terms(a)
    lhs = own_wedge(a4, form_terms(star_a))
    norm2 = own_inner(a4, a4)
    rhs = {tuple(range(1, 9)): norm2} if norm2 != ZERO4 else {}
    require(lhs == rhs, "a ^ *a != |a|^2 vol")
    require(form_terms(star_a) == own_star(a4), "hodge star differs from the benchmark's own")


def check_inner(a: dict, b: dict, value: dict) -> None:
    require(q4(value) == own_inner(as_q4_terms(a), as_q4_terms(b)), "inner product differs")


def check_pullback(m: list[list[Fraction]], a: dict, result: dict, seed: int) -> None:
    """(m^* a)(v_1..v_k) = a(m v_1, ..., m v_k) on seeded rational probes."""
    a4 = as_q4_terms(a)
    out = form_terms(result)
    k = len(next(iter(a4))) if a4 else 0
    rng = random.Random(seed)
    for _ in range(2):
        vs = _probe_vectors(rng, k)
        require(evaluate(out, vs) == evaluate(a4, [mat_vec(m, v) for v in vs]), "pullback fails the evaluation identity")


def check_gl_action(m: list[list[Fraction]], a: dict, result: dict, seed: int) -> None:
    """(m . a)(v_1..v_k) = sum_s a(v_1, .., m v_s, .., v_k) on seeded probes."""
    a4 = as_q4_terms(a)
    out = form_terms(result)
    k = len(next(iter(a4))) if a4 else 0
    rng = random.Random(seed)
    for _ in range(2):
        vs = _probe_vectors(rng, k)
        rhs = ZERO4
        for s in range(k):
            rhs = add4(rhs, evaluate(a4, vs[:s] + [mat_vec(m, vs[s])] + vs[s + 1 :]))
        require(evaluate(out, vs) == rhs, "gl_inf_action fails the derivation identity")


def check_seven_factor(value: dict) -> None:
    require(q4(value) == q4(SEVEN_FACTOR), f"seven_factor_check = {value}, expected 4/7")


# -- projectors -------------------------------------------------------------------------


def check_projectors_payload(payload: dict, label: str | None) -> None:
    require(payload.get("rank_table") == RANK_TABLE, "rank table differs")
    require(payload.get("certified") is True, "projector table not certified")
    if label is None:
        return
    proj = payload["projector"]
    degree, dim = (int(p) for p in label.split("_"))
    require(proj["label"] == label, "exported label differs")
    require(proj["basis"] == [",".join(map(str, key)) for key in basis(degree)], "exported basis differs")
    p = [[q4(x) for x in row] for row in proj["matrix"]]
    n = len(p)
    require(n == len(basis(degree)) and all(len(r) == n for r in p), "projector has the wrong shape")
    require(all(p[i][j] == p[j][i] for i in range(n) for j in range(i + 1, n)), "projector not symmetric")
    trace = ZERO4
    for i in range(n):
        trace = add4(trace, p[i][i])
    require(trace == q4(dim), f"projector trace {trace[0]} != {dim}")


# -- Pi/Theta: own minors and exponential -----------------------------------------------

_B4 = basis(4)
_PSI_KEYS = np.array([key for key, _ in sorted(psi0_terms().items())]) - 1  # (14, 4)
_PSI_COEFFS = np.array([float(v[0]) for _, v in sorted(psi0_terms().items())])
_TARGETS = np.array(_B4) - 1  # (70, 4)
PSI0_VEC = np.array([float(psi0_terms().get(key, (0, 0))[0]) for key in _B4])
_STAR_PERM = [_B4.index(star_key(key)[0]) for key in _B4]
_STAR_SIGN = np.array([star_key(key)[1] for key in _B4], dtype=float)
ZETA_TYPE_TOL = 1e-8


def own_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring of a degree-24 Horner Taylor sum."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    x = a / 2.0**squarings
    out = np.eye(8)
    for k in range(24, 0, -1):
        out = np.eye(8) + x @ out / k
    for _ in range(squarings):
        out = out @ out
    return out


def own_pullback_psi0(g: np.ndarray) -> np.ndarray:
    """g^* psi0 on Lambda^4: coefficient J is sum_I psi_I det(g[I, J])."""
    sub = g[_PSI_KEYS[None, :, :, None], _TARGETS[:, None, None, :]]  # (70, 14, 4, 4)
    return np.linalg.det(sub) @ _PSI_COEFFS


def own_star_vec(v: np.ndarray) -> np.ndarray:
    out = np.empty(70)
    out[_STAR_PERM] = _STAR_SIGN * v
    return out


def _gl_action_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Slot-insertion action of an 8x8 matrix on a Lambda^4 coefficient vector."""
    index = {key: i for i, key in enumerate(_B4)}
    out = np.zeros(70)
    for i, key in enumerate(_B4):
        if v[i] == 0.0:
            continue
        for pos, idx in enumerate(key):
            for j in range(1, 9):
                c = m[idx - 1, j - 1]
                if c == 0.0 or (j in key and j != idx):
                    continue
                cand = key[:pos] + (j,) + key[pos + 1 :]
                out[index[tuple(sorted(cand))]] += perm_sign(cand) * c * v[i]
    return out


def _lambda4_7_basis() -> np.ndarray:
    """Orthonormal basis of so(8) . psi0 = Lambda^4_7 (70 x 7)."""
    cols = []
    for i in range(8):
        for j in range(i + 1, 8):
            m = np.zeros((8, 8))
            m[i, j], m[j, i] = 1.0, -1.0
            cols.append(_gl_action_vec(m, PSI0_VEC))
    u, s, _ = np.linalg.svd(np.array(cols).T, full_matrices=False)
    return u[:, s > 1e-9 * s[0]]


_L47: np.ndarray | None = None


def check_pi_theta(eta: np.ndarray, a_matrix: np.ndarray, zeta: np.ndarray, tol: float) -> None:
    """Residual |exp(A)^* psi0 + zeta - psi0 - eta| <= tol and zeta of type 27."""
    global _L47
    if _L47 is None:
        _L47 = _lambda4_7_basis()
        require(_L47.shape[1] == 7, "own Lambda^4_7 basis is not 7-dimensional")
    pi = own_pullback_psi0(own_expm(np.asarray(a_matrix, dtype=float)))
    residual = float(np.linalg.norm(pi + zeta - PSI0_VEC - eta))
    require(residual <= tol, f"recomputed residual {residual:.3e} > tol {tol:.1e}")
    require(float(np.linalg.norm(own_star_vec(zeta) - zeta)) <= ZETA_TYPE_TOL, "zeta is not self-dual")
    require(abs(float(zeta @ PSI0_VEC)) <= ZETA_TYPE_TOL, "zeta is not orthogonal to psi0")
    require(float(np.linalg.norm(_L47.T @ zeta)) <= ZETA_TYPE_TOL, "zeta has a Lambda^4_7 component")


def pi_theta_arrays(payload: dict) -> tuple[np.ndarray, np.ndarray]:
    """(A, zeta vector) from the pi-theta CLI JSON."""
    zeta = np.zeros(70)
    index = {",".join(map(str, key)): i for i, key in enumerate(_B4)}
    for key, value in payload["zeta"]["terms"].items():
        zeta[index[key]] = float(value)
    return np.array(payload["A"], dtype=float), zeta


# -- cone calculus and representation theory ---------------------------------------------


def check_classification(parity: str, rate: Fraction, verdicts: dict[str, dict]) -> None:
    slots = {(int(k.split(":")[0]), k.split(":")[1]) for k in verdicts}
    require(slots == PARITY_SLOTS[parity], f"classification slots differ at ({parity}, {rate})")
    by_status: dict[str, set] = {}
    for key, verdict in verdicts.items():
        slot = (int(key.split(":")[0]), key.split(":")[1])
        status = verdict["status"]
        require(status in ("forced-zero", "harmonic", "coupled"), f"unknown status {status}")
        by_status.setdefault(status, set()).add(slot)
        coeff = verdict.get("coefficient")
        if coeff is not None:
            c = q4(coeff)
            require(c[1:] == (0, 0, 0), "classification coefficient is not rational")
            if status == "harmonic":
                require(c[0] == 0, "harmonic slot with nonzero coefficient")
            if status == "forced-zero" and verdict.get("mechanism") == "eigenvalue":
                require(c[0] < 0, "eigenvalue-forced slot with coefficient >= 0")
    table = CERTIFIED_TABLES.get((parity, rate))
    if table is not None:
        for status, expected in table.items():
            require(by_status.get(status, set()) == expected, f"({parity}, {rate}) {status} slots differ")


def casimir_exact(k1: int, k2: int, l: int) -> Fraction:
    return -Fraction(4 * k1 + k1 * k1 + 2 * k2 + k2 * k2, 12) - Fraction(2 * l + l * l, 8)


def window_labels(lo: Fraction, hi: Fraction = Fraction(0)) -> list[tuple[int, int, int]]:
    """Labels k1 >= k2 >= 0, l >= 0 with lo < Cas <= hi, by integer loops.

    -24 Cas = 2(k1^2 + 4k1 + k2^2 + 2k2) + 3(l^2 + 2l), so the window is
    -24 hi <= n < -24 lo on that integer.
    """
    top = -24 * lo
    low = -24 * hi
    out = []
    k1 = 0
    while 2 * (k1 * k1 + 4 * k1) < top:
        for k2 in range(k1 + 1):
            base = 2 * (k1 * k1 + 4 * k1 + k2 * k2 + 2 * k2)
            if base >= top:
                break
            l = 0
            while base + 3 * (l * l + 2 * l) < top:
                if base + 3 * (l * l + 2 * l) >= low:
                    out.append((k1, k2, l))
                l += 1
        k1 += 1
    return out


def check_enumeration(lo: Fraction, records: list[dict]) -> None:
    """Every Casimir lies in (lo, 0], and the label set is the complete one."""
    labels = []
    for record in records:
        cas = q4(record["casimir"])
        k1, k2, l = record["label"]
        require(cas == q4(casimir_exact(k1, k2, l)), f"Casimir of {record['label']} differs")
        require(lo < cas[0] <= 0 and cas[1:] == (0, 0, 0), f"Casimir {cas[0]} outside ({lo}, 0]")
        labels.append((k1, k2, l))
    require(sorted(labels) == window_labels(lo), f"enumeration of ({lo}, 0] is not exhaustive")


def moduli_dimension_exact(nu: Fraction) -> int:
    """Bryant-Salamon link: one contribution of dimension 1 at -10/3."""
    return 1 if BS_CRITICAL < nu else 0


def check_moduli(nu: Fraction, report: dict) -> None:
    require(report["total"] == moduli_dimension_exact(nu), f"moduli dimension at {nu} differs")


def check_lambda_round_trip(lam: tuple[Fraction, Fraction], rates: list[dict]) -> None:
    """Both roots of mu(x) = mu(lam) in (-4, 0): lam and -22/3 - lam."""
    x = float(lam[0]) + float(lam[1]) * math.sqrt(5)
    expected = sorted(r for r in (x, -22.0 / 3.0 - x) if -4.0 < r < 0.0)
    got = sorted(r["float"] for r in rates)
    require(len(got) == len(expected), f"lambda_of_mu returned {len(got)} roots, expected {len(expected)}")
    require(all(abs(g - e) <= 1e-9 for g, e in zip(got, expected)), "lambda_of_mu round trip differs")
    require(all(r["exact"] is False for r in rates), "irrational mu produced an exact rate")


def check_bryant_salamon(payload: dict) -> None:
    require(payload["moduli_dimension_at_-1"] == 1, "Bryant-Salamon moduli dimension at -1 is not 1")


def check_casimir(label: tuple[int, int, int], payload: dict) -> None:
    require(payload["label"] == list(label), "casimir label differs")
    require(q4(payload["casimir"]) == q4(casimir_exact(*label)), "casimir value differs")


def check_critical_rates(eigenvalues: list[Fraction], payload: dict) -> None:
    expected = [math.sqrt(9 + float(mu)) - 4.0 for mu in eigenvalues if 7 < mu < 16]
    got = [r["rate_float"] for r in payload["critical_rates"]]
    require(len(got) == len(expected), "critical-rate count differs")
    require(all(abs(g - e) <= 1e-12 for g, e in zip(got, expected)), "critical rates differ")


def check_verify_algebra(payload: dict) -> None:
    require(payload.get("ok") is True and all(payload["checks"].values()), "verify-algebra reported a failure")


def check_cone_shape(op: str, form: dict, out: dict) -> None:
    """Rate and degrees of a cone operator's output, from its definition."""
    rate = q4(form["rate"])
    shift = {"d": -1, "star": 0, "dstar": -1, "laplacian": -2}[op]
    if out["components"]:
        require(q4(out["rate"]) == add4(rate, q4(shift)), f"cone {op} output rate differs")
    in_degrees = {c["degree"] for c in form["components"]}
    allowed = {
        "d": {k + 1 for k in in_degrees},
        "star": {8 - k for k in in_degrees},
        "dstar": {k - 1 for k in in_degrees},
        "laplacian": in_degrees,
    }[op]
    for comp in out["components"]:
        k = comp["degree"]
        require(k in allowed, f"cone {op} output has degree {k}")
        if comp["alpha"] is not None:
            require(comp["alpha"]["degree"] == k - 1, "dr-slot has the wrong link degree")
        if comp["beta"] is not None:
            require(comp["beta"]["degree"] == k, "tangential slot has the wrong link degree")
