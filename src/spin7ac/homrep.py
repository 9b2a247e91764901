"""Representation-theoretic rigidity computation for the Bryant-Salamon metric.

The squashed 7-sphere is the homogeneous space
(Sp(2) x Sp(1)) / (Sp(1)_u x Sp(1)_d).  Solutions of the deformation
equation d zeta = -(lambda+4) * zeta on its link decompose under
Peter-Weyl into isotypic pieces V(k1,k2,l) = V(k1,k2) (x) V(l), filtered
by the Casimir value

    Cas(k1,k2,l) = -(1/12)(4 k1 + k1^2 + 2 k2 + k2^2) - (1/8)(2 l + l^2),

which must satisfy Cas = -(3/40) mu for the cone eigenvalue
mu = (lambda+4)^2 - (2/3)(lambda+4) of the rate lambda in (-4, 0), i.e.
Cas in (-1, 0].  Candidates surviving the branching filter are tested
against the first-order obstruction equation

    sum_{i1<...<i4} sum_j (-1)^j A(e_ij . v)(e_i1,...,^e_ij,...,e_i4)
        e^{i1...i4} + lambda_bar * A(v) = 0.

The source computation prints several eigenvalue pairs that do not
satisfy its own dictionary (mu = 64/5 vs the formula value 80/9 for
V(1,1,0), and the squashed eigenvalues 72/5 vs 10 and 324/25 vs 9).
Records carry BOTH chains, explicitly flagged, and never silently
reconcile them.  Every printed value is 36/25 times the formula value,
i.e. the printed chain takes mu = -(96/5) Cas.  The verdicts of the listed
labels do not depend on the choice; the candidate set does.  Under the
formula chain the exhaustive enumeration has one admissible label the
printed list omits, (1,0,1) with Cas = -19/24; under the printed constant
it has no rate in (-4, 0).  It is reported, flagged as absent from the
printed list, with its obstruction left explicitly unresolved (no printed
Hom data exists for it).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import InputError, InternalCheckError
from .forms import Form, hodge_star, wedge
from .moduli import (
    Contribution,
    LinkData,
    Rate,
    lambda_of_mu,
    moduli_dimension,
    scaling_contribution,
)
from .scalars import _INT_BOUND, SQRT5, SQRT581, SQRT2905, ZERO, Scalar, _canonical

# kappa rescales the squashed metric between scalar curvature 42 and the
# naturally reductive normalization: tau_0 = 12/sqrt(5) and tau_0 = 4/kappa
# give kappa = sqrt(5)/3, kappa^2 = 5/9.
KAPPA_INVERSE = Scalar(3) / SQRT5  # 3/sqrt5 = (3/5) sqrt5


class _LabelFields(NamedTuple):
    k1: int
    k2: int
    l: int


class IrrepLabel(_LabelFields):
    """Highest weight (k1, k2) for Sp(2) and l for Sp(1)."""

    __slots__ = ()

    def __new__(cls, k1: int, k2: int, l: int) -> "IrrepLabel":
        if max(k1, k2, l) >= _INT_BOUND:
            raise InputError("highest weight entry beyond the integer size bound")
        if not (k1 >= k2 >= 0 and l >= 0):
            raise InputError(f"invalid highest weight ({k1},{k2},{l})")
        return super().__new__(cls, k1, k2, l)

    def __str__(self) -> str:
        return f"({self.k1},{self.k2},{self.l})"


def _scaled_casimir(k1: int, k2: int, l: int) -> int:
    """N = -24 Cas(k1,k2,l): an integer >= 0, strictly increasing in each index."""
    return 2 * (k1 * k1 + 4 * k1 + k2 * k2 + 2 * k2) + 3 * (l * l + 2 * l)


def casimir(label: IrrepLabel) -> Scalar:
    """Casimir eigenvalue of V(k1,k2) (x) V(l) w.r.t. minus the Killing form."""
    return _canonical(-_scaled_casimir(label.k1, label.k2, label.l), 0, 0, 0, 24)


# Eigenvalue pairs exactly as printed in the source computation; compared
# against the formula chain and flagged when they disagree.
_PAPER_PRINTED: dict[tuple[int, int, int], dict[str, Scalar]] = {
    (1, 1, 0): {
        "mu": Scalar(Fraction(64, 5)),
        "mu_squashed": Scalar(Fraction(576, 25)),
        # printed as lambda = -(-55+sqrt(2905))/15, which is positive;
        # the in-range root of the printed mu is (-55+sqrt(2905))/15.
        "lambda_printed": (Scalar(55) - SQRT2905) / 15,
    },
    (1, 0, 0): {"mu_squashed": Scalar(Fraction(72, 5))},
    (0, 0, 1): {"mu_squashed": Scalar(Fraction(324, 25))},
    (0, 0, 0): {"mu": ZERO, "mu_squashed": ZERO},
}


class CasimirChain(NamedTuple):
    """The eigenvalue chain of one Casimir, shared by every label of that Casimir."""

    casimir: Scalar
    mu_scal42: Scalar  # formula chain: mu = -(40/3) Cas
    mu_squashed: Scalar  # kappa^{-2} mu = (9/5) mu
    lambdas: tuple[Rate, ...]  # in-range roots of the formula mu

    @classmethod
    def of(cls, n: int) -> CasimirChain:
        """The chain of N = -24 Cas: Cas = -N/24, mu = 5N/9, mu_squashed = N.

        mu = 5N/9 gives the roots lambda = (-11 +- sqrt(5N + 1))/3; the minus
        root is <= -4 for every N >= 0, and the plus root is < 0 iff
        5N + 1 < 121, so only N < 24 (Cas in (-1, 0]) has rates in (-4, 0).
        """
        mu = _canonical(5 * n, 0, 0, 0, 9)
        lambdas = tuple(lambda_of_mu(mu)) if n < 24 else ()
        return cls(_canonical(-n, 0, 0, 0, 24), mu, _canonical(n, 0, 0, 0, 1), lambdas)

    def to_json(self) -> dict:
        return {
            "casimir": self.casimir.to_json(),
            "mu_scal42": self.mu_scal42.to_json(),
            "mu_squashed": self.mu_squashed.to_json(),
            "lambdas": [r.to_json() for r in self.lambdas],
        }


class CasimirRecord(NamedTuple):
    """One candidate representation: its label and the chain of its Casimir.

    The values printed at the source for the label, if it is listed there,
    are read from _PAPER_PRINTED and never reconciled with the chain.
    """

    label: IrrepLabel
    chain: CasimirChain

    casimir = property(lambda self: self.chain.casimir)
    mu_scal42 = property(lambda self: self.chain.mu_scal42)
    mu_squashed = property(lambda self: self.chain.mu_squashed)
    lambdas = property(lambda self: self.chain.lambdas)

    def _printed(self) -> dict[str, Scalar] | None:
        return _PAPER_PRINTED.get((self.label.k1, self.label.k2, self.label.l))

    paper_listed = property(lambda self: self._printed() is not None)
    paper_mu = property(lambda self: (self._printed() or {}).get("mu"))
    paper_mu_squashed = property(lambda self: (self._printed() or {}).get("mu_squashed"))
    paper_lambda_printed = property(lambda self: (self._printed() or {}).get("lambda_printed"))

    @property
    def consistent_with_paper(self) -> bool | None:
        """None when not listed, else whether the printed mu values match the chain."""
        printed = self._printed()
        if printed is None:
            return None
        mu, mu_squashed = self.chain.mu_scal42, self.chain.mu_squashed
        return printed.get("mu", mu) == mu and printed.get("mu_squashed", mu_squashed) == mu_squashed

    def to_json(self, chain: dict | None = None) -> dict:
        """The record's JSON; chain, if given, is the JSON of this record's chain."""
        printed = self._printed()
        return {
            "label": [self.label.k1, self.label.k2, self.label.l],
            **(self.chain.to_json() if chain is None else chain),
            "paper_listed": printed is not None,
            "paper_printed": {} if printed is None else {k: v.to_json() for k, v in printed.items()},
            "consistent_with_paper": None if printed is None else self.consistent_with_paper,
        }


# Deepest admitted window: lo >= -MAX_WINDOW_DEPTH.  The label count grows
# like depth^2.  (-200, 0] holds 23,451 labels, the most the per-process
# ladder below ever holds; building them all takes about 0.13 s (2 vCPUs).
# A deeper window is refused (exit 3) rather than left to run for minutes.
MAX_WINDOW_DEPTH = 200

# The ladder: every record with N = -24 Cas <= top, sorted by (N, label), and
# the parallel tuple of their N.  It only grows, and each growth replaces the
# whole (top, ns, records) snapshot in one assignment, so a reader never sees
# a partial rung and the frozen records and chains are shared by every caller.
_ladder: tuple[int, tuple[int, ...], tuple[CasimirRecord, ...]] = (-1, (), ())


def _grow_ladder(n_max: int) -> tuple[int, tuple[int, ...], tuple[CasimirRecord, ...]]:
    """The ladder, grown if need be to hold every label with N <= n_max.

    N = -24 Cas is strictly increasing in k1, k2 and l separately, so the k1
    and k2 loops run until N passes n_max and the l range of the new rungs,
    top < N <= n_max, is solved in closed form; every label outside the
    visited frontier then has a larger N, which proves exhaustion.
    """
    global _ladder
    ladder = _ladder
    top, ns, records = ladder
    if n_max <= top:
        return ladder
    n_min = top + 1
    found: list[tuple[int, int, int, int]] = []
    k1 = 0
    while _scaled_casimir(k1, 0, 0) <= n_max:
        k2 = 0
        while k2 <= k1 and (base := _scaled_casimir(k1, k2, 0)) <= n_max:
            # N = base + 3 l (l + 2) and l (l + 2) = (l + 1)^2 - 1, so N <= n_max iff
            # (l + 1)^2 <= 1 + (n_max - base) // 3, and N >= n_min iff
            # (l + 1)^2 >= 1 + c for c = ceil((n_min - base) / 3), i.e. l >= isqrt(c).
            l_first = math.isqrt(max(0, -((base - n_min) // 3)))
            l_last = math.isqrt(1 + (n_max - base) // 3) - 1
            found += [(base + 3 * l * (l + 2), k1, k2, l) for l in range(l_first, l_last + 1)]
            k2 += 1
        k1 += 1
    found.sort()
    rungs: list[CasimirRecord] = []
    n_chain, chain = -1, None
    for n, k1, k2, l in found:
        if n != n_chain:
            n_chain, chain = n, CasimirChain.of(n)
        rungs.append(CasimirRecord(IrrepLabel(k1, k2, l), chain))
    ladder = (n_max, ns + tuple(n for n, _, _, _ in found), records + tuple(rungs))
    _ladder = ladder
    return ladder


def enumerate_candidates(
    lo: Scalar | int | Fraction,
    hi: Scalar | int | Fraction = 0,
    include_lo: bool = False,
    include_hi: bool = True,
) -> list[CasimirRecord]:
    """All labels with Casimir in the window, exhaustively, as a fresh list.

    Works on the integer N = -24 Cas: the window is a contiguous slice of
    the ladder of all labels sorted by N, found by bisection once the ladder
    reaches the window's largest N.  Sorted by decreasing Casimir, then label;
    the labels of one Casimir share one CasimirChain, built once per process.
    """
    lo, hi = Scalar.coerce(lo), Scalar.coerce(hi)
    if not (lo.is_rational() and hi.is_rational()):
        raise InputError("Casimir window bounds must be rational")
    lo, hi = lo.as_fraction(), hi.as_fraction()
    if hi < lo:
        raise InputError("empty window: hi < lo")
    if lo < -MAX_WINDOW_DEPTH:
        raise InputError(f"Casimir window reaches below -{MAX_WINDOW_DEPTH}")
    # lo < Cas <= hi  <=>  -24 hi <= N < -24 lo, with the ends per the flags
    n_min = math.ceil(-24 * hi) if include_hi else math.floor(-24 * hi) + 1
    n_max = math.floor(-24 * lo) if include_lo else math.ceil(-24 * lo) - 1
    _, ns, records = _grow_ladder(n_max)
    return list(records[bisect_left(ns, n_min):bisect_right(ns, n_max)])


def records_json(records: Iterable[CasimirRecord]) -> list[dict]:
    """[r.to_json() for r in records], building each chain's JSON once per chain.

    enumerate_candidates lists the labels of one Casimir together, sharing
    one CasimirChain object built once per process, so one chain JSON serves
    each run of records whose chain is the same object.
    """
    out: list[dict] = []
    chain, chain_json = None, {}
    for record in records:
        if record.chain is not chain:
            chain, chain_json = record.chain, record.chain.to_json()
        out.append(record.to_json(chain_json))
    return out


def rescale_torsion_constant(c_scal42: Scalar | int | Fraction) -> Scalar:
    """Torsion constant from scalar curvature 42 to the reductive scale.

    The metric rescales by kappa^2, the star on 3-forms by kappa, so the
    constant picks up kappa^{-1} = 3/sqrt(5).
    """
    return Scalar.coerce(c_scal42) * KAPPA_INVERSE


def lambda_bar_of_rate(lam: Scalar | int | Fraction) -> Scalar:
    """The obstruction-equation constant for a deformation rate lambda.

    d zeta = -(lambda+4) * zeta gives the canonical-connection equation
    d-bar zeta = (2/3 - (lambda+4)) * zeta at scalar curvature 42; the
    constant rescaled to the reductive normalization (orientation flip
    absorbed) is the lambda-bar of the Hom-space equation.
    """
    c_scal42 = Scalar(Fraction(2, 3)) - (Scalar.coerce(lam) + Scalar(4))
    return rescale_torsion_constant(c_scal42)


# -- the explicit Hom-space generator data ---------------------------------

# The certified G2 3-form of the orthonormal frame used by the action
# table.  The table is copied verbatim; its frame's associative form is
# not printed at the source, but among all signed-permutation images of
# the standard G2 form exactly one (up to global sign) makes every table
# entry a type-27 form, and this is it.
PHI_FRAME = Form(
    7,
    3,
    {
        (1, 2, 3): Scalar(1),
        (1, 4, 5): Scalar(1),
        (1, 6, 7): Scalar(-1),
        (2, 4, 6): Scalar(1),
        (2, 5, 7): Scalar(1),
        (3, 4, 7): Scalar(1),
        (3, 5, 6): Scalar(-1),
    },
)

_MINUS_TWO_OVER_SQRT5 = Scalar(Fraction(-2, 5)) * SQRT5  # -2/sqrt(5)


def _scaled(coeffs: dict[tuple[int, int, int], int]) -> Form:
    return Form(7, 3, {k: Scalar(v) for k, v in coeffs.items()}).scale(
        _MINUS_TWO_OVER_SQRT5
    )


class HomData(NamedTuple):
    """Partial action table for one common submodule.

    ``action[(i, v)]`` holds A(e_i . v) and ``direct[v]`` holds A(v),
    all of them 3-forms over R^7 in the table's own frame.
    """

    action: dict[tuple[int, str], Form]
    direct: dict[str, Form]

    def all_values(self) -> list[Form]:
        return [*self.action.values(), *self.direct.values()]


def ud_hom_data() -> HomData:
    """The generator of Hom_H(UD, Lambda^3_27 m), copied verbatim."""
    return HomData(
        action={
            (1, "e4"): _scaled({(4, 6, 7): 3, (1, 3, 7): 1, (1, 2, 6): 1, (2, 3, 4): 1}),
            (2, "e4"): _scaled(
                {(4, 5, 7): -3, (2, 3, 7): 1, (1, 2, 5): -1, (1, 3, 4): -1}
            ),
            (3, "e4"): _scaled(
                {(4, 5, 6): 3, (2, 3, 6): -1, (1, 3, 5): -1, (1, 2, 4): 1}
            ),
            (4, "e4"): Form.zero(7, 3),
        },
        direct={
            "e4": Form(
                7,
                3,
                {
                    (5, 6, 7): Scalar(-3),
                    (2, 3, 5): Scalar(-1),
                    (1, 3, 6): Scalar(1),
                    (1, 2, 7): Scalar(-1),
                },
            )
        },
    )


def trivial_hom_data(a_value: Form | None = None) -> HomData:
    """Trivial representation: every e_i . v acts as zero."""
    value = a_value if a_value is not None else Form.zero(7, 3)
    return HomData(
        action={(i, "v"): Form.zero(7, 3) for i in range(1, 8)},
        direct={"v": value},
    )


def hom_obstruction_coefficient(
    data: HomData,
    lambda_bar: Scalar | int | Fraction,
    v: str,
    target: tuple[int, int, int, int],
) -> Scalar:
    """Coefficient of e^target in the obstruction equation at basis vector v.

    Orientation e^{1...7} positive for the 7-dimensional star.  Raises
    when the action table lacks an entry required by the target tuple.
    """
    if len(target) != 4 or sorted(set(target)) != sorted(target):
        raise InputError(f"target {target} must be 4 strictly increasing indices")
    if any(not 1 <= i <= 7 for i in target):
        raise InputError(f"target {target} out of range 1..7")
    if v not in data.direct:
        raise InputError(f"no direct value A({v}) in the table")
    total = ZERO
    for j, idx in enumerate(target, start=1):
        entry = data.action.get((idx, v))
        if entry is None:
            raise InputError(f"action table lacks A(e{idx} . {v})")
        remaining = tuple(x for x in target if x != idx)
        sign = -1 if j % 2 else 1
        total = total + entry.coefficient(remaining) * sign
    starred = hodge_star(data.direct[v])
    return total + Scalar.coerce(lambda_bar) * starred.coefficient(target)


def type27_residuals(value: Form, phi: Form = PHI_FRAME) -> tuple[Form, Form]:
    """(value ^ phi, value ^ *phi): both vanish iff value is type 27."""
    return wedge(value, phi), wedge(value, hodge_star(phi))


def is_type27(value: Form, phi: Form = PHI_FRAME) -> bool:
    w1, w2 = type27_residuals(value, phi)
    return w1.is_zero() and w2.is_zero()


# -- branching data ---------------------------------------------------------

# Irreducible Sp(1)_u x Sp(1)_d modules, written multiplicatively.
E_MODULES = ("S2U.S2D", "U.S3D", "U.D", "S4D", "C")

# Restrictions to Sp(1)_u x Sp(1)_d of the candidate representations, from
# the displayed isomorphisms; (1,0,1) is the tensor product of the two
# displayed restrictions, expanded with D (x) D = S2D + C.
BRANCHING: dict[tuple[int, int, int], tuple[str, ...]] = {
    (1, 1, 0): ("U.D", "C"),
    (1, 0, 0): ("U", "D"),
    (0, 0, 1): ("D",),
    (0, 0, 0): ("C",),
    (1, 0, 1): ("U.D", "S2D", "C"),
}


class CandidateVerdict(NamedTuple):
    record: CasimirRecord
    common_modules: tuple[str, ...]
    verdict: str  # "contributes" | "obstructed" | "no-common-subrepresentation"
    #              | "unresolved"
    contributed_dim: int
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "record": self.record.to_json(),
            "common_modules": list(self.common_modules),
            "verdict": self.verdict,
            "contributed_dim": self.contributed_dim,
            "notes": list(self.notes),
        }


class RigidityReport(NamedTuple):
    candidates: tuple[CandidateVerdict, ...]
    e_table: tuple[Contribution, ...]  # confirmed E-space contributions
    unresolved: tuple[str, ...]
    link_data: LinkData
    dimensions: dict[str, int]  # rendered nu -> dim M_nu
    mu_discrepancies: tuple[str, ...]
    obstruction_coefficient: Scalar

    def to_json(self) -> dict:
        return {
            "candidates": [c.to_json() for c in self.candidates],
            "e_table": [c.to_json() for c in self.e_table],
            "unresolved": list(self.unresolved),
            "link_data": self.link_data.to_json(),
            "moduli_dimension": self.dimensions,
            "mu_discrepancies": list(self.mu_discrepancies),
            "ud_obstruction_coefficient": self.obstruction_coefficient.to_json(),
        }

    def table_text(self) -> str:
        lines = ["label      Casimir   mu(formula)  mu(printed)  verdict"]
        for c in self.candidates:
            r = c.record
            printed = str(r.paper_mu) if r.paper_mu is not None else "-"
            lines.append(
                f"{str(r.label):10} {str(r.casimir):9} {str(r.mu_scal42):12} "
                f"{printed:12} {c.verdict}"
            )
        lines.append("")
        lines.append(
            "E-table: "
            + ", ".join(f"(lambda={c.rate}, dim={c.dim})" for c in self.e_table)
        )
        for nu, dim in self.dimensions.items():
            lines.append(f"dim M_nu at nu={nu}: {dim}")
        for note in self.mu_discrepancies:
            lines.append(f"discrepancy: {note}")
        for note in self.unresolved:
            lines.append(f"unresolved: {note}")
        return "\n".join(lines)


LAMBDA_BAR_PAPER = (SQRT5 - SQRT581) * Fraction(1, 5)
BS_RATE = Scalar(Fraction(-10, 3))


def bryant_salamon_link_data() -> LinkData:
    """Link data of the squashed 7-sphere established by the computation."""
    return LinkData(
        name="bryant-salamon",
        dim_h4_minus_l2=0,
        dim_im_upsilon4=0,
        contributions=(
            Contribution(
                rate=BS_RATE, dim=1, source="scaling deformation (trivial rep at mu=0)"
            ),
        ),
        critical_rates=(BS_RATE,),
    )


def bryant_salamon_pipeline() -> RigidityReport:
    """End-to-end rigidity computation over the squashed 7-sphere.

    It reads no input, so a failed check of its tables is an InternalCheckError.
    """
    records = enumerate_candidates(Scalar(-1), Scalar(0))
    verdicts: list[CandidateVerdict] = []
    confirmed: list[Contribution] = []
    unresolved: list[str] = []
    discrepancies: list[str] = []

    ud = ud_hom_data()
    for value in ud.all_values():
        if not is_type27(value):
            raise InternalCheckError("action-table entry fails the type-27 certification")
    ud_coefficient = hom_obstruction_coefficient(
        ud, LAMBDA_BAR_PAPER, "e4", (1, 2, 3, 4)
    )
    if ud_coefficient.is_zero():
        raise InternalCheckError("UD obstruction coefficient unexpectedly vanished")

    for record in records:
        label = (record.label.k1, record.label.k2, record.label.l)
        notes: list[str] = []
        if record.consistent_with_paper is False:
            printed = (
                str(record.paper_mu)
                if record.paper_mu is not None
                else f"kappa^-2 mu = {record.paper_mu_squashed}"
            )
            discrepancies.append(
                f"{record.label}: formula mu = {record.mu_scal42} "
                f"(kappa^-2 mu = {record.mu_squashed}) vs printed {printed}; "
                "inconsistent with Cas = -(3/40) mu"
            )
        if not record.paper_listed:
            notes.append(
                "absent from the printed candidate list despite "
                f"Cas = {record.casimir} in (-1, 0]"
            )
        common = tuple(m for m in BRANCHING[label] if m in E_MODULES)
        if not common:
            verdicts.append(
                CandidateVerdict(
                    record, common, "no-common-subrepresentation", 0, tuple(notes)
                )
            )
            continue
        contributed = 0
        verdict = "obstructed"
        for module in common:
            if module == "C":
                if record.mu_scal42.is_zero():
                    # lambda_bar = 0: the equation is vacuous for the
                    # trivial representation; Hom survives.
                    contributed += 1
                    notes.append("trivial rep with lambda_bar = 0: contributes")
                else:
                    notes.append(
                        "trivial rep with lambda_bar != 0: lambda_bar * A(v) = 0 "
                        "forces A = 0"
                    )
            elif module == "U.D" and label == (1, 1, 0):
                notes.append(
                    f"UD obstruction coefficient {ud_coefficient} != 0 at "
                    f"lambda_bar = {LAMBDA_BAR_PAPER}"
                )
            else:
                verdict = "unresolved"
                unresolved.append(
                    f"{record.label}: common module {module} has no printed "
                    "Hom-generator data"
                )
        if contributed:
            verdict = "contributes"
            lam = record.lambdas[0]
            if lam.value is None:
                raise InternalCheckError(f"{record.label}: contributing rate is not exact")
            confirmed.append(
                Contribution(
                    rate=lam.value,
                    dim=contributed,
                    source=f"V{record.label} trivial representation",
                )
            )
        verdicts.append(
            CandidateVerdict(record, common, verdict, contributed, tuple(notes))
        )

    link = bryant_salamon_link_data()
    expected = tuple(sorted(confirmed, key=lambda c: c.rate))
    if tuple((c.rate, c.dim) for c in expected) != tuple(
        (c.rate, c.dim) for c in link.contributions
    ):
        raise InternalCheckError("confirmed E-table disagrees with the built-in link data")
    check = scaling_contribution(link, BS_RATE)
    if not check.valid:
        raise InternalCheckError(f"scaling-contribution validation failed: {check.reason}")

    dims: dict[str, int] = {}
    for nu in (Fraction(-7, 2), Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2)):
        report = moduli_dimension(link, Scalar(nu))
        dims[str(nu)] = report.total

    return RigidityReport(
        candidates=tuple(verdicts),
        e_table=tuple(link.contributions),
        unresolved=tuple(unresolved),
        link_data=link,
        dimensions=dims,
        mu_discrepancies=tuple(discrepancies),
        obstruction_coefficient=ud_coefficient,
    )
