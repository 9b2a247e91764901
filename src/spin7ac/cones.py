"""Symbolic calculus of homogeneous forms on the 8-dimensional cone C(Sigma).

A homogeneous k-form of rate lambda is gamma = r^lambda (r^(k-1) dr ^ alpha
+ r^k beta) with alpha, beta formal link forms of degrees k-1 and k.  The
four first-order operators act per degree-k component as

    d gamma      : dr-slot (lambda+k) beta - d alpha,   tangential d beta
                   (output rate lambda - 1, degree k+1)
    star gamma   : tangential *alpha, dr-slot (-1)^k *beta
                   (output rate lambda, degree 8-k)
    d* gamma     : tangential -(lambda+8-k) alpha + d* beta,
                   dr-slot -d* alpha        (output rate lambda-1, degree k-1)
    Delta gamma  : dr-slot Delta alpha - (lambda+k-2)(lambda-k+8) alpha - 2 d* beta,
                   tangential Delta beta - (lambda+k)(lambda-k+6) beta - 2 d alpha
                   (output rate lambda-2, degree k)

Everything is exact rewriting over LinkExpr; no link geometry is ever
discretized.  The rate-classification engine mechanizes the vanishing
recursion: impose (d + d*) gamma = 0, derive per-slot Laplace relations
Delta x = c x + coupling by applying d and d* to the first-order system,
and propagate using only two semantic facts about a compact link --
Delta >= 0 (so Delta x = c x with c < 0 forces x = 0) and harmonic
implies closed and co-closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputError
from .linkexpr import (
    EMPTY_RELATIONS,
    HARMONIC,
    Atom,
    LinkExpr,
    Relations,
    Word,
    d_link,
    dstar_link,
    laplacian_link,
    normalize,
    star_link,
)
from .moduli import Rate, indicial_roots
from .scalars import ZERO, Scalar, strict_int


@dataclass(frozen=True)
class HomogeneousConeForm:
    """Mixed-degree homogeneous form on the cone: one (alpha, beta) per degree.

    ``components[k] = (alpha, beta)`` with alpha of link degree k-1 (the dr
    slot, None when absent) and beta of link degree k.  Degrees up to 9 are
    tolerated so that the classification engine can carry formal top slots.
    """

    rate: Scalar
    components: dict[int, tuple[LinkExpr | None, LinkExpr | None]]

    def __post_init__(self) -> None:
        for k, (alpha, beta) in self.components.items():
            if not 0 <= k <= 9:
                raise InputError(f"cone degree {k} out of range")
            if alpha is not None and not alpha.is_zero() and alpha.degree != k - 1:
                raise InputError(
                    f"dr-slot of degree-{k} component must have link degree {k-1}"
                )
            if beta is not None and not beta.is_zero() and beta.degree != k:
                raise InputError(
                    f"tangential slot of degree-{k} component must have link degree {k}"
                )

    @classmethod
    def build(
        cls,
        rate: Scalar | int,
        components: Mapping[int, tuple[LinkExpr | None, LinkExpr | None]],
    ) -> "HomogeneousConeForm":
        clean: dict[int, tuple[LinkExpr | None, LinkExpr | None]] = {}
        for k, (alpha, beta) in components.items():
            a = None if alpha is None or alpha.is_zero() else alpha
            b = None if beta is None or beta.is_zero() else beta
            if a is not None or b is not None:
                clean[k] = (a, b)
        return cls(Scalar.coerce(rate), clean)

    def is_zero(self) -> bool:
        return not self.components

    def slot(self, k: int, which: str) -> LinkExpr | None:
        alpha, beta = self.components.get(k, (None, None))
        return alpha if which == "alpha" else beta

    def __add__(self, other: "HomogeneousConeForm") -> "HomogeneousConeForm":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.rate != other.rate:
            raise InputError("cannot add homogeneous forms of different rates")
        return _sum_parts(
            self.rate, [(k, a, b) for g in (self, other) for k, (a, b) in g.components.items()]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousConeForm):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.rate == other.rate and self.components == other.components

    def to_json(self) -> dict:
        comps = []
        for k in sorted(self.components):
            alpha, beta = self.components[k]
            comps.append(
                {
                    "degree": k,
                    "alpha": None if alpha is None else alpha.to_json(),
                    "beta": None if beta is None else beta.to_json(),
                }
            )
        return {"rate": self.rate.to_json(), "components": comps}

    @classmethod
    def from_json(cls, obj: Mapping) -> "HomogeneousConeForm":
        comps: dict[int, tuple[LinkExpr | None, LinkExpr | None]] = {}
        try:
            rate = Scalar.from_json(obj["rate"])
            for item in obj.get("components", []):
                alpha = item.get("alpha")
                beta = item.get("beta")
                degree = strict_int(item["degree"], "cone degree")
                if degree in comps:
                    raise InputError(f"cone degree {degree} given twice")
                comps[degree] = (
                    None if alpha is None else LinkExpr.from_json(alpha),
                    None if beta is None else LinkExpr.from_json(beta),
                )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed cone-form JSON: {exc}") from exc
        return cls.build(rate, comps)


def _add_opt(x: LinkExpr | None, y: LinkExpr | None) -> LinkExpr | None:
    if x is None:
        return y
    if y is None:
        return x
    return x + y


_Part = tuple[int, LinkExpr | None, LinkExpr | None]  # (cone degree, alpha, beta)


def _sum_parts(rate: Scalar, parts: Iterable[_Part]) -> HomogeneousConeForm:
    """The homogeneous form of the given rate whose components sum the parts per degree."""
    sums: dict[int, tuple[LinkExpr | None, LinkExpr | None]] = {}
    for k, alpha, beta in parts:
        a, b = sums.get(k, (None, None))
        sums[k] = (_add_opt(a, alpha), _add_opt(b, beta))
    if any(x is not None and not x.is_zero() for x in sums.get(10, ())):  # only d raises the degree
        raise InputError("d undefined on formal degree-9 components")
    return HomogeneousConeForm.build(rate, sums)


# -- the four cone operators ----------------------------------------------


def cone_d(g: HomogeneousConeForm, rules: Relations = EMPTY_RELATIONS) -> HomogeneousConeForm:
    lam = g.rate
    parts: list[_Part] = []
    for k, (alpha, beta) in g.components.items():
        if alpha is not None:
            parts.append((k + 1, -d_link(alpha, rules), None))
        if beta is not None:
            parts.append((k + 1, beta.scale(lam + k), d_link(beta, rules)))
    return _sum_parts(lam - 1, parts)


def cone_star(g: HomogeneousConeForm, rules: Relations = EMPTY_RELATIONS) -> HomogeneousConeForm:
    parts: list[_Part] = []
    for k, (alpha, beta) in g.components.items():
        if k > 8:
            raise InputError("star undefined on formal degree-9 components")
        if beta is not None:
            star_beta = star_link(beta, rules)
            parts.append((8 - k, -star_beta if k % 2 else star_beta, None))
        if alpha is not None:
            parts.append((8 - k, None, star_link(alpha, rules)))
    return _sum_parts(g.rate, parts)


def cone_dstar(g: HomogeneousConeForm, rules: Relations = EMPTY_RELATIONS) -> HomogeneousConeForm:
    lam = g.rate
    parts: list[_Part] = []
    for k, (alpha, beta) in g.components.items():
        if beta is not None:
            parts.append((k - 1, None, dstar_link(beta, rules)))
        if alpha is not None:
            parts.append((k - 1, -dstar_link(alpha, rules), alpha.scale(-(lam + 8 - k))))
    return _sum_parts(lam - 1, parts)


def cone_laplacian(g: HomogeneousConeForm, rules: Relations = EMPTY_RELATIONS) -> HomogeneousConeForm:
    lam = g.rate
    parts: list[_Part] = []
    for k, (alpha, beta) in g.components.items():
        if alpha is not None:
            dr = laplacian_link(alpha, rules) + alpha.scale(-(lam + k - 2) * (lam - k + 8))
            parts.append((k, dr, d_link(alpha, rules).scale(-2)))
        if beta is not None:
            tan = laplacian_link(beta, rules) + beta.scale(-(lam + k) * (lam - k + 6))
            parts.append((k, dstar_link(beta, rules).scale(-2), tan))
    return _sum_parts(lam - 2, parts)


# -- nearly parallel structure and ASD characterization -------------------


def psi_cone(declare_nearly_parallel: bool = True) -> tuple[HomogeneousConeForm, Relations]:
    """psi_C = r^3 dr ^ phi + r^4 *phi as a rate-0 homogeneous 4-form."""
    phi = Atom("phi", 3)
    rules = Relations()
    if declare_nearly_parallel:
        rules.declare_duality(phi, 4)
    expr = LinkExpr.atom(phi)
    gamma = HomogeneousConeForm.build(
        0, {4: (expr, star_link(expr, rules))}
    )
    return gamma, rules


@dataclass(frozen=True)
class AsdClosedCondition:
    """Link equation characterizing closed homogeneous ASD 4-forms of rate lambda.

    For lambda != -4 the condition is d alpha = coefficient * (star alpha);
    at lambda = -4 it degenerates to: alpha harmonic.
    """

    rate: Scalar
    harmonic: bool
    coefficient: Scalar | None

    def relations_for(self, alpha: Atom) -> Relations:
        rules = Relations()
        if self.harmonic:
            rules.kill(alpha.name, HARMONIC)
        else:
            rules.declare_duality(alpha, self.coefficient)
        return rules


def asd_closed_condition(lam: Scalar | int) -> AsdClosedCondition:
    lam = Scalar.coerce(lam)
    if lam == -4:
        return AsdClosedCondition(rate=lam, harmonic=True, coefficient=None)
    return AsdClosedCondition(rate=lam, harmonic=False, coefficient=-(lam + 4))


def asd_form(alpha: Atom, lam: Scalar | int, rules: Relations = EMPTY_RELATIONS) -> HomogeneousConeForm:
    """gamma = r^(lambda+3) dr ^ alpha - r^(lambda+4) * alpha (anti-self-dual)."""
    if alpha.degree != 3:
        raise InputError("ASD 4-forms need a degree-3 link form")
    expr = LinkExpr.atom(alpha)
    return HomogeneousConeForm.build(lam, {4: (expr, -star_link(expr, rules))})


# -- rate classification ---------------------------------------------------

SlotKey = tuple[int, str]  # (link degree, "alpha" | "beta")


@dataclass(frozen=True)
class SlotVerdict:
    status: str  # "forced-zero" | "harmonic" | "coupled"
    mechanism: str | None = None  # "eigenvalue" | "back-substitution" for forced-zero
    coefficient: Scalar | None = None  # the c in Delta x = c x, when derived
    detail: str | None = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.mechanism:
            out["mechanism"] = self.mechanism
        if self.coefficient is not None:
            out["coefficient"] = self.coefficient.to_json()
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class RateClassification:
    parity: str
    rate: Scalar
    verdicts: dict[SlotKey, SlotVerdict]

    def survivors(self) -> list[SlotKey]:
        return sorted(k for k, v in self.verdicts.items() if v.status == "harmonic")

    def forced_zero(self) -> list[SlotKey]:
        return sorted(k for k, v in self.verdicts.items() if v.status == "forced-zero")

    def to_json(self) -> dict:
        return {
            "parity": self.parity,
            "rate": self.rate.to_json(),
            "verdicts": {
                f"{degree}:{slot}": verdict.to_json()
                for (degree, slot), verdict in sorted(self.verdicts.items())
            },
        }


Monomial = tuple[Word, Atom]


def _deriv_count(word: Word) -> int:
    return sum(1 for op in word if op in ("d", "t"))


def _monomial_rank(m: Monomial):
    word, atom = m
    # Elimination priority: second-order words, then codifferential words,
    # then derivative words, then bare atoms; deterministic tie-breaks.
    return (-_deriv_count(word), -len(word), word, atom.name)


class _LinearSystem:
    """Echelon rows over the (word, atom) monomial basis.

    Each row is normalised at its pivot and holds no pivot of an earlier
    row, so one in-order pass of ``reduce`` leaves no pivot monomial; that
    remainder is unique for the span and its pivots.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[Monomial, dict[Monomial, Scalar]]] = []

    def add(self, expr: LinkExpr) -> None:
        vec = self.reduce(expr)
        if vec:
            pivot = min(vec, key=_monomial_rank)
            inv = vec[pivot].inverse()
            self.rows.append((pivot, {m: c * inv for m, c in vec.items()}))

    def reduce(self, expr: LinkExpr) -> dict[Monomial, Scalar]:
        vec = dict(expr.terms)
        for pivot, row in self.rows:
            factor = vec.get(pivot)
            if factor is None:
                continue
            for m, c in row.items():
                new = vec.get(m, ZERO) - factor * c
                if new.is_zero():
                    vec.pop(m, None)
                else:
                    vec[m] = new
        return vec


def _parity_atoms(parity: str) -> dict[SlotKey, Atom]:
    if parity == "even":
        degrees = (0, 2, 4, 6, 8)
    elif parity == "odd":
        degrees = (1, 3, 5, 7)
    else:
        raise InputError("parity must be 'even' or 'odd'")
    atoms: dict[SlotKey, Atom] = {}
    for k in degrees:
        if k >= 1:
            atoms[(k - 1, "alpha")] = Atom(f"alpha{k-1}", k - 1)
        atoms[(k, "beta")] = Atom(f"beta{k}", k)
    return atoms


def _first_order_equations(
    lam: Scalar, atoms: dict[SlotKey, Atom], rules: Relations
) -> list[LinkExpr]:
    """Per-slot components of (d + d*)gamma = 0 for the generic form on the atoms."""
    gamma = _sum_parts(lam, [
        (k + 1, LinkExpr.atom(atom), None) if slot == "alpha" else (k, None, LinkExpr.atom(atom))
        for (k, slot), atom in atoms.items()
    ])
    total = cone_d(gamma, rules) + cone_dstar(gamma, rules)
    return [x for _, pair in sorted(total.components.items()) for x in pair if x is not None]


def _promote_single_monomials(
    equations: list[LinkExpr], rules: Relations
) -> tuple[list[LinkExpr], bool]:
    """Turn single-monomial equations into kill rules; renormalize the rest."""
    changed = False
    remaining: list[LinkExpr] = []
    for eq in equations:
        eq = normalize(eq, rules)
        if eq.is_zero():
            continue
        if len(eq.terms) == 1:
            ((word, atom),) = eq.terms
            changed |= rules.kill(atom.name, [tuple(reversed(word))])
            continue
        remaining.append(eq)
    return remaining, changed


def _first_order_system(equations: list[LinkExpr], rules: Relations) -> _LinearSystem:
    """The first-order equations with their d and d* prolongations, eliminated."""
    system = _LinearSystem()
    for eq in equations:
        system.add(eq)
    for eq in equations:
        if eq.degree <= 8:
            system.add(d_link(eq, rules))
        if 1 <= eq.degree <= 8:
            system.add(dstar_link(eq, rules))
    return system


def classify_rate(parity: str, lam: Scalar | int) -> RateClassification:
    """Run the vanishing recursion for closed-and-coclosed homogeneous forms.

    Stage 1 derives, once and for all, the per-slot Laplace relations
    Delta x = c x + coupling from the first-order system (the analogues
    of the generic recursion patterns).  Stage 2 propagates: coupling
    terms die as their atoms are forced to zero or become harmonic
    (hence closed and co-closed), a coupling-free relation with c < 0
    forces the slot to zero, with c = 0 makes it harmonic; first-order
    equations that collapse onto a single slot force it to zero by
    back-substitution.  Certifies the (even, -4) and (odd, -3) tables;
    at other rates stalled slots are reported as coupled, not guessed.

    Stage 2 needs no pass cap.  A pass repeats only when it added a kill
    word; one that adds none saw the same rules throughout, and reads each
    zero kill in the pass that added it, so another pass would settle
    nothing.  Kill words come from verdicts (at most four per slot) and from
    promotions (each drops an equation, and the equations never grow), so
    some pass adds none and the loop ends.
    """
    lam = Scalar.coerce(lam)
    if not lam.is_rational():
        raise InputError("classification rates must be rational")
    atoms = _parity_atoms(parity)
    rules = Relations()
    verdicts: dict[SlotKey, SlotVerdict] = {}

    equations, _ = _promote_single_monomials(_first_order_equations(lam, atoms, rules), rules)

    # Stage 1: frozen second-order relations, modulo one first-order system.
    system = _first_order_system(equations, rules)
    frozen: dict[SlotKey, tuple[Scalar, LinkExpr]] = {}
    for key, atom in atoms.items():
        reduced = system.reduce(laplacian_link(LinkExpr.atom(atom), rules))
        c = reduced.pop(((), atom), ZERO)
        frozen[key] = (c, LinkExpr(atom.degree, reduced))

    # Stage 2: propagation to a fixed point (see the docstring for why it ends).
    changed = True
    while changed:
        changed = False
        for key, atom in atoms.items():
            c, coupling = frozen[key]
            if key in verdicts or not normalize(coupling, rules).is_zero():
                continue
            sign = c.sign()
            if sign < 0:
                verdicts[key] = SlotVerdict("forced-zero", "eigenvalue", c)
                changed |= rules.kill(atom.name, [()])
            elif sign == 0:
                verdicts[key] = SlotVerdict("harmonic", coefficient=c)
                changed |= rules.kill(atom.name, HARMONIC)

        # Back-substitution: a first-order equation collapsing to c*x = 0,
        # which also overrules an earlier harmonic verdict.
        equations, promoted = _promote_single_monomials(equations, rules)
        changed |= promoted
        for key, atom in atoms.items():
            verdict = verdicts.get(key)
            zero = () in rules.kills.get(atom.name, ())
            if zero and (verdict is None or verdict.status == "harmonic"):
                verdicts[key] = SlotVerdict("forced-zero", "back-substitution")

    # A slot no rule settled stalled on c > 0 or on its live coupling.
    for key, atom in atoms.items():
        if key not in verdicts:
            c, coupling = frozen[key]
            live = normalize(coupling, rules)
            if live.is_zero():
                detail = f"Delta {atom.name} = ({c}) {atom.name}, c > 0"
            else:
                lead = "" if c.is_zero() else f"({c}) {atom.name} + "
                detail = f"Delta {atom.name} = {lead}{live!r}"
            verdicts[key] = SlotVerdict("coupled", detail=detail)
    return RateClassification(parity, lam, {key: verdicts[key] for key in atoms})


# -- critical rates of the Laplacian on 1-forms ----------------------------


@dataclass(frozen=True)
class CriticalRate:
    rate: Rate
    source: str

    def to_json(self) -> dict:
        rate = self.rate.to_json()
        return {
            "rate": rate["value"],
            "rate_float": rate["float"],
            "exact": rate["exact"],
            "source": self.source,
        }


COCLOSED_ONE_FORM_FLOOR = 12  # smallest link eigenvalue on co-closed 1-forms


def one_form_rate_notes() -> list[str]:
    """Preconditions under which the 1-form critical-rate scan is complete."""
    return [
        "no critical rates exist in (-6, 0]: admissible scalar eigenvalues are "
        "0 or >= 7 (Lichnerowicz-Obata at scalar curvature 42), so the roots "
        "-4 +- sqrt(9 + mu) avoid (-6, 0]",
        f"co-closed 1-forms have link eigenvalue >= {COCLOSED_ONE_FORM_FLOOR}, "
        "which excludes the co-closed (type iv) branch below rate 1",
    ]


def one_form_critical_rates(
    scalar_eigenvalues: Iterable[Scalar | int | Fraction],
) -> list[CriticalRate]:
    """Critical rates in (0,1) of the cone Laplacian on 1-forms.

    Input: link scalar-Laplacian eigenvalues at the normalization where
    the scalar curvature is 42.  Each must be 0 or >= 7 (Lichnerowicz-
    Obata); the quadratic (lambda+1)(lambda+7) = mu then contributes a
    critical rate for each root with lambda in (0,1), and no rates exist
    in (-6, 0].
    """
    out: list[CriticalRate] = []
    for raw in scalar_eigenvalues:
        mu = Scalar.coerce(raw)
        if mu < 0 or 0 < mu < 7:
            raise InputError(
                f"scalar eigenvalue {mu} violates the Lichnerowicz-Obata bound "
                "(must be 0 or >= 7 at scalar curvature 42)"
            )
        # lambda = -4 +- sqrt(9 + mu); only the + root can land in (0, 1).
        if not 7 < mu < 16:
            continue
        plus, _ = indicial_roots(0, mu + 9)
        out.append(CriticalRate(Rate.of(plus), f"type (ii): (lambda+1)(lambda+7) = {mu}"))
    return out
