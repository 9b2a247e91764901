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
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InputError, InternalCheckError
from .linkexpr import (
    EMPTY_RELATIONS,
    HARMONIC,
    Atom,
    LinkExpr,
    Relations,
    Word,
    apply_operator,
    d_link,
    dstar_link,
    laplacian_link,
    star_link,
)
from .moduli import Rate, indicial_roots
from .scalars import ONE, ZERO, Scalar, strict_int


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
        return AsdClosedCondition(harmonic=True, coefficient=None)
    return AsdClosedCondition(harmonic=False, coefficient=-(lam + 4))


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
_Terms = dict[Monomial, Scalar]
_Equation = tuple[int, _Terms]  # (link degree, terms)


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
        self.rows: list[tuple[Monomial, _Terms]] = []

    def add(self, terms: _Terms) -> None:
        vec = self.reduce(terms)
        if vec:
            pivot = min(vec, key=_monomial_rank)
            inv = vec[pivot].inverse()
            self.rows.append((pivot, {m: c * inv for m, c in vec.items()}))

    def reduce(self, terms: _Terms) -> _Terms:
        vec = dict(terms)
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


def _generic_equations(atoms: dict[SlotKey, Atom], lam: Scalar) -> dict[tuple[int, int], _Terms]:
    """Per-slot terms of (d + d*)gamma for the generic form on the atoms.

    Keyed (k, i) for cone degree k and i = 0 (dr slot, link degree k - 1)
    or 1 (tangential slot, link degree k); zero slots are left out.
    """
    gamma = _sum_parts(lam, [
        (k + 1, LinkExpr.atom(atom), None) if slot == "alpha" else (k, None, LinkExpr.atom(atom))
        for (k, slot), atom in atoms.items()
    ])
    total = cone_d(gamma) + cone_dstar(gamma)
    return {(k, i): x.terms for k, pair in total.components.items() for i, x in enumerate(pair) if x is not None}


_Affine = tuple[tuple[int, tuple[tuple[Monomial, Scalar, Scalar], ...]], ...]


def _equations_at(affine: _Affine, lam: Scalar) -> list[_Equation]:
    """The first-order equations at lam, zero terms and zero equations left out."""
    out = []
    for degree, coefficients in affine:
        terms = {}
        for m, c0, c1 in coefficients:
            c = c0 + lam * c1
            if not c.is_zero():
                terms[m] = c
        if terms:
            out.append((degree, terms))
    return out


@lru_cache(maxsize=2)
def _skeleton(parity: str) -> tuple[dict[SlotKey, Atom], _Affine]:
    """What the classifications of one parity share at every rate.

    The parity's atoms, and each slot's first-order equation in slot order
    as (link degree, ((monomial, c0, c1), ...)): at rate lambda a coefficient
    is c0 + lambda * c1.  cone_d and cone_dstar are affine in the rate, so
    rates 0 and 1 fix every coefficient; a third rate checks the
    interpolation against a direct build.
    """
    atoms = _parity_atoms(parity)
    at0, at1 = _generic_equations(atoms, ZERO), _generic_equations(atoms, ONE)
    equations = []
    for k, i in sorted(at0.keys() | at1.keys()):
        t0, t1 = at0.get((k, i), {}), at1.get((k, i), {})
        coefficients = tuple((m, t0.get(m, ZERO), t1.get(m, ZERO) - t0.get(m, ZERO)) for m in {**t0, **t1})
        equations.append((k - 1 + i, coefficients))
    affine = tuple(equations)
    check = Scalar(Fraction(1, 2))
    direct = [(k - 1 + i, terms) for (k, i), terms in sorted(_generic_equations(atoms, check).items())]
    if _equations_at(affine, check) != direct:
        raise InternalCheckError(f"the {parity} first-order equations are not affine in the rate")
    return atoms, affine


@lru_cache(maxsize=None)
def _image(op: str, word: Word, atom: Atom) -> tuple[Word, int] | None:
    """op on the monomial (word, atom) by the structural rules alone: (word', +-1), or None for 0.

    Only classify_rate calls it, on the finitely many monomials that the two
    skeletons reach (92 keys), so the cache needs no bound.
    """
    for (image, _), coeff in apply_operator(LinkExpr.monomial(word, atom), op).terms.items():
        return image, coeff.sign()
    return None


def _filtered(terms: _Terms, rules: Relations) -> _Terms:
    """The terms whose words no kill rule matches: ``normalize`` of canonical words."""
    return {m: c for m, c in terms.items() if not rules.killed(m[1].name, m[0][::-1])}


def _apply(op: str, terms: _Terms, rules: Relations) -> _Terms:
    """``apply_operator`` under kill-only rules: each term's image, then the kill filter."""
    out: _Terms = {}
    for (word, atom), c in terms.items():
        image = _image(op, word, atom)
        if image is None or rules.killed(atom.name, image[0][::-1]):
            continue
        m = (image[0], atom)
        value = c if image[1] > 0 else -c
        out[m] = out[m] + value if m in out else value
    return {m: c for m, c in out.items() if not c.is_zero()}


def _laplacian(atom: Atom, rules: Relations) -> _Terms:
    """``laplacian_link`` of the atom under kill-only rules: d t + t d."""
    x = {((), atom): ONE}
    out = _apply("d", _apply("t", x, rules), rules)
    for m, c in _apply("t", _apply("d", x, rules), rules).items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


def _promote(equations: list[_Equation], rules: Relations) -> tuple[list[_Equation], bool]:
    """Turn single-monomial equations into kill rules; filter the rest by the kills."""
    changed = False
    remaining: list[_Equation] = []
    for degree, terms in equations:
        terms = _filtered(terms, rules)
        if len(terms) == 1:
            ((word, atom),) = terms
            changed |= rules.kill(atom.name, [word[::-1]])
        elif terms:
            remaining.append((degree, terms))
    return remaining, changed


def _first_order(affine: _Affine, lam: Scalar, rules: Relations) -> tuple[list[_Equation], _LinearSystem]:
    """The promoted first-order equations at lam, and one elimination of them
    with their d and d* prolongations."""
    equations, _ = _promote(_equations_at(affine, lam), rules)
    system = _LinearSystem()
    for _, terms in equations:
        system.add(terms)
    for degree, terms in equations:
        if degree <= 8:
            system.add(_apply("d", terms, rules))
        if 1 <= degree <= 8:
            system.add(_apply("t", terms, rules))
    return equations, system


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

    What does not depend on lambda is built once per parity and process
    (``_skeleton``): the atoms and the first-order equations with affine
    coefficients.  A call evaluates those at lambda, then works on term
    dicts.  Its relations only ever hold kill words, never eigenvalues or
    dualities, so rewriting a term under them is its structural reduction
    followed by the kill test; ``_image`` memoizes the reduction of each
    (operator, word, atom) once, and the call applies the kill filter
    after each operator, exactly where ``apply_operator`` and
    ``normalize`` would.

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
    atoms, affine = _skeleton(parity)
    rules = Relations()
    verdicts: dict[SlotKey, SlotVerdict] = {}

    # Stage 1: frozen second-order relations, modulo one first-order system.
    equations, system = _first_order(affine, lam, rules)
    frozen: dict[SlotKey, tuple[Scalar, _Terms]] = {}
    for key, atom in atoms.items():
        reduced = system.reduce(_laplacian(atom, rules))
        c = reduced.pop(((), atom), ZERO)
        frozen[key] = (c, reduced)

    # Stage 2: propagation to a fixed point (see the docstring for why it ends).
    changed = True
    while changed:
        changed = False
        for key, atom in atoms.items():
            c, coupling = frozen[key]
            if key in verdicts or _filtered(coupling, rules):
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
        equations, promoted = _promote(equations, rules)
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
            live = LinkExpr(atom.degree, _filtered(coupling, rules))
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
