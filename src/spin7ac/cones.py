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

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

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
from .ratmat import Echelon as _LinearSystem
from .scalars import ZERO, Scalar, _canonical, strict_int


class _ConeFormFields(NamedTuple):
    rate: Scalar
    components: dict[int, tuple[LinkExpr | None, LinkExpr | None]]


class HomogeneousConeForm(_ConeFormFields):
    """Mixed-degree homogeneous form on the cone: one (alpha, beta) per degree.

    ``components[k] = (alpha, beta)`` with alpha of link degree k-1 (the dr
    slot, None when absent) and beta of link degree k.  Degrees up to 9 are
    tolerated so that the classification engine can carry formal top slots.
    """

    __slots__ = ()

    def __new__(cls, rate: Scalar, components: dict) -> "HomogeneousConeForm":
        for k, (alpha, beta) in components.items():
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
        return super().__new__(cls, rate, components)

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

    __ne__ = object.__ne__  # the negation of __eq__, not the tuple comparison

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


class AsdClosedCondition(NamedTuple):
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


class SlotVerdict(NamedTuple):
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


class RateClassification(NamedTuple):
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
_Row = dict[int, int]  # column -> nonzero integer coefficient
_Equation = tuple[int, _Row]  # (link degree, row)


def _monomial_rank(m: Monomial):
    word, atom = m
    # Elimination priority: second-order words, then codifferential words,
    # then derivative words, then bare atoms; deterministic tie-breaks.
    return (-sum(op in ("d", "t") for op in word), -len(word), word, atom.name)


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


def _generic_equations(atoms: dict[SlotKey, Atom], lam: Scalar) -> dict[tuple[int, int], dict[Monomial, Scalar]]:
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


class _Skeleton(NamedTuple):
    """What the classifications of one parity share at every rate; see ``_skeleton``."""

    atoms: dict[SlotKey, Atom]
    columns: tuple[Monomial, ...]  # in _monomial_rank order: a pivot is the smallest column
    index: dict[Monomial, int]  # the column of each monomial
    kills: tuple[tuple[str, Word], ...]  # per column: (atom name, word innermost-first)
    images: dict[str, dict[int, tuple[int, int] | None]]  # op -> column -> (column, +-1), None for 0
    equations: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]  # (link degree, ((column, c0, c1), ...))


def _equations_at(skeleton: _Skeleton, n: int, q: int) -> list[_Equation]:
    """The first-order equations at lambda = n/q times q: c0 q + n c1 per column, zeros left out."""
    out = []
    for degree, coefficients in skeleton.equations:
        row = {j: c for j, c0, c1 in coefficients if (c := c0 * q + n * c1)}
        if row:
            out.append((degree, row))
    return out


@lru_cache(maxsize=None)
def _image(op: str, word: Word, atom: Atom) -> tuple[Word, int] | None:
    """op on the monomial (word, atom) by the structural rules alone: (word', +-1), or None for 0.

    Only ``_skeleton`` calls it, on the finitely many monomials of its column
    tables, so the cache needs no bound.
    """
    for (image, _), coeff in apply_operator(LinkExpr.monomial(word, atom), op).terms.items():
        return image, coeff.sign()
    return None


@lru_cache(maxsize=2)
def _skeleton(parity: str) -> _Skeleton:
    """What the classifications of one parity share at every rate.

    Columns: each atom and its words of one and two operators d, t (all the
    Laplacians reach), in ``_monomial_rank`` order, with kill keys, and d, t
    images for the atoms and their one-operator words, which hold every
    equation term.  Each slot's first-order equation, in slot order, has
    integer coefficients c0 + lambda * c1, read off the affine cone_d +
    cone_dstar at rates 0 and 1 and checked against direct builds at 0, 1
    and 1/2.  A term without images raises InternalCheckError.
    """
    atoms = _parity_atoms(parity)
    level = [((), atom) for atom in atoms.values()]
    reach: dict[Monomial, dict[str, tuple[Word, int] | None]] = {}
    for _ in range(2):
        reach.update((m, {op: _image(op, *m) for op in "dt"}) for m in level)
        level = [(image[0], m[1]) for m in level for image in reach[m].values() if image]
    columns = tuple(sorted(reach.keys() | set(level), key=_monomial_rank))
    index = {m: j for j, m in enumerate(columns)}

    def column(m: Monomial) -> int:
        if m not in reach:
            raise InternalCheckError(f"the {parity} column table has no images of {m[0]} {m[1].name}")
        return index[m]

    builds = {(n, q): sorted(_generic_equations(atoms, Scalar(Fraction(n, q))).items()) for n, q in ((0, 1), (1, 1), (1, 2))}
    at0, at1 = dict(builds[0, 1]), dict(builds[1, 1])
    equations = []
    for k, i in sorted(at0.keys() | at1.keys()):
        t0, t1 = at0.get((k, i), {}), at1.get((k, i), {})
        c0 = {m: int(c.as_fraction()) for m, c in t0.items()}
        equations.append((k - 1 + i, tuple(
            (column(m), c0.get(m, 0), int(t1.get(m, ZERO).as_fraction()) - c0.get(m, 0)) for m in {**t0, **t1}
        )))
    images: dict[str, dict[int, tuple[int, int] | None]] = {"d": {}, "t": {}}
    for m, by_op in reach.items():
        for op, image in by_op.items():
            images[op][index[m]] = image and (index[image[0], m[1]], image[1])
    skeleton = _Skeleton(atoms, columns, index, tuple((atom.name, word[::-1]) for word, atom in columns), images, tuple(equations))
    for (n, q), built in builds.items():
        direct = [(k - 1 + i, {column(m): c * q for m, c in terms.items()}) for (k, i), terms in built]
        if _equations_at(skeleton, n, q) != direct:
            raise InternalCheckError(f"the {parity} first-order equations are not affine in the rate")
    return skeleton


def _filtered(skeleton: _Skeleton, row: _Row, rules: Relations) -> _Row:
    """The entries whose columns no kill rule matches: ``normalize`` of canonical words."""
    return {j: c for j, c in row.items() if not rules.killed(*skeleton.kills[j])}


def _apply(skeleton: _Skeleton, op: str, row: _Row, live: list[bool]) -> _Row:
    """``apply_operator`` under fixed kill-only rules: each column's image, then
    the kill filter, read off ``live`` (per column, whether no kill matches it)."""
    images = skeleton.images[op]
    out: _Row = {}
    for j, c in row.items():
        image = images[j]
        if image is None or not live[image[0]]:
            continue
        k, sign = image
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _laplacian(skeleton: _Skeleton, j: int, live: list[bool]) -> _Row:
    """``laplacian_link`` of the atom at column j under fixed kill-only rules: d t + t d."""
    x = {j: 1}
    out = _apply(skeleton, "d", _apply(skeleton, "t", x, live), live)
    for k, c in _apply(skeleton, "t", _apply(skeleton, "d", x, live), live).items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _promote(skeleton: _Skeleton, equations: list[_Equation], rules: Relations) -> tuple[list[_Equation], bool]:
    """Turn single-column equations into kill rules; filter the rest by the kills."""
    changed = False
    remaining: list[_Equation] = []
    for degree, row in equations:
        row = _filtered(skeleton, row, rules)
        if len(row) == 1:
            ((name, inner),) = (skeleton.kills[j] for j in row)
            changed |= rules.kill(name, [inner])
        elif row:
            remaining.append((degree, row))
    return remaining, changed


def _first_order(skeleton: _Skeleton, equations: list[_Equation], live: list[bool]) -> _LinearSystem:
    """One elimination of the promoted first-order equations with their d and d* prolongations."""
    system = _LinearSystem()
    for _, row in equations:
        system.add(row)
    for degree, row in equations:
        if degree <= 8:
            system.add(_apply(skeleton, "d", row, live))
        if 1 <= degree <= 8:
            system.add(_apply(skeleton, "t", row, live))
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

    What does not depend on lambda is built once per parity and process
    (``_skeleton``): the atoms, numbered monomial columns with their kill
    keys and d, t images, and the first-order equations as integer rows.  A
    call at lambda = n/q works on integer rows over the columns throughout,
    the elimination in one ``ratmat.Echelon``.  Its relations only ever hold
    kill words, so rewriting a term is its column's image followed by the
    kill test, exactly where ``apply_operator`` and ``normalize`` test it.
    Scalars are built only for the output, from integer numerators over
    the remainder's denominator.

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
    skeleton = _skeleton(parity)
    rate = lam.as_fraction()
    rules = Relations()
    verdicts: dict[SlotKey, SlotVerdict] = {}

    # Stage 1: frozen second-order relations, modulo one first-order system.
    # No kill word is added past the first promotion, so each column's kill
    # test is read once.
    equations, _ = _promote(skeleton, _equations_at(skeleton, rate.numerator, rate.denominator), rules)
    live = [not rules.killed(*key) for key in skeleton.kills]
    system = _first_order(skeleton, equations, live)
    frozen: dict[SlotKey, tuple[Scalar, _Row, int]] = {}  # (c, coupling numerators, their denominator)
    for key, atom in skeleton.atoms.items():
        j = skeleton.index[((), atom)]
        reduced, den = system.reduce(_laplacian(skeleton, j, live))
        frozen[key] = (_canonical(reduced.pop(j, 0), 0, 0, 0, den), reduced, den)

    # Stage 2: propagation to a fixed point (see the docstring for why it ends).
    changed = True
    while changed:
        changed = False
        for key, atom in skeleton.atoms.items():
            c, coupling, _ = frozen[key]
            if key in verdicts or _filtered(skeleton, coupling, rules):
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
        equations, promoted = _promote(skeleton, equations, rules)
        changed |= promoted
        for key, atom in skeleton.atoms.items():
            verdict = verdicts.get(key)
            zero = () in rules.kills.get(atom.name, ())
            if zero and (verdict is None or verdict.status == "harmonic"):
                verdicts[key] = SlotVerdict("forced-zero", "back-substitution")

    # A slot no rule settled stalled on c > 0 or on its live coupling.
    for key, atom in skeleton.atoms.items():
        if key not in verdicts:
            c, coupling, den = frozen[key]
            coupling = _filtered(skeleton, coupling, rules)
            if not coupling:
                detail = f"Delta {atom.name} = ({c}) {atom.name}, c > 0"
            else:
                lead = "" if c.is_zero() else f"({c}) {atom.name} + "
                terms = {skeleton.columns[j]: _canonical(v, 0, 0, 0, den) for j, v in coupling.items()}
                detail = f"Delta {atom.name} = {lead}{LinkExpr(atom.degree, terms)!r}"
            verdicts[key] = SlotVerdict("coupled", detail=detail)
    return RateClassification(parity, lam, {key: verdicts[key] for key in skeleton.atoms})


# -- critical rates of the Laplacian on 1-forms ----------------------------


class CriticalRate(NamedTuple):
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
