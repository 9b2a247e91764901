"""Formal operator calculus for differential forms on the 7-dimensional link.

A LinkExpr is an exact linear combination of words in the operators

    d  (exterior derivative, degree +1)
    s  (Hodge star of the link, degree k -> 7-k)
    t  (codifferential d*, degree -1)

applied to named abstract forms of declared degree.  No link geometry is
ever discretized; the calculus consists of the operator identities

    d d = 0,   t t = 0,   s s = Id,   t = (-1)^k s d s   on degree k,

plus optional declared relations per atom: kill words (closed, co-closed,
vanishing, or any prefix of operators), Laplace eigenvalues, and the
duality d a = c * (s a).  The codifferential is eliminated via
the bridge identity wherever the star is defined (degrees 1..7); it
survives as a primitive letter only on the formal degrees 8 and 9, which
the rate-classification engine carries through the recursion exactly as the
source analysis does.

Words are stored outermost-first: ('d', 's') applied to a means d(s(a)).
Atoms of degree 8 are formal bookkeeping slots (a 7-manifold has no
8-forms); expressions of degree up to 9 may appear transiently inside the
classification engine, where they are only ever equated to zero.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import InputError
from .scalars import ONE, ZERO, Scalar, strict_int

Word = tuple[str, ...]

_MAX_REWRITE_DEPTH = 60


class _AtomFields(NamedTuple):
    name: str
    degree: int


class Atom(_AtomFields):
    """A named abstract link form with a declared degree.

    Atoms key every term dict of the calculus; as a tuple, an atom hashes
    and compares in C, ordered by (name, degree).
    """

    __slots__ = ()

    def __new__(cls, name: str, degree: int) -> "Atom":
        if not 0 <= degree <= 8:
            raise InputError(f"atom degree {degree} out of range 0..8")
        return super().__new__(cls, name, degree)

    def to_json(self) -> dict:
        return {"name": self.name, "degree": self.degree}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Atom":
        return cls(str(obj["name"]), strict_int(obj["degree"], "atom degree"))


CLOSED: tuple[Word, ...] = (("d",),)
# t stays primitive on degrees 8 and 9; on degrees 1..7 it is bridged to s d s
COCLOSED: tuple[Word, ...] = (("t",), ("s", "d"))
HARMONIC = CLOSED + COCLOSED  # compact link: harmonic is closed and co-closed


class Relations:
    """Declared relations for the named atoms of a computation.

    ``kills[name]`` holds words written innermost-first: a word on that
    atom vanishes when its innermost operators start with one of them, and
    the empty word kills the atom itself.  ``eigen[name] = mu`` declares
    Delta a = mu a, ``duality[name] = c`` declares d a = c * (s a).
    Each argument left out starts as a fresh dict.
    """

    def __init__(self, eigen: dict | None = None, duality: dict | None = None, kills: dict | None = None) -> None:
        self.eigen: dict[str, Scalar] = {} if eigen is None else eigen
        self.duality: dict[str, Scalar] = {} if duality is None else duality
        self.kills: dict[str, set[Word]] = {} if kills is None else kills

    def kill(self, name: str, words: Iterable[Word]) -> bool:
        """Kill the words on the named atom; True when one of them is new."""
        known = self.kills.setdefault(name, set())
        size = len(known)
        known.update(words)
        return len(known) > size

    def killed(self, name: str, inner: Word) -> bool:
        """Whether the word ``inner`` (innermost-first) dies on the named atom."""
        return any(inner[: len(word)] == word for word in self.kills.get(name, ()))

    def declare_duality(self, atom: Atom, coeff: Scalar | int) -> None:
        """Declare d a = coeff * (s a); for coeff != 0 also kill d s a = (1/coeff) d d a."""
        coeff = Scalar.coerce(coeff)
        self.duality[atom.name] = coeff
        if not coeff.is_zero():
            self.kill(atom.name, [("s", "d")])


EMPTY_RELATIONS = Relations()


def _word_degree(applied: Iterable[str], start: int) -> int:
    degree = start
    for op in applied:
        if op == "d":
            degree += 1
        elif op == "t":
            degree -= 1
        else:
            degree = 7 - degree
    return degree


class LinkExpr:
    """Exact linear combination of operator words applied to atoms.

    The constructor drops zero coefficients, so sums may leave them in.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[tuple[Word, Atom], Scalar]):
        clean = {
            key: value for key, value in terms.items() if not value.is_zero()
        }
        for (word, atom) in clean:
            if _word_degree(reversed(word), atom.degree) != degree:
                raise InputError(
                    f"term {word} {atom} has degree "
                    f"{_word_degree(reversed(word), atom.degree)}, expected {degree}"
                )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinkExpr is immutable")

    @classmethod
    def zero(cls, degree: int) -> "LinkExpr":
        return cls(degree, {})

    @classmethod
    def atom(cls, atom: Atom) -> "LinkExpr":
        return cls(atom.degree, {((), atom): ONE})

    @classmethod
    def monomial(cls, word: Word, atom: Atom) -> "LinkExpr":
        """The word (outermost-first) applied to the atom, coefficient 1."""
        return cls(_word_degree(reversed(word), atom.degree), {(word, atom): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LinkExpr") -> "LinkExpr":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise InputError(
                f"degree mismatch in sum: {self.degree} vs {other.degree}"
            )
        terms = dict(self.terms)
        for key, value in other.terms.items():
            terms[key] = terms.get(key, ZERO) + value
        return LinkExpr(self.degree, terms)

    def __neg__(self) -> "LinkExpr":
        return LinkExpr(self.degree, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "LinkExpr") -> "LinkExpr":
        return self + (-other)

    def scale(self, factor: Scalar | int) -> "LinkExpr":
        f = Scalar.coerce(factor)
        if f.is_zero():
            return LinkExpr.zero(self.degree)
        return LinkExpr(self.degree, {k: v * f for k, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkExpr):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"LinkExpr({self.degree}, 0)"
        bits = []
        for (word, atom), coeff in sorted(self.terms.items()):
            ops = " ".join(word) + " " if word else ""
            bits.append(f"({coeff}) {ops}{atom.name}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {
                    "coeff": coeff.to_json(),
                    "ops": list(word),
                    "atom": atom.to_json(),
                }
                for (word, atom), coeff in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "LinkExpr":
        degree = strict_int(obj["degree"], "degree")
        terms: dict[tuple[Word, Atom], Scalar] = {}
        for item in obj.get("terms", []):
            key = (tuple(item.get("ops", [])), Atom.from_json(item["atom"]))
            coeff = Scalar.from_json(item["coeff"])
            terms[key] = terms.get(key, ZERO) + coeff
        # incoming words may be unreduced; canonicalize them
        return normalize(cls(degree, terms))


# -- normalization --------------------------------------------------------


def _normalize_applied(
    applied: list[str],
    atom: Atom,
    coeff: Scalar,
    rules: Relations,
    depth: int,
) -> dict[tuple[Word, Atom], Scalar]:
    """Rule rewriting on a structurally reduced word (innermost-first list)."""
    inner = tuple(applied)
    if rules.killed(atom.name, inner):
        return {}
    if applied and applied[0] == "d":
        c = rules.duality.get(atom.name)
        if c is not None:
            # d a -> c * (s a); re-run the remaining operators on top.
            rest = list(reversed(applied[1:]))  # back to outermost-first
            return _apply_ops(rest, ["s"], atom, coeff * c, rules, depth + 1)
        if inner[:4] == ("d", "s", "d", "s"):
            mu = rules.eigen.get(atom.name)
            if mu is not None:
                if atom.degree > 6:
                    raise InputError(
                        "eigenform relations are supported for degrees 0..6"
                    )
                # Laplace eigenform: (-1)^k (d s d s - s d s d) a = mu a,
                # oriented to rewrite the word with innermost letter d:
                # [d,s,d,s] prefix (= s d s d outermost) ->
                #     [s,d,s,d] prefix - (-1)^k mu * (no ops).
                # For a 0-form the first summand is d(d* a) = 0.
                sign = -1 if atom.degree % 2 else 1
                rest = list(reversed(applied[4:]))  # back to outermost-first
                if atom.degree == 0:
                    out = {}
                else:
                    out = _apply_ops(
                        rest, ["s", "d", "s", "d"], atom, coeff, rules, depth + 1
                    )
                tail = _apply_ops(rest, [], atom, coeff * (-sign) * mu, rules, depth + 1)
                for key, value in tail.items():
                    out[key] = out.get(key, ZERO) + value
                return out
    return {(inner[::-1], atom): coeff}


def _apply_ops(
    pending_outer: list[str],
    applied: list[str],
    atom: Atom,
    coeff: Scalar,
    rules: Relations,
    depth: int,
) -> dict[tuple[Word, Atom], Scalar]:
    """Structurally reduce, innermost-first; then fire relation rules.

    ``pending_outer`` holds operators still to apply (outermost-first
    order, consumed from the end), ``applied`` the already-reduced inner
    part (innermost-first).
    """
    if depth > _MAX_REWRITE_DEPTH:  # pragma: no cover
        raise InputError("rewrite depth exceeded; relations do not terminate")
    pending = list(pending_outer)
    applied = list(applied)
    degree = _word_degree(applied, atom.degree)
    while pending:
        op = pending.pop()
        if op == "s":
            if not 0 <= degree <= 7:
                raise InputError(f"star undefined on degree {degree}")
            if applied and applied[-1] == "s":
                applied.pop()
            else:
                applied.append("s")
            degree = 7 - degree
        elif op == "d":
            if applied and applied[-1] == "d":
                return {}
            if degree >= 9:
                raise InputError(f"d applied to degree {degree}")
            applied.append("d")
            degree += 1
        elif op == "t":
            if applied and applied[-1] == "t":
                # (d*)^2 = 0 also when the inner d* stayed primitive
                return {}
            if degree == 0:
                return {}
            if 1 <= degree <= 7:
                # bridge t = (-1)^k s d s
                if degree % 2:
                    coeff = -coeff
                pending.extend(("s", "d", "s"))
            elif degree in (8, 9):
                applied.append("t")
                degree -= 1
            else:
                raise InputError(f"codifferential undefined on degree {degree}")
        else:
            raise InputError(f"unknown operator {op!r}")
    return _normalize_applied(applied, atom, coeff, rules, depth)


def _rewrite(expr: LinkExpr, ops: list[str], rules: Relations) -> LinkExpr:
    """Apply ``ops`` (outermost-first) to every term and re-collect the pieces."""
    out: dict[tuple[Word, Atom], Scalar] = {}
    for (word, atom), coeff in expr.terms.items():
        for key, value in _apply_ops(ops + list(word), [], atom, coeff, rules, 0).items():
            out[key] = out.get(key, ZERO) + value
    return LinkExpr(_word_degree(reversed(ops), expr.degree), out)


def apply_operator(expr: LinkExpr, op: str, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    """Apply d, s or t to an expression and normalize."""
    return _rewrite(expr, [op], rules)


def normalize(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    """Re-normalize an expression under (possibly new) relations."""
    return _rewrite(expr, [], rules)


def d_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    return apply_operator(expr, "d", rules)


def star_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    return apply_operator(expr, "s", rules)


def dstar_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    return apply_operator(expr, "t", rules)


def laplacian_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    """Delta = d t + t d, expanded into canonical words."""
    return d_link(dstar_link(expr, rules), rules) + dstar_link(d_link(expr, rules), rules)
