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

All rewriting is one loop over a work list of (word, atom, coefficient)
items: reduce the word innermost-first by the identities above (a zero
drops the item), check the kill words, then queue what a relation firing
on the innermost letters leaves, or else add the term to the result.  It
ends: duality turns an innermost d into s (one d fewer, no letter more),
and an eigenform turns the innermost (d s d s) into (s d s d), which fires
nothing, plus the word four letters shorter; queued words are reduced
already, at the old degrees, so their reduction bridges no d* into d.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import InputError
from .scalars import ONE, Scalar, json_field, strict_int

Word = tuple[str, ...]


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
        return cls(json_field(obj, "name", str), strict_int(obj["degree"], "atom degree"))


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
    Each starts as a fresh dict, ``eigen`` unless one is passed.
    """

    def __init__(self, eigen: dict | None = None) -> None:
        self.eigen: dict[str, Scalar] = {} if eigen is None else eigen
        self.duality: dict[str, Scalar] = {}
        self.kills: dict[str, set[Word]] = {}

    def kill(self, name: str, words: Iterable[Word]) -> None:
        """Kill the words on the named atom."""
        self.kills.setdefault(name, set()).update(words)

    def killed(self, name: str, inner: Word) -> bool:
        """Whether the word ``inner`` (innermost-first) dies on the named atom."""
        return any(inner[: len(word)] == word for word in self.kills.get(name, ()))

    def declare_duality(self, atom: Atom, coeff: Scalar | int) -> None:
        """Declare d a = coeff * (s a) on a 3-form, the one degree where both
        sides agree; for coeff != 0 also kill d s a = (1/coeff) d d a."""
        if atom.degree != 3:
            raise InputError(f"duality d a = c * (s a) needs a 3-form, not degree {atom.degree}")
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
            terms[key] = terms[key] + value if key in terms else value
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
        for item in json_field(obj, "terms", list, []):
            key = (tuple(json_field(item, "ops", list, [])), Atom.from_json(item["atom"]))
            coeff = Scalar.from_json(item["coeff"])
            terms[key] = terms[key] + coeff if key in terms else coeff
        # incoming words may be unreduced; canonicalize them
        return normalize(cls(degree, terms))


# -- normalization --------------------------------------------------------


def _rewrite(expr: LinkExpr, ops: Word, rules: Relations) -> LinkExpr:
    """Apply ``ops`` (outermost-first) to every term: the one rewriting loop."""
    out: dict[tuple[Word, Atom], Scalar] = {}
    # a stack, filled in reverse so that terms and their pieces keep their order
    work = [(ops + word, atom, coeff) for (word, atom), coeff in reversed(expr.terms.items())]
    while work:
        word, atom, coeff = work.pop()
        pending = list(word)  # consumed from the end, innermost first
        applied: list[str] = []  # the reduced part, innermost-first
        degree = atom.degree
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
                    break
                if degree >= 9:
                    raise InputError(f"d applied to degree {degree}")
                applied.append("d")
                degree += 1
            elif op == "t":
                # d* kills functions; (d*)^2 = 0 also when the inner d* stayed primitive
                if degree == 0 or applied and applied[-1] == "t":
                    break
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
        else:  # the word did not vanish
            inner = tuple(applied)
            if rules.killed(atom.name, inner):
                continue
            word = inner[::-1]
            if inner[:1] == ("d",):
                c = rules.duality.get(atom.name)
                if c is not None:  # d a -> c * (s a)
                    work.append((word[:-1] + ("s",), atom, coeff * c))
                    continue
                mu = rules.eigen.get(atom.name)
                if mu is not None and inner[:4] == ("d", "s", "d", "s"):
                    if atom.degree > 6:
                        raise InputError("eigenform relations are supported for degrees 0..6")
                    # (-1)^k (d s d s - s d s d) a = mu a, solved for s d s d a
                    # (innermost d); for a 0-form d s d s a = d(d* a) = 0.
                    work.append((word[:-4], atom, coeff * (1 if atom.degree % 2 else -1) * mu))
                    if atom.degree:
                        work.append((word[:-4] + ("d", "s", "d", "s"), atom, coeff))
                    continue
            key = (word, atom)
            out[key] = out[key] + coeff if key in out else coeff
    return LinkExpr(_word_degree(reversed(ops), expr.degree), out)


def apply_operator(expr: LinkExpr, op: str, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    """Apply d, s or t to an expression and normalize."""
    return _rewrite(expr, (op,), rules)


def normalize(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    """Re-normalize an expression under (possibly new) relations."""
    return _rewrite(expr, (), rules)


def d_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    return apply_operator(expr, "d", rules)


def star_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    return apply_operator(expr, "s", rules)


def dstar_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    return apply_operator(expr, "t", rules)


def laplacian_link(expr: LinkExpr, rules: Relations = EMPTY_RELATIONS) -> LinkExpr:
    """Delta = d t + t d, expanded into canonical words."""
    return d_link(dstar_link(expr, rules), rules) + dstar_link(d_link(expr, rules), rules)
