"""Moduli-space dimension bookkeeping for AC Spin(7)-structures.

The dimension formula consumed here is

    dim M_nu = dim (H^4_-)_{L2} + dim im Upsilon^4
               + sum of dim E(Sigma, phi, lambda) over critical
                 lambda in (-4, nu),

with E(Sigma, phi, lambda) the type-27 link 3-forms solving
d zeta = -(lambda+4) * zeta.  Link data (cohomology dimensions, E-space
contributions, known critical rates) is user-supplied: computing it
requires geometry beyond exact linear algebra, and the dimension formula
treats it as input.

The eigenvalue dictionary mu = (lambda+4)^2 - (2/3)(lambda+4) and its
inverse are exact; inverse values are exact whenever 1/9 + mu is q^2,
5 q^2, 581 q^2 or 2905 q^2 for rational q (which covers every value in
the homogeneous rigidity computation) and binary64 otherwise.  The
1-form rates of the cone share the same root rule, indicial_roots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import InputError
from .scalars import Scalar, sqrt_rational, strict_int

MU_LOWER_BOUND = Fraction(-1, 9)  # minimum of mu over lambda in (-4, 0)
_X_ARGMIN = Fraction(1, 3)  # where it is taken: lambda + 4 = 1/3


def mu_of_lambda(lam: Scalar | int | Fraction) -> Scalar:
    """mu = (lambda+4)^2 - (2/3)(lambda+4), exact."""
    x = Scalar.coerce(lam) + 4
    return x * x - x * Fraction(2, 3)


class Rate(NamedTuple):
    """A rate lambda, exact in the field when representable."""

    value: Scalar | None
    value_float: float

    @classmethod
    def of(cls, lam: Scalar | float) -> "Rate":
        return cls(None, lam) if isinstance(lam, float) else cls(lam, float(lam))

    @property
    def exact(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        return {
            "value": None if self.value is None else self.value.to_json(),
            "float": self.value_float,
            "exact": self.exact,
        }


def indicial_roots(shift: Fraction | int, disc: Scalar) -> tuple[Scalar | float, Scalar | float]:
    """The rates lambda with lambda + 4 = shift +- sqrt(disc), plus root first, for disc > 0.

    Each root is exact when sqrt(disc) lies in Q(sqrt5, sqrt581), else it is
    the binary64 value float(shift) +- float(disc) ** 0.5 - 4.0.
    """
    root = sqrt_rational(disc.as_fraction()) if disc.is_rational() else None
    if root is None:
        f, x = float(shift), float(disc) ** 0.5
        return f + x - 4.0, f - x - 4.0
    mid = shift - 4  # midway between the roots
    return mid + root, mid - root


def lambda_of_mu(mu: Scalar | int | Fraction) -> list[Rate]:
    """All rates lambda in (-4, 0) with mu_of_lambda(lambda) = mu.

    Roots are lambda = -11/3 +- sqrt(1/9 + mu), from indicial_roots.
    Raises for mu <= -1/9 (no real roots in range).
    """
    mu = Scalar.coerce(mu)
    if mu <= MU_LOWER_BOUND:
        raise InputError(f"mu = {mu} <= -1/9: no rates in range")
    roots = indicial_roots(_X_ARGMIN, mu - MU_LOWER_BOUND)
    return [Rate.of(lam) for lam in roots if -4 < lam < 0]


class Contribution(NamedTuple):
    """One critical rate with the dimension of its E-space."""

    rate: Scalar
    dim: int
    source: str = ""

    def to_json(self) -> dict:
        return {"lambda": self.rate.to_json(), "dim_E": self.dim, "source": self.source}


class _LinkDataFields(NamedTuple):
    name: str
    dim_h4_minus_l2: int
    dim_im_upsilon4: int
    contributions: tuple[Contribution, ...]
    critical_rates: tuple[Scalar, ...]


class LinkData(_LinkDataFields):
    """Per-link inputs of the dimension formula; contributions are kept sorted by rate."""

    __slots__ = ()

    def __new__(cls, name, dim_h4_minus_l2, dim_im_upsilon4, contributions, critical_rates=()) -> "LinkData":
        if dim_h4_minus_l2 < 0 or dim_im_upsilon4 < 0:
            raise InputError("cohomological dimensions must be nonnegative")
        seen: list[Scalar] = []
        for contribution in contributions:
            lam = contribution.rate
            if not -4 < lam < 0:
                raise InputError(f"contribution rate {lam} outside (-4, 0)")
            if contribution.dim < 0:
                raise InputError("dim E must be nonnegative")
            if any(lam == s for s in seen):
                raise InputError(f"duplicate contribution rate {lam}")
            seen.append(lam)
        ordered = tuple(sorted(contributions, key=lambda c: c.rate))
        return super().__new__(cls, name, dim_h4_minus_l2, dim_im_upsilon4, ordered, critical_rates)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim_h4_minus_L2": self.dim_h4_minus_l2,
            "dim_im_upsilon4": self.dim_im_upsilon4,
            "contributions": [c.to_json() for c in self.contributions],
            "critical_rates": [r.to_json() for r in self.critical_rates],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "LinkData":
        def scalar_of(x) -> Scalar:
            if isinstance(x, Mapping) and "value" in x:
                x = x["value"]
            return Scalar.from_json(x)

        try:
            contributions = tuple(
                Contribution(
                    rate=scalar_of(item["lambda"]),
                    dim=strict_int(item["dim_E"], "dim_E"),
                    source=str(item.get("source", "")),
                )
                for item in obj.get("contributions", [])
            )
            fields = dict(
                name=str(obj.get("name", "")),
                dim_h4_minus_l2=strict_int(obj["dim_h4_minus_L2"], "dim_h4_minus_L2"),
                dim_im_upsilon4=strict_int(obj["dim_im_upsilon4"], "dim_im_upsilon4"),
                critical_rates=tuple(
                    scalar_of(x) for x in obj.get("critical_rates", [])
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed link data: {exc}") from exc
        return cls(contributions=contributions, **fields)


class DimensionReport(NamedTuple):
    """dim M_nu with its breakdown."""

    nu: Scalar
    l2_part: int
    topological_part: int
    counted: tuple[Contribution, ...]
    total: int

    def to_json(self) -> dict:
        return {
            "nu": self.nu.to_json(),
            "breakdown": {
                "L2": self.l2_part,
                "topological": self.topological_part,
                "contributions": [c.to_json() for c in self.counted],
            },
            "total": self.total,
        }


def moduli_dimension(link: LinkData, nu: Scalar | int | Fraction) -> DimensionReport:
    """Evaluate the dimension formula at a generic rate nu in (-4, 0).

    nu must avoid the known critical rates (and nu+1 likewise), and must
    differ from every contribution rate: these are the genericity
    hypotheses of the formula.
    """
    nu = Scalar.coerce(nu)
    if not -4 < nu < 0:
        raise InputError(f"nu = {nu} outside (-4, 0)")
    for bad in link.critical_rates:
        if nu == bad:
            raise InputError(f"nu = {nu} is a critical rate of the link data")
        if nu + 1 == bad:
            raise InputError(f"nu + 1 = {nu + 1} is a critical rate")
    for contribution in link.contributions:
        if nu == contribution.rate:
            raise InputError(
                f"nu = {nu} equals a contribution rate (genericity fails)"
            )
    counted = tuple(c for c in link.contributions if c.rate < nu)
    total = link.dim_h4_minus_l2 + link.dim_im_upsilon4 + sum(c.dim for c in counted)
    return DimensionReport(
        nu=nu,
        l2_part=link.dim_h4_minus_l2,
        topological_part=link.dim_im_upsilon4,
        counted=counted,
        total=total,
    )


class ScalingCheck(NamedTuple):
    """Result of validating the scaling-deformation bookkeeping."""

    nu_metric: Scalar
    valid: bool
    reason: str


def scaling_contribution(
    link: LinkData, nu_metric: Scalar | int | Fraction
) -> ScalingCheck:
    """Check that the rescaling deformation appears in the link data.

    An AC Spin(7)-metric decaying exactly at rate nu_metric always
    induces the deformation 4 psi - L_V psi at that rate, so valid link
    data must carry a contribution (nu_metric, dim >= 1).
    """
    nu_metric = Scalar.coerce(nu_metric)
    if not -4 < nu_metric < 0:
        raise InputError(f"nu_metric = {nu_metric} outside (-4, 0)")
    for contribution in link.contributions:
        if contribution.rate == nu_metric:
            if contribution.dim >= 1:
                return ScalingCheck(nu_metric, True, "scaling deformation present")
            return ScalingCheck(
                nu_metric, False, f"contribution at {nu_metric} has dim_E = 0"
            )
    return ScalingCheck(
        nu_metric,
        False,
        f"no contribution at the metric decay rate {nu_metric} "
        "(the rescaling deformation is missing)",
    )

