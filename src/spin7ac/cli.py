"""Command-line front end: one subcommand per library operation.

Output is deterministic JSON on stdout (sorted keys, canonical "p/q"
rationals); diagnostics go to stderr.  Exit codes: 0 success, 2 bad
arguments, 3 an InputError or an unreadable file, 4 an InternalCheckError.

Only ``pi-theta`` loads numpy: it imports ``pitheta`` inside its handler,
so the other subcommands, which are exact, start without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cones, homrep, moduli, projectors
from .errors import InputError, InternalCheckError
from .forms import Form, hodge_star, inner_product, monomial_basis, volume_form, wedge
from .scalars import Scalar


def _emit(payload: dict) -> None:
    # One write: json.dump into sys.stdout makes one write per token.
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if a key repeats (json would keep only the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise InputError("JSON object repeats a key")
    return obj


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise InputError("JSON input is nested too deeply") from exc
    except ValueError as exc:  # also an integer past the int-to-str digit limit
        raise InputError(str(exc)) from exc


# -- subcommand handlers ----------------------------------------------------


def _cmd_verify_algebra(args: argparse.Namespace) -> None:
    psi = projectors.psi0()
    checks = {
        "psi0_terms": len(psi.terms) == 14,
        "star_psi0_equals_psi0": hodge_star(psi) == psi,
        "psi0_wedge_psi0_is_14_vol": wedge(psi, psi) == volume_form(8).scale(14),
        "inner_psi0_psi0_is_14": inner_product(psi, psi) == Scalar(14),
        "star_squared_sign_law": all(
            hodge_star(hodge_star(Form.monomial(8, key)))
            == Form.monomial(8, key).scale(1 if k % 2 == 0 else -1)
            for k in range(9)
            for key in monomial_basis(8, k)
        ),
    }
    _emit({"checks": checks, "ok": all(checks.values())})
    if not all(checks.values()):
        raise InternalCheckError("algebra self-check failed")


def _ratio_json(x: int, denom: int) -> dict[str, str]:
    """``Scalar(Fraction(x, denom)).to_json()``, formatted from the integers."""
    g = math.gcd(x, denom)
    return {"1": f"{x // g}/{denom // g}"} if x else {}


def _cmd_projectors(args: argparse.Namespace) -> None:
    labels = {
        f"{degree}_{dim}": (degree, dim)
        for degree, dims in projectors.VALID_LABELS.items()
        for dim in dims
    }
    if args.export and args.export not in labels:
        raise InputError(f"no Spin(7) type {args.export!r}; expected one of {', '.join(labels)}")
    table = projectors.build_projectors()
    payload: dict = {"rank_table": table.rank_table(), "certified": True}
    if args.export:
        degree, dim = labels[args.export]
        denom = projectors.DENOMINATORS[degree]
        payload["projector"] = {
            "label": args.export,
            "basis": [",".join(map(str, key)) for key in monomial_basis(8, degree)],
            "matrix": [
                [_ratio_json(x, denom) for x in row] for row in table.projectors[(degree, dim)]
            ],
        }
    _emit(payload)


def _cmd_decompose(args: argparse.Namespace) -> None:
    form = Form.from_json(_read_json(args.form))
    _emit(projectors.decompose(form).to_json())


def _cmd_pi_theta(args: argparse.Namespace) -> None:
    from . import pitheta  # imported here so that only pi-theta pays for loading numpy

    form = Form.from_json(_read_json(args.form))
    tol = pitheta.DEFAULT_TOL if args.tol is None else args.tol
    result = pitheta.pi_theta(form, tol=tol)
    _emit(result.to_json())


def _cmd_cone_op(args: argparse.Namespace) -> None:
    payload = _read_json(args.form)
    gamma = cones.HomogeneousConeForm.from_json(payload)
    op = {
        "d": cones.cone_d,
        "star": cones.cone_star,
        "dstar": cones.cone_dstar,
        "laplacian": cones.cone_laplacian,
    }[args.op]
    _emit(op(gamma).to_json())


def _cmd_classify_rate(args: argparse.Namespace) -> None:
    result = cones.classify_rate(args.parity, Scalar(args.rate))
    _emit(result.to_json())


def _cmd_critical_rates(args: argparse.Namespace) -> None:
    eigenvalues = [Scalar(part) for part in args.eigenvalues.split(",") if part]
    rates = cones.one_form_critical_rates(eigenvalues)
    _emit(
        {
            "critical_rates": [r.to_json() for r in rates],
            "preconditions": cones.one_form_rate_notes(),
        }
    )


def _cmd_moduli_dim(args: argparse.Namespace) -> None:
    if args.link is None:
        link = homrep.bryant_salamon_link_data()
    else:
        link = moduli.LinkData.from_json(_read_json(args.link))
    report = moduli.moduli_dimension(link, Scalar(args.nu))
    _emit(report.to_json())


def _cmd_casimir(args: argparse.Namespace) -> None:
    label = homrep.IrrepLabel(args.k1, args.k2, args.l)
    _emit(
        {
            "label": [label.k1, label.k2, label.l],
            "casimir": homrep.casimir(label).to_json(),
        }
    )


def _cmd_enumerate(args: argparse.Namespace) -> None:
    records = homrep.enumerate_candidates(
        Scalar(args.lo),
        Scalar(args.hi),
        include_lo=args.include_lo,
        include_hi=not args.exclude_hi,
    )
    _emit({"records": homrep.records_json(records)})


def _cmd_bryant_salamon(args: argparse.Namespace) -> None:
    report = homrep.bryant_salamon_pipeline()
    if args.table:
        sys.stdout.write(report.table_text() + "\n")
    else:
        payload = report.to_json()
        payload["moduli_dimension_at_-1"] = report.dimensions["-1"]
        _emit(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin7ac",
        description="Exact Spin(7) deformation-theory computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="exact self-checks of the exterior algebra")
    p.set_defaults(handler=_cmd_verify_algebra)

    p = sub.add_parser("projectors", help="rank table of the type projectors")
    p.add_argument("--export", help="export one projector, e.g. 4_35")
    p.set_defaults(handler=_cmd_projectors)

    p = sub.add_parser("decompose", help="irreducible type decomposition of a form")
    p.add_argument("--form", required=True, help="path to Form JSON, or - for stdin")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("pi-theta", help="tangent/normal splitting of psi0 + eta")
    p.add_argument("--form", required=True, help="path to eta as Form JSON, or -")
    p.add_argument("--tol", type=float)
    p.set_defaults(handler=_cmd_pi_theta)

    p = sub.add_parser("cone-op", help="apply a cone operator to a homogeneous form")
    p.add_argument("--op", required=True, choices=("d", "star", "dstar", "laplacian"))
    p.add_argument("--form", required=True, help="path to cone-form JSON, or -")
    p.set_defaults(handler=_cmd_cone_op)

    p = sub.add_parser("classify-rate", help="vanishing recursion at a given rate")
    p.add_argument("--parity", required=True, choices=("even", "odd"))
    p.add_argument("--rate", required=True, help="rational rate, e.g. -4 or -10/3")
    p.set_defaults(handler=_cmd_classify_rate)

    p = sub.add_parser("critical-rates", help="1-form critical rates from scalar spectrum")
    p.add_argument(
        "--eigenvalues", required=True, help="comma-separated rationals, e.g. 7,135/16"
    )
    p.set_defaults(handler=_cmd_critical_rates)

    p = sub.add_parser("moduli-dim", help="moduli dimension formula")
    p.add_argument("--link", help="path to LinkData JSON (default: homrep.bryant_salamon_link_data())")
    p.add_argument("--nu", required=True, help="rational rate in (-4,0)")
    p.set_defaults(handler=_cmd_moduli_dim)

    p = sub.add_parser("casimir", help="Casimir eigenvalue of one label")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(handler=_cmd_casimir)

    p = sub.add_parser("enumerate", help="exhaustive Casimir-window enumeration")
    p.add_argument("--lo", required=True, help="lower bound (rational)")
    p.add_argument("--hi", default="0", help="upper bound (rational, default 0)")
    p.add_argument("--include-lo", action="store_true")
    p.add_argument("--exclude-hi", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("bryant-salamon", help="end-to-end rigidity computation")
    p.add_argument("--table", action="store_true", help="human-readable table output instead of JSON")
    p.set_defaults(handler=_cmd_bryant_salamon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover - only `python -m spin7ac.cli` runs it; tests call main()
    sys.exit(main())
