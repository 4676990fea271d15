"""Command-line front end.

Subcommands: validate, intersect, gz, enumerate-fields.  Exit codes: 0 on
success (and verification success), 1 on a domain failure (invalid field,
failed cross-check, oracle mismatch), 2 on a usage error.

Every subcommand runs serially.  intersect and enumerate-fields still
accept and validate --jobs for existing callers, but it selects nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable, Sequence

from mpmath import mp

from . import __version__
from .gzmoduli import (
    MIN_PRECISION,
    GzParams,
    formal_sum_log,
    gz_total,
    singular_moduli_log,
)
from .intersect import IntersectionResult, _identity, intersection_total
from .quadcm import (
    CmFieldData,
    enumerate_fields,
    field_violations,
    validate_cm_field,
)

GZ_LOG_TOLERANCE = 1e-6


class _ArgumentParser(argparse.ArgumentParser):
    # Let values like "-13,1" (a negative coordinate pair) parse as arguments
    # rather than being mistaken for option flags.
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._negative_number_matcher = re.compile(r"^-\d+(?:,-?\d+)*$")


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    try:
        pair = (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return pair


def _delta_pair(text: str) -> tuple[int, int]:
    u, v = _int_pair(text)
    if (u - v) % 2:
        raise argparse.ArgumentTypeError(
            f"delta 'u,v' means (u + v*sqrt(D))/2 and needs u = v mod 2, got {text!r}"
        )
    return (u, v)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"repeated value {value} in {text!r}")
    return values


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _coeff_json(c: Fraction) -> dict[str, int]:
    return {"num": c.numerator, "den": c.denominator}


def _terms_json(result: IntersectionResult, b1: dict[int, int] | None) -> list[dict]:
    out = []
    for p, c in sorted(result.terms.items()):
        entry: dict[str, object] = {"p": p, "coeff": _coeff_json(c)}
        if b1 is not None:
            entry["b1"] = b1[p]
        out.append(entry)
    return out


def cmd_validate(args: argparse.Namespace) -> int:
    violations = field_violations(args.D, args.delta, args.w)
    if violations:
        if args.format == "json":
            _emit_json(
                {
                    "valid": False,
                    "violations": [
                        {"code": code, "message": msg} for code, msg in violations
                    ],
                }
            )
        else:
            print("invalid field input:")
            for code, msg in violations:
                print(f"  [{code}] {msg}")
        return 1
    cm = validate_cm_field(args.D, args.delta, args.w)
    if args.format == "json":
        _emit_json(
            {
                "valid": True,
                "D": cm.D,
                "Dtilde": cm.dtilde,
                "delta": {"u": cm.u, "v": cm.v},
                "w": {"w0": cm.w.x, "w1": cm.w.y},
            }
        )
    else:
        print(f"valid: {cm.describe()}")
    return 0


def cmd_intersect(args: argparse.Namespace) -> int:
    cm = validate_cm_field(args.D, args.delta, args.w)
    result = intersection_total(cm)
    b1: dict[int, int] | None = None
    verified: bool | None = None
    if args.verify:
        b1, verified = _identity(cm, result.terms)
    if args.format == "json":
        payload: dict[str, object] = {
            "D": cm.D,
            "Dtilde": cm.dtilde,
            "terms": _terms_json(result, b1),
        }
        if verified is not None:
            payload["verified"] = verified
        _emit_json(payload)
    else:
        print(f"field: {cm.describe()}")
        print(f"T1.CM(K) = {result.formal_sum()}")
        if verified is not None:
            for p in sorted(result.terms):
                print(
                    f"  p={p}: coefficient {result.terms[p]}, b1={b1[p]}, "
                    f"identity {'ok' if b1[p] == 2 * result.terms[p] else 'FAILED'}"
                )
            print(f"verified: {verified}")
    return 0 if verified in (None, True) else 1


def cmd_gz(args: argparse.Namespace) -> int:
    params = GzParams(args.d1, args.d2)
    result = gz_total(params)
    with mp.workdps(args.precision + 20):
        formula = formal_sum_log(result, args.precision)
        oracle = singular_moduli_log(params, args.precision)
        discrepancy = abs(formula - oracle)
        ok = discrepancy < GZ_LOG_TOLERANCE
        if args.format == "json":
            _emit_json(
                {
                    "d1": params.d1,
                    "d2": params.d2,
                    "terms": _terms_json(result, None),
                    "formula_log": float(formula),
                    "oracle_log": float(oracle),
                    "discrepancy": float(discrepancy),
                    "within_tolerance": ok,
                }
            )
        else:
            print(f"pair: d1={params.d1} d2={params.d2} (Dtilde={params.dtilde})")
            print(f"formula: {result.formal_sum()}")
            print(f"formula log value = {mp.nstr(formula, 20)}")
            print(f"oracle  log value = {mp.nstr(oracle, 20)}")
            print(f"|discrepancy| = {mp.nstr(discrepancy, 3)}")
            print(f"within tolerance ({GZ_LOG_TOLERANCE}): {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _enumerate_entry(cm: CmFieldData) -> dict[str, object]:
    result = intersection_total(cm)
    b1, verified = _identity(cm, result.terms)
    return {
        "D": cm.D,
        "Dtilde": cm.dtilde,
        "delta": {"u": cm.u, "v": cm.v},
        "w": {"w0": cm.w.x, "w1": cm.w.y},
        "terms": _terms_json(result, b1),
        "verified": verified,
        "_formal": result.formal_sum(),
    }


def cmd_enumerate(args: argparse.Namespace) -> int:
    fields: list[CmFieldData] = []
    for D in args.D:
        fields.extend(enumerate_fields(D, args.bound))
    entries = [_enumerate_entry(cm) for cm in fields]
    verified_count = sum(1 for e in entries if e["verified"])
    if args.format == "json":
        for e in entries:
            e.pop("_formal")
        _emit_json(
            {
                "fields": entries,
                "summary": {"count": len(entries), "verified": verified_count},
            }
        )
    else:
        for e in entries:
            delta = e["delta"]
            w = e["w"]
            print(
                f"D={e['D']} Dtilde={e['Dtilde']} "
                f"delta={delta['u']},{delta['v']} w={w['w0']},{w['w1']} "
                f"T1.CM(K) = {e['_formal']} "
                f"b1-verified={'yes' if e['verified'] else 'NO'}"
            )
        print(f"summary: {len(entries)} fields, {verified_count} verified")
    return 0 if verified_count == len(entries) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hilbertcm",
        description=(
            "Exact arithmetic intersection numbers on a Hilbert modular "
            "surface for quartic CM fields, with a Gross-Zagier mode"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--D", type=int, required=True, help="prime D = 1 mod 4")
        p.add_argument(
            "--delta",
            type=_delta_pair,
            required=True,
            metavar="u,v",
            help="delta = (u + v*sqrt(D))/2, totally negative",
        )
        p.add_argument(
            "--w",
            type=_int_pair,
            required=True,
            metavar="w0,w1",
            help="w = w0 + w1*(D + sqrt(D))/2 with w**2 = delta mod 4",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--jobs",
            type=_int_at_least(1),
            default=1,
            help="accepted for compatibility and checked to be at least 1; "
            "the computation always runs serially",
        )

    p_validate = sub.add_parser("validate", help="check the field conditions")
    add_field_args(p_validate)
    p_validate.add_argument("--format", choices=("text", "json"), default="text")
    p_validate.set_defaults(func=cmd_validate)

    p_intersect = sub.add_parser("intersect", help="compute the intersection number")
    add_field_args(p_intersect)
    add_common(p_intersect)
    p_intersect.add_argument(
        "--verify",
        action="store_true",
        help="cross-check b1(p) = 2 * (T1.CM(K))_p over all relevant primes",
    )
    p_intersect.set_defaults(func=cmd_intersect)

    p_gz = sub.add_parser("gz", help="degenerate case: singular moduli pair")
    p_gz.add_argument("--d1", type=int, required=True)
    p_gz.add_argument("--d2", type=int, required=True)
    p_gz.add_argument(
        "--precision", type=_int_at_least(MIN_PRECISION), default=100, help="oracle digits"
    )
    p_gz.add_argument("--format", choices=("text", "json"), default="text")
    p_gz.set_defaults(func=cmd_gz)

    p_enum = sub.add_parser(
        "enumerate-fields", help="list valid fields up to a norm bound, verified"
    )
    p_enum.add_argument(
        "--D", type=_int_list, required=True, metavar="D1[,D2,...]",
        help="comma-separated primes = 1 mod 4",
    )
    p_enum.add_argument("--bound", type=_int_at_least(0), required=True, help="max Norm(delta)")
    add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
