"""Command-line front end.

Subcommands: analyze, stability, holcheck, stabilize, subfans. All output
is machine-readable JSON by default (deterministic: sorted keys, fixed
indentation) and every number is exact. Exit codes are part of the
contract: 0 success, 1 document/parse error or malformed command line, 2 fan
validation failure, 3 computation error (condition or degree failures),
with the error code carried in the JSON body.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import document as doc_module
from .cox import complete_degrees, cox_report, degree_of
from .errors import InvalidFanError, ToricKitError
from .fans import (
    Fan,
    enumerate_subfans,
    is_complete,
    is_smooth,
    isomorphism_classes,
    primitive_collections,
    r_min,
    validate_fan,
)
from .gaussian import gaussian_to_pair
from .holmap import default_stabilization_points, stabilize, violating_collections
from .stability import report_from_invariants, require_standing_conditions

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3

DEFAULT_MAX_R = 20


def _emit(obj: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
        return
    for key in sorted(obj):
        print(f"{key}: {json.dumps(obj[key], sort_keys=True)}")


def _error(code: str, message: str, output: str) -> None:
    _emit({"schema_version": 1, "error": code, "message": message}, output)


def _one_based(faces) -> list[list[int]]:
    return sorted(sorted(i + 1 for i in face) for face in faces)


def _max_r() -> int:
    raw = os.environ.get("TORICKIT_MAX_R")
    if raw is None:
        return DEFAULT_MAX_R
    try:
        return int(raw)
    except ValueError:
        raise doc_module.DocumentError(
            f"TORICKIT_MAX_R must be an integer, got {raw!r}"
        ) from None


def _load_fan(path: str):
    fan, doc = doc_module.load_fan_file(path)
    cap = _max_r()
    if fan.ray_count > cap:
        raise doc_module.DocumentError(
            f"fan has {fan.ray_count} rays, above the cap of {cap} (TORICKIT_MAX_R)"
        )
    return fan, doc


def _require_valid(fan, doc=None) -> None:
    """Raise InvalidFanError unless the fan is valid.

    Subcommands whose violation body echoes the document name pass `doc`.
    """
    report = validate_fan(fan)
    if not report.valid:
        raise InvalidFanError(report, doc)


def _invalid_fan_body(exc: InvalidFanError) -> dict:
    body = {
        "schema_version": 1,
        "valid": False,
        "violations": [
            {
                "axiom": violation.axiom,
                "witness": [sorted(i + 1 for i in group) for group in violation.witness],
            }
            for violation in exc.report.violations
        ],
    }
    if exc.doc is not None:
        body["name"] = exc.doc.name
    return body


def _parse_degrees(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list {raw!r}") from exc


def _parse_free(raw: str) -> dict:
    pins = {}
    try:
        for part in raw.split(","):
            index, value = part.split("=")
            key = int(index) - 1
            if key in pins:
                raise argparse.ArgumentTypeError(f"repeated pin index {key + 1} in {raw!r}")
            pins[key] = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad pin list {raw!r}") from exc
    return pins


def cmd_analyze(args) -> int:
    fan, doc = _load_fan(args.fan)
    _require_valid(fan, doc)

    collections = primitive_collections(fan)
    cox = cox_report(fan)
    _emit(
        {
            "schema_version": 1,
            "name": doc.name,
            "valid": True,
            "violations": [],
            "dimension": fan.dim,
            "ray_count": fan.ray_count,
            "smooth": is_smooth(fan),
            "complete": is_complete(fan),
            "primitive_collections": _one_based(collections),
            "r_min": min(len(c) for c in collections) if collections else None,
            "cox": {
                "free_rank": cox.free_rank,
                "finite_part": list(cox.finite_part),
                "condition_span": cox.condition_span,
                "condition_positive_degree": cox.condition_positive_degree,
                "witness_degree": list(cox.witness_degree) if cox.witness_degree else None,
                "pi2_rank": cox.pi2_rank,
            },
        },
        args.output,
    )
    return EXIT_OK


def cmd_stability(args) -> int:
    fan, doc = _load_fan(args.fan)
    _require_valid(fan, doc)

    # The two standing conditions are preconditions of the whole operation;
    # check them before degree resolution so their codes are not masked by
    # degree errors on fans where no degree vector can exist at all.
    require_standing_conditions(fan)

    if args.degrees is not None:
        degrees = degree_of(fan, args.degrees)
    else:
        for index in args.free:
            if not 0 <= index < fan.ray_count:
                raise ValueError(f"pin index {index + 1} out of range 1..{fan.ray_count}")
        low = [index + 1 for index, value in args.free.items() if value < 1]
        if low:
            raise ValueError(f"pinned value at index {low[0]} must be a positive integer")
        degrees = complete_degrees(fan, args.free)
    collections = primitive_collections(fan)
    # Never empty here: a strictly positive relation among the rays keeps
    # them out of any one simplicial cone.
    result = report_from_invariants(min(len(c) for c in collections), degrees.minimum)
    article = "a homotopy" if result.kind == "HOMOTOPY" else "a homology"
    _emit(
        {
            "schema_version": 1,
            "name": doc.name,
            "degrees": list(degrees),
            "r_min": result.r_min,
            "d_min": result.d_min,
            "stability_dim": result.stability_dim,
            "kind": result.kind,
            "connectivity": result.connectivity,
            "vanishing_line": result.vanishing_line,
            "oracle_dim": result.oracle_dim,
            "primitive_collections": _one_based(collections),
            "sentence": (
                f"inclusion is {article} equivalence through dimension "
                f"{result.stability_dim}"
            ),
        },
        args.output,
    )
    return EXIT_OK


def cmd_holcheck(args) -> int:
    fan, _ = _load_fan(args.fan)
    _require_valid(fan)
    tup = doc_module.load_poly_tuple_file(args.tuple)
    violated = violating_collections(tup, fan)
    _emit(
        {
            "schema_version": 1,
            "member": not violated,
            "degrees": list(tup.degrees),
            "violated_collections": _one_based(violated),
        },
        args.output,
    )
    return EXIT_OK


def cmd_stabilize(args) -> int:
    fan, _ = _load_fan(args.fan)
    _require_valid(fan)
    tup = doc_module.load_poly_tuple_file(args.tuple)
    points = default_stabilization_points(tup.total_degree, fan.ray_count)
    result = stabilize(tup, args.increment, fan, points)
    _emit(
        {
            "schema_version": 1,
            "degrees_before": list(tup.degrees),
            "increment": list(args.increment),
            "degrees_after": list(result.poly_tuple.degrees),
            "member": result.member,
            "points": [gaussian_to_pair(p) for p in points],
            "polynomials": doc_module.poly_tuple_to_obj(result.poly_tuple)["polynomials"],
        },
        args.output,
    )
    return EXIT_OK


def cmd_subfans(args) -> int:
    fan, doc = _load_fan(args.fan)
    _require_valid(fan, doc)

    subfans = enumerate_subfans(fan)
    body = {
        "schema_version": 1,
        "name": doc.name,
        "count": len(subfans),
        "subfans": [
            {
                "maximal_cones": _one_based(sub.maximal_faces()),
                "smooth": is_smooth(sub),
                "complete": is_complete(sub),
            }
            for sub in subfans
        ],
    }
    if args.classify:
        classes = isomorphism_classes(subfans)
        body["classes"] = {
            "count": len(classes),
            "members": [sorted(group) for group in classes],
            "collisions": [sorted(group) for group in classes if len(group) > 1],
        }
    _emit(body, args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ArgumentError instead of exiting 2, the code of a
    failed fan validation. Subparsers inherit this class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torickit",
        description="Exact computations on fans of smooth toric varieties.",
    )
    parser.add_argument(
        "--output", choices=["json", "text"], default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="validate a fan and report its invariants")
    p_analyze.add_argument("fan", help="path to a fan document")
    p_analyze.set_defaults(func=cmd_analyze)

    p_stability = sub.add_parser(
        "stability", help="stability dimension of the holomorphic-map inclusion"
    )
    p_stability.add_argument("fan")
    group = p_stability.add_mutually_exclusive_group(required=True)
    group.add_argument("--degrees", type=_parse_degrees, help="full degree list d1,d2,...")
    group.add_argument(
        "--free", type=_parse_free, help="pinned coordinates i=d,... (1-based)"
    )
    p_stability.set_defaults(func=cmd_stability)

    p_holcheck = sub.add_parser("holcheck", help="membership test for a polynomial tuple")
    p_holcheck.add_argument("fan")
    p_holcheck.add_argument("tuple", help="path to a polynomial tuple document")
    p_holcheck.set_defaults(func=cmd_holcheck)

    p_stabilize = sub.add_parser("stabilize", help="apply the degree-raising stabilization")
    p_stabilize.add_argument("fan")
    p_stabilize.add_argument("tuple")
    p_stabilize.add_argument(
        "--increment", type=_parse_degrees, required=True, help="degree increment a1,a2,..."
    )
    p_stabilize.set_defaults(func=cmd_stabilize)

    p_subfans = sub.add_parser("subfans", help="enumerate proper subfans on the same rays")
    p_subfans.add_argument("fan")
    p_subfans.add_argument(
        "--classify", action="store_true", help="group subfans into GL(n,Z) classes"
    )
    p_subfans.set_defaults(func=cmd_subfans)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        _error("USAGE_ERROR", str(exc), "json")  # --output may be unparsed
        return EXIT_PARSE
    except doc_module.DocumentError as exc:
        _error(exc.code, str(exc), args.output)
        return EXIT_PARSE
    except InvalidFanError as exc:
        _emit(_invalid_fan_body(exc), args.output)
        return EXIT_INVALID
    except ToricKitError as exc:
        _error(exc.code, str(exc), args.output)
        return EXIT_COMPUTE
    except ValueError as exc:
        _error("VALUE_ERROR", str(exc), args.output)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
