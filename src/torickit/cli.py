"""Command-line front end.

Subcommands: analyze, stability, holcheck, stabilize, subfans. Every
outcome prints one JSON object (deterministic: sorted keys, 2-space
indentation) and every number is exact. Exit codes are part of the
contract: 0 success, 1 document/parse error or malformed command line, 2 fan
validation failure, 3 computation error (condition or degree failures),
with the error code carried in the JSON body.

`main` runs every job the same way: parse the arguments, load the fan
(`document` refuses one above its size caps), validate it, run the
subcommand on a valid fan or build the violations body on an invalid one,
then print one JSON body stamped with `schema_version`, on success and on
every error. `analyze`, `stability` and `subfans` echo the document's `name`
(null when unnamed) in their success and violation bodies; `holcheck` and
`stabilize` do not. A closed stdout does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Modules that only some subcommands run are bound as (lazy) modules and
# read at call time, so a subcommand compiles and runs only what it uses.
from . import cox, gaussian, holmap, stability
from . import document as doc_module
from .errors import ToricKitError
from .fans import (
    enumerate_subfans,
    is_complete,
    is_smooth,
    isomorphism_classes,
    primitive_collections,
    validate_fan,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3


def _one_based(faces) -> list[list[int]]:
    return sorted(sorted(i + 1 for i in face) for face in faces)


def _invalid_fan_body(report) -> dict:
    return {
        "valid": False,
        "violations": [
            {
                "axiom": violation.axiom,
                "witness": [sorted(i + 1 for i in group) for group in violation.witness],
            }
            for violation in report.violations
        ],
    }


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


def cmd_analyze(fan, args) -> dict:
    collections = primitive_collections(fan)
    report = cox.cox_report(fan)
    return {
        "valid": True,
        "violations": [],
        "dimension": fan.dim,
        "ray_count": fan.ray_count,
        "smooth": is_smooth(fan),
        "complete": is_complete(fan),
        "primitive_collections": _one_based(collections),
        "r_min": min(len(c) for c in collections) if collections else None,
        "cox": {
            "free_rank": report.free_rank,
            "finite_part": list(report.finite_part),
            "condition_span": report.condition_span,
            "condition_positive_degree": report.condition_positive_degree,
            "witness_degree": list(report.witness_degree) if report.witness_degree else None,
            "pi2_rank": report.pi2_rank,
        },
    }


def cmd_stability(fan, args) -> dict:
    report = stability.stability_report(fan, args.free if args.degrees is None else args.degrees)
    article = "a homotopy" if report.kind == "HOMOTOPY" else "a homology"
    return {
        "degrees": list(report.degrees),
        "r_min": report.r_min,
        "d_min": report.d_min,
        "stability_dim": report.stability_dim,
        "kind": report.kind,
        "connectivity": report.connectivity,
        "vanishing_line": report.vanishing_line,
        "oracle_dim": report.oracle_dim,
        "primitive_collections": _one_based(report.primitive_collections),
        "sentence": (
            f"inclusion is {article} equivalence through dimension "
            f"{report.stability_dim}"
        ),
    }


def cmd_holcheck(fan, args) -> dict:
    tup = doc_module.load_poly_tuple_file(args.tuple)
    violated = holmap.violating_collections(tup, fan)
    return {
        "member": not violated,
        "degrees": list(tup.degrees),
        "violated_collections": _one_based(violated),
    }


def cmd_stabilize(fan, args) -> dict:
    tup = doc_module.load_poly_tuple_file(args.tuple)
    points = holmap.default_stabilization_points(tup.total_degree, fan.ray_count)
    result = holmap.stabilize(tup, args.increment, fan, points)
    return {
        "degrees_before": list(tup.degrees),
        "increment": list(args.increment),
        "degrees_after": list(result.poly_tuple.degrees),
        "member": result.member,
        "points": [gaussian.gaussian_to_pair(p) for p in points],
        "polynomials": doc_module.poly_tuple_to_obj(result.poly_tuple)["polynomials"],
    }


def cmd_subfans(fan, args) -> dict:
    subfans = enumerate_subfans(fan)
    # A subfan's cones are faces of the fan's cones, and faces of smooth
    # cones are smooth, so only a non-smooth fan needs a test per subfan.
    smooth = is_smooth(fan)
    body = {
        "count": len(subfans),
        "subfans": [
            {
                "maximal_cones": _one_based(sub.maximal_faces()),
                "smooth": smooth or is_smooth(sub),
                # Never complete: a proper subfan misses a maximal cone's interior.
                "complete": False,
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
    return body


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
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="validate a fan and report its invariants")
    p_analyze.add_argument("fan", help="path to a fan document")
    p_analyze.set_defaults(func=cmd_analyze, echo_name=True)

    p_stability = sub.add_parser(
        "stability", help="stability dimension of the holomorphic-map inclusion"
    )
    p_stability.add_argument("fan")
    group = p_stability.add_mutually_exclusive_group(required=True)
    group.add_argument("--degrees", type=_parse_degrees, help="full degree list d1,d2,...")
    group.add_argument(
        "--free", type=_parse_free, help="pinned coordinates i=d,... (1-based)"
    )
    p_stability.set_defaults(func=cmd_stability, echo_name=True)

    p_holcheck = sub.add_parser("holcheck", help="membership test for a polynomial tuple")
    p_holcheck.add_argument("fan")
    p_holcheck.add_argument("tuple", help="path to a polynomial tuple document")
    p_holcheck.set_defaults(func=cmd_holcheck, echo_name=False)

    p_stabilize = sub.add_parser("stabilize", help="apply the degree-raising stabilization")
    p_stabilize.add_argument("fan")
    p_stabilize.add_argument("tuple")
    p_stabilize.add_argument(
        "--increment", type=_parse_degrees, required=True, help="degree increment a1,a2,..."
    )
    p_stabilize.set_defaults(func=cmd_stabilize, echo_name=False)

    p_subfans = sub.add_parser("subfans", help="enumerate proper subfans on the same rays")
    p_subfans.add_argument("fan")
    p_subfans.add_argument(
        "--classify", action="store_true", help="group subfans into GL(n,Z) classes"
    )
    p_subfans.set_defaults(func=cmd_subfans, echo_name=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        fan, doc = doc_module.load_fan_file(args.fan)
        report = validate_fan(fan)
        if report.valid:
            body, code = args.func(fan, args), EXIT_OK
        else:
            body, code = _invalid_fan_body(report), EXIT_INVALID
        if args.echo_name:
            body["name"] = doc.name
    except argparse.ArgumentError as exc:
        body, code = {"error": "USAGE_ERROR", "message": str(exc)}, EXIT_PARSE
    except doc_module.DocumentError as exc:
        body, code = {"error": exc.code, "message": str(exc)}, EXIT_PARSE
    except ToricKitError as exc:
        body, code = {"error": exc.code, "message": str(exc)}, EXIT_COMPUTE
    except ValueError as exc:
        body, code = {"error": "VALUE_ERROR", "message": str(exc)}, EXIT_COMPUTE
    body["schema_version"] = 1
    try:
        print(json.dumps(body, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # The reader has gone. Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and keep the job's exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
