"""Exact models of based holomorphic maps S^2 -> X as polynomial data.

A map of degree D is a tuple of monic polynomials over Q(i), one per ray,
with no common root along any primitive collection. The base point
convention (infinity to the all-ones point) is encoded by monicity. The
equivalent model by root configurations, with exact evaluation and
scanning snapshots, lives in `configurations`, which no subcommand runs.

`cmd_holcheck` and `cmd_stabilize` compute the bodies of the `holcheck`
and `stabilize` subcommands from a valid fan (see `cli`).
"""

from __future__ import annotations

import operator

from . import document
from ._record import record
from .errors import (
    DegreeAboveCapError,
    DegreeMismatchError,
    DuplicatePointsError,
    NonKernelIncrementError,
)
from .fans import Fan, _one_based, primitive_collections
from .gaussian import (
    GaussianRational,
    Poly,
    gaussian,
    gaussian_to_pair,
    poly_degree,
    poly_from_roots,
    poly_is_monic,
    poly_mul,
    poly_multi_gcd,
)

# The largest polynomial degree that membership and stabilization accept.
# At this cap, on cp4 with a root shared by all five polynomials, `holcheck`
# takes about 0.4 s and `stabilize` about 0.6 s as fresh CLI processes
# (2 vCPU, CPython 3.11); a shared root too tall for one prime's
# reconstruction bound makes the gcd take three primes and `holcheck` 0.8 s.
# A degree-160 divisor of a degree-320 polynomial on cp1 takes `holcheck`
# about 7 s (2 vCPU, CPython 3.11.7), mostly exact trial division (ROADMAP
# item 5). A slower input lies within every cap: a 64-cone subfan of cp19 with
# 4,396 primitive collections and 20 polynomials of degree 320 was killed
# at 300 s (ROADMAP item 14).
MAX_DEGREE = 320


@record
class PolyTuple:
    """Tuple of monic polynomials, one per ray; degrees are their degrees."""

    polys: tuple[Poly, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        for p in self.polys:
            if not poly_is_monic(p):
                raise ValueError("every polynomial must be monic")
            if poly_degree(p) < 1:
                raise ValueError("every polynomial must have degree >= 1")
        if self.degrees != tuple(poly_degree(p) for p in self.polys):
            raise ValueError("degrees must be the degrees of the polynomials")

    @classmethod
    def from_polys(cls, polys) -> "PolyTuple":
        polys = tuple(tuple(p) for p in polys)
        return cls(polys, tuple(poly_degree(p) for p in polys))

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


@record
class StabilizationResult:
    poly_tuple: "PolyTuple"
    member: bool


def _check_length(count: int, fan: Fan, error):
    if count != fan.ray_count:
        raise error(f"expected {fan.ray_count} components, got {count}")


def _check_degrees(degrees, verb: str):
    for index, degree in enumerate(degrees, 1):
        if degree > MAX_DEGREE:
            raise DegreeAboveCapError(
                f"polynomial {index} {verb} degree {degree}, above the cap of {MAX_DEGREE}"
            )


def _violations(tup: PolyTuple, fan: Fan):
    """Primitive collections whose polynomials share a root, in sorted order."""
    _check_length(len(tup.polys), fan, DegreeMismatchError)
    _check_degrees(tup.degrees, "has")
    for collection in sorted(primitive_collections(fan), key=sorted):
        g = poly_multi_gcd(tup.polys[i] for i in sorted(collection))
        if poly_degree(g) != 0:
            yield collection


def is_member(tup: PolyTuple, fan: Fan) -> bool:
    """Membership condition: constant gcd along every primitive collection.

    Checking only primitive collections suffices because they are the
    minimal non-faces and the no-common-root condition is inherited by
    supersets. A polynomial above MAX_DEGREE raises DegreeAboveCapError.
    """
    return next(_violations(tup, fan), None) is None


def violating_collections(tup: PolyTuple, fan: Fan) -> tuple[frozenset, ...]:
    """All primitive collections whose polynomials share a root; a
    polynomial above MAX_DEGREE raises DegreeAboveCapError."""
    return tuple(_violations(tup, fan))


def default_stabilization_points(total_degree: int, count: int) -> tuple[GaussianRational, ...]:
    """Distinct real points just past the degree budget: N(D) + j/(r+1)."""
    return tuple(
        gaussian(total_degree) + gaussian(j) / gaussian(count + 1) for j in range(1, count + 1)
    )


def stabilize(tup: PolyTuple, increment, fan: Fan, points=None) -> StabilizationResult:
    """Raise degrees by adjoining roots at fresh points: f_i * (z - x_i)^a_i.

    The increment must be a positive integer relation among the rays. The
    homotopy class of the map does not depend on the chosen points, but a
    canonical real choice is fixed for reproducibility; callers may
    override. Membership of the result is re-verified rather than assumed,
    since roots of the input may lie beyond the region the configuration
    model guarantees. An increment that would take a polynomial above
    MAX_DEGREE raises DegreeAboveCapError before any product is formed.
    """
    _check_length(len(tup.polys), fan, DegreeMismatchError)
    increment = tuple(map(operator.index, increment))
    _check_length(len(increment), fan, NonKernelIncrementError)
    if any(e < 1 for e in increment):
        raise NonKernelIncrementError("increment entries must all be >= 1")
    if any(fan.generator_matrix().apply(increment)):
        raise NonKernelIncrementError("increment is not a kernel vector of the rays")
    _check_degrees((d + e for d, e in zip(tup.degrees, increment)), "would have")

    r = fan.ray_count
    if points is None:
        points = default_stabilization_points(tup.total_degree, r)
    else:
        points = tuple(points)
        if len(points) != r:
            raise DuplicatePointsError(f"expected {r} stabilization points")
        if len(set(points)) != r:
            raise DuplicatePointsError("stabilization points must be pairwise distinct")

    new_polys = tuple(
        poly_mul(tup.polys[i], poly_from_roots([(points[i], increment[i])]))
        for i in range(r)
    )
    result = PolyTuple.from_polys(new_polys)
    return StabilizationResult(result, is_member(result, fan))


def cmd_holcheck(fan, args) -> dict:
    tup = document.load_poly_tuple_file(args.tuple)
    violated = violating_collections(tup, fan)
    return {
        "member": not violated,
        "degrees": list(tup.degrees),
        "violated_collections": _one_based(violated),
    }


def cmd_stabilize(fan, args) -> dict:
    tup = document.load_poly_tuple_file(args.tuple)
    points = default_stabilization_points(tup.total_degree, fan.ray_count)
    result = stabilize(tup, args.increment, fan, points)
    return {
        "degrees_before": list(tup.degrees),
        "increment": list(args.increment),
        "degrees_after": list(result.poly_tuple.degrees),
        "member": result.member,
        "points": [gaussian_to_pair(p) for p in points],
        "polynomials": document.poly_tuple_to_obj(result.poly_tuple)["polynomials"],
    }
