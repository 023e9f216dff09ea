"""Exact models of based holomorphic maps S^2 -> X as polynomial data.

A map of degree D is a tuple of monic polynomials over Q(i), one per ray,
with no common root along any primitive collection; equivalently a tuple
of root configurations whose supports avoid common intersections. Both
models are implemented and kept interchangeable. The base point convention
(infinity to the all-ones point) is encoded by monicity.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import (
    DegreeMismatchError,
    DuplicatePointsError,
    NonKernelIncrementError,
    SizeMismatchError,
)
from .fans import Fan, primitive_collections
from .gaussian import (
    GaussianRational,
    Poly,
    gaussian,
    poly_degree,
    poly_eval,
    poly_from_roots,
    poly_is_monic,
    poly_mul,
    poly_multi_gcd,
)

PointMultiset = tuple[tuple[GaussianRational, int], ...]


def _point_key(point: GaussianRational):
    return (point.real, point.imag)


@record
class PolyTuple:
    """Tuple of monic polynomials, one per ray; degrees are their degrees."""

    polys: tuple[Poly, ...]
    degrees: tuple[int, ...]

    @classmethod
    def from_polys(cls, polys) -> "PolyTuple":
        polys = tuple(tuple(p) for p in polys)
        for p in polys:
            if not poly_is_monic(p):
                raise ValueError("every polynomial must be monic")
            if poly_degree(p) < 1:
                raise ValueError("every polynomial must have degree >= 1")
        return cls(polys, tuple(poly_degree(p) for p in polys))

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


@record
class Configuration:
    """Root multisets, one per ray; point keys within a slot are distinct."""

    slots: tuple[PointMultiset, ...]

    @classmethod
    def from_points(cls, groups) -> "Configuration":
        slots = []
        for group in groups:
            merged: dict = {}
            for item in group:
                if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int):
                    point, multiplicity = item
                else:
                    point, multiplicity = item, 1
                if multiplicity < 1:
                    raise ValueError("multiplicities must be >= 1")
                key = _point_key(point)
                merged[key] = (point, merged.get(key, (point, 0))[1] + multiplicity)
            slots.append(tuple(sorted(merged.values(), key=lambda pm: _point_key(pm[0]))))
        return cls(tuple(slots))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sum(m for _, m in slot) for slot in self.slots)

    def support(self, index: int) -> set:
        return {_point_key(p) for p, _ in self.slots[index]}


@record
class EvaluationResult:
    point: tuple[GaussianRational, ...]
    in_u_k: bool
    violated_collections: tuple[frozenset, ...]


@record
class StabilizationResult:
    poly_tuple: "PolyTuple"
    member: bool


def _check_length(count: int, fan: Fan, error):
    if count != fan.ray_count:
        raise error(f"expected {fan.ray_count} components, got {count}")


def _violations(tup: PolyTuple, fan: Fan):
    """Primitive collections whose polynomials share a root, in sorted order."""
    _check_length(len(tup.polys), fan, DegreeMismatchError)
    for collection in sorted(primitive_collections(fan), key=sorted):
        g = poly_multi_gcd(tup.polys[i] for i in sorted(collection))
        if poly_degree(g) != 0:
            yield collection


def is_member(tup: PolyTuple, fan: Fan) -> bool:
    """Membership condition: constant gcd along every primitive collection.

    Checking only primitive collections suffices because they are the
    minimal non-faces and the no-common-root condition is inherited by
    supersets.
    """
    return next(_violations(tup, fan), None) is None


def violating_collections(tup: PolyTuple, fan: Fan) -> tuple[frozenset, ...]:
    """All primitive collections whose polynomials share a root."""
    return tuple(_violations(tup, fan))


def config_is_member(config: Configuration, fan: Fan) -> bool:
    """Empty common support along every primitive collection."""
    _check_length(len(config.slots), fan, SizeMismatchError)
    for collection in primitive_collections(fan):
        indices = sorted(collection)
        common = config.support(indices[0])
        for i in indices[1:]:
            common &= config.support(i)
            if not common:
                break
        if common:
            return False
    return True


def config_to_polytuple(config: Configuration) -> PolyTuple:
    """Expand each slot into the monic polynomial with those roots."""
    return PolyTuple.from_polys(poly_from_roots(slot) for slot in config.slots)


def evaluate(tup: PolyTuple, fan: Fan, alpha: GaussianRational) -> EvaluationResult:
    """Exact evaluation and classification against every primitive collection."""
    _check_length(len(tup.polys), fan, DegreeMismatchError)
    values = tuple(poly_eval(p, alpha) for p in tup.polys)
    violated = tuple(
        frozenset(collection)
        for collection in sorted(primitive_collections(fan), key=sorted)
        if all(values[i].is_zero for i in collection)
    )
    return EvaluationResult(point=values, in_u_k=not violated, violated_collections=violated)


def default_stabilization_points(total_degree: int, count: int) -> tuple[GaussianRational, ...]:
    """Distinct real points just past the degree budget: N(D) + j/(r+1)."""
    return tuple(
        gaussian(Fraction(total_degree) + Fraction(j, count + 1)) for j in range(1, count + 1)
    )


def stabilize(tup: PolyTuple, increment, fan: Fan, points=None) -> StabilizationResult:
    """Raise degrees by adjoining roots at fresh points: f_i * (z - x_i)^a_i.

    The increment must be a positive integer relation among the rays. The
    homotopy class of the map does not depend on the chosen points, but a
    canonical real choice is fixed for reproducibility; callers may
    override. Membership of the result is re-verified rather than assumed,
    since roots of the input may lie beyond the region the configuration
    model guarantees.
    """
    _check_length(len(tup.polys), fan, DegreeMismatchError)
    increment = tuple(int(e) for e in increment)
    _check_length(len(increment), fan, NonKernelIncrementError)
    if any(e < 1 for e in increment):
        raise NonKernelIncrementError("increment entries must all be >= 1")
    if any(fan.generator_matrix().apply(increment)):
        raise NonKernelIncrementError("increment is not a kernel vector of the rays")

    r = fan.ray_count
    if points is None:
        points = default_stabilization_points(tup.total_degree, r)
    else:
        points = tuple(points)
        if len(points) != r:
            raise DuplicatePointsError(f"expected {r} stabilization points")
        if len({_point_key(p) for p in points}) != r:
            raise DuplicatePointsError("stabilization points must be pairwise distinct")

    new_polys = tuple(
        poly_mul(tup.polys[i], poly_from_roots([(points[i], increment[i])]))
        for i in range(r)
    )
    result = PolyTuple.from_polys(new_polys)
    return StabilizationResult(result, is_member(result, fan))


def scanning_snapshot(
    config: Configuration, center: GaussianRational, radius: Fraction
) -> Configuration:
    """Restrict a configuration to the open disk around `center`.

    Points at exact distance `radius` are discarded (boundary points are
    identified away), and survivors are recentered to (x - center)/radius.
    Distances are compared through exact squared moduli.
    """
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    bound = radius * radius
    scale = gaussian(radius)
    groups = []
    for slot in config.slots:
        kept = []
        for point, multiplicity in slot:
            if (point - center).abs_squared() < bound:
                kept.append(((point - center) / scale, multiplicity))
        groups.append(kept)
    return Configuration.from_points(groups)
