"""Root configurations: the second model of based holomorphic maps.

A map of degree D is equally a tuple of root multisets, one per ray,
whose supports have no common point along any primitive collection; the
monic polynomials with those roots are the tuple of `holmap`, and
`config_to_polytuple` passes from one model to the other. Exact
evaluation of a polynomial tuple and the scanning snapshots of a
configuration live here too. No CLI subcommand runs this module.
"""

from __future__ import annotations

import operator

from ._record import record
from .errors import DegreeMismatchError, SizeMismatchError
from .fans import Fan, primitive_collections
from .gaussian import GaussianRational, gaussian, poly_eval, poly_from_roots
from .holmap import PolyTuple, _check_length

PointMultiset = tuple[tuple[GaussianRational, int], ...]


def _point_key(point: GaussianRational):
    return (point.real, point.imag)


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
                if isinstance(item, tuple) and len(item) == 2:
                    point, multiplicity = item[0], operator.index(item[1])
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


def scanning_snapshot(config: Configuration, center: GaussianRational, radius) -> Configuration:
    """Restrict a configuration to the open disk around `center`.

    Points at exact distance `radius` are discarded (boundary points are
    identified away), and survivors are recentered to (x - center)/radius.
    Distances are compared through exact squared moduli. The radius is a
    positive rational (an int or a `Fraction`).
    """
    from fractions import Fraction

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
