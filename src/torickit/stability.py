"""Stability dimensions and discriminant bookkeeping.

The headline number is the dimension through which the inclusion of the
space of based holomorphic maps into the double loop space is an
equivalence: (2*r_min - 3)*d_min - 2, a homotopy equivalence when
r_min >= 3 and a homology equivalence when r_min = 2.

`replay(r_min, d_min)` replays the comparison argument over the truncated
spectral sequences: the unknown index region propagates page by page,
and the first diagonal it can touch bounds the stable range. Its page
minima are computed from their proof (see `replay`): every entry on page
t is (2*r_min - 3)*d_min - 1 + t whatever the column, so `stable_dim`
equals the closed form by algebra and the replay costs O(sqrt(d_min))
tuple entries. The routes that read the region off its inequalities,
and so could disagree with the closed form, are the oracles in
`tests/oracles.py`. The replay refuses d_min above MAX_D_MIN, which
bounds the page_minima tuple a `--degrees` vector can ask for.

r_min, the size of the smallest primitive collection, and the non-faces
of a fan live here too, and `cmd_stability` computes the body of the
`stability` subcommand from a valid fan (see `cli`).
"""

from __future__ import annotations

import itertools
from math import isqrt

from ._record import record
from .cox import DegreeVector, complete_degrees, cox_report, degree_of
from .errors import (
    Condition1FailedError,
    Condition2FailedError,
    DMinAboveCapError,
    KOutOfRangeError,
    NoPrimitiveCollectionError,
)
from .fans import Face, Fan, _one_based, primitive_collections

KIND_HOMOTOPY = "HOMOTOPY"
KIND_HOMOLOGY = "HOMOLOGY"

# The largest d_min that `replay` accepts. Its page_minima holds about
# sqrt(2*d_min) pairs, so the cap bounds the tuple that an uncapped d_min
# from `--degrees` would build.
MAX_D_MIN = 15_000


def is_nonface(fan: Fan, subset) -> bool:
    """Whether a nonempty index set lies in no cone of the fan."""
    subset = frozenset(subset)
    return bool(subset) and not any(subset <= cone for cone in fan.cones)


def nonface_family(fan: Fan) -> set[Face]:
    """The family I(K) of all non-faces, materialized.

    Materialization is capped at r <= 20 (2^r subsets); use `is_nonface`
    beyond that.
    """
    r = fan.ray_count
    if r > 20:
        raise ValueError("non-face family is only materialized for r <= 20")
    return {
        frozenset(sub)
        for size in range(1, r + 1)
        for sub in itertools.combinations(range(r), size)
        if is_nonface(fan, sub)
    }


def r_min(fan: Fan) -> int:
    return _r_min_of(primitive_collections(fan))


def _r_min_of(collections) -> int:
    """The size of the smallest primitive collection."""
    if not collections:
        raise NoPrimitiveCollectionError(
            "complex is a full simplex; no primitive collection exists"
        )
    return min(len(c) for c in collections)


@record
class StabilityReport:
    r_min: int
    d_min: int
    stability_dim: int
    kind: str
    connectivity: int
    vanishing_line: int
    oracle_dim: int
    degrees: DegreeVector
    primitive_collections: frozenset[frozenset[int]]


@record
class DiscriminantDims:
    dim_l: int
    dim_c_k: int
    bundle_rank_l: int
    n_d: int


@record
class ReplayResult:
    stable_dim: int
    min_unknown_diagonal: int
    page_minima: tuple[tuple[int, int], ...]


def replay(rmin: int, dmin: int) -> ReplayResult:
    """Replay of the page-by-page comparison argument, from its proof.

    The unknown region is seeded on the column just past d_min at and above
    the vanishing line; on page t it has propagated to the set A_t of
    positions (u, v) reachable along differentials, described by strictly
    increasing jump lengths l_1 < ... < l_t with u + sum(l_j) = d_min + 1
    and v + sum(l_j - 1) >= (2*r_min - 2)*d_min, inside the grid
    k in [0, d_min+1], s in [0, (2*r_min-2)*d_min + d_min + 4].

    Write threshold = (2*r_min - 2)*d_min and budget = d_min + 1. Which
    columns a page reaches follows from one lemma: t strictly increasing
    positive lengths sum to exactly the integers s >= t(t+1)/2 (the
    lengths 1, ..., t-1 and s - t(t-1)/2 reach any such s), so column k is
    on page t iff k <= budget - t(t+1)/2. The pages are therefore
    t = 1..T with T = (isqrt(8*budget + 1) - 1) // 2, the largest t with
    t(t+1)/2 <= budget, and column 0 is on each of them. The diagonal
    s - k grows with s, so column k contributes its least admissible row,
    max(0, threshold - (budget - k) + t), and the diagonal
    max(0, threshold - budget + k + t) - k. Since
    threshold - budget = (2*r_min - 3)*d_min - 1 >= 0 for r_min >= 2 and
    d_min >= 1, the argument of the max is at least k + t > 0, so the max
    never binds and every column of page t has the diagonal
    threshold - budget + t = (2*r_min - 3)*d_min - 1 + t. That is page t's
    minimum. The least of them, on page 1, is the first diagonal the
    region touches: min_unknown_diagonal = (2*r_min - 3)*d_min.

    The returned dimension is the largest diagonal untouched by every A_t
    (with the proof's one-dimension safety margin), min_unknown - 2,
    combined with the column-vanishing clause for k >= d_min + 1,
    threshold - 1 - budget; both equal (2*r_min - 3)*d_min - 2. The
    result costs O(sqrt(d_min)) tuple entries, and d_min above MAX_D_MIN
    raises DMinAboveCapError before any of it. `tests/oracles.py` keeps
    the scan over every reached column (`scan_replay`) and two slower
    routes to A_t; tier-1 compares them with this one.
    """
    if rmin < 2:
        raise ValueError("r_min must be at least 2")
    if dmin < 1:
        raise ValueError("d_min must be at least 1")
    if dmin > MAX_D_MIN:
        raise DMinAboveCapError(f"d_min {dmin} is above the cap of {MAX_D_MIN}")

    threshold = (2 * rmin - 2) * dmin
    budget = dmin + 1
    min_unknown = (2 * rmin - 3) * dmin
    pages = (isqrt(8 * budget + 1) - 1) // 2
    region_dim = min_unknown - 2
    column_clause = threshold - 1 - budget
    return ReplayResult(
        stable_dim=min(region_dim, column_clause),
        min_unknown_diagonal=min_unknown,
        page_minima=tuple((t, min_unknown - 1 + t) for t in range(1, pages + 1)),
    )


def stability_report(fan: Fan, degrees) -> StabilityReport:
    """All quantitative conclusions for one fan and degree vector.

    `degrees` is a full vector (a sequence or a DegreeVector), checked
    against the fan by `degree_of`, or a dict of 0-based pins, completed by
    `complete_degrees`. The span condition, then the positive-degree
    condition, is checked before the degrees are resolved, so a fan on
    which no degree vector can exist fails with that condition's code
    rather than a degree error.
    """
    cox = cox_report(fan)
    if not cox.condition_span:
        raise Condition1FailedError("ray generators do not span the lattice over Z")
    if not cox.condition_positive_degree:
        raise Condition2FailedError("no strictly positive degree vector exists")
    collections = primitive_collections(fan)
    rmin = _r_min_of(collections)
    if isinstance(degrees, dict):
        degrees = complete_degrees(fan, degrees)
    else:
        degrees = degree_of(fan, degrees)
    dmin = degrees.minimum
    return StabilityReport(
        r_min=rmin,
        d_min=dmin,
        stability_dim=(2 * rmin - 3) * dmin - 2,
        kind=KIND_HOMOTOPY if rmin >= 3 else KIND_HOMOLOGY,
        connectivity=2 * (rmin - 2),
        vanishing_line=(2 * rmin - 2) * dmin - 1,
        oracle_dim=replay(rmin, dmin).stable_dim,
        degrees=degrees,
        primitive_collections=collections,
    )


def discriminant_dims(fan: Fan, degrees, k: int) -> DiscriminantDims:
    """Dimension bookkeeping for the k-th discriminant stratum.

    Valid for 1 <= k <= d_min, where the stratum fibers over configurations
    of k labelled coordinate-subspace hits as a real affine bundle. Its real
    codimension in the 2*n_d-dimensional space of tuples is

        2*n_d - dim_c_k - bundle_rank_l
            = 2*n_d - 2*(1 + r - r_min)*k - (2*n_d - 2*r*k + k - 1)
            = (2*r_min - 3)*k + 1,

    where r is the ray count. At k = d_min this is
    `replay(r_min, d_min).min_unknown_diagonal + 1`.
    """
    degrees = degree_of(fan, degrees)
    rmin = r_min(fan)
    if not 1 <= k <= degrees.minimum:
        raise KOutOfRangeError(f"k must lie in [1, {degrees.minimum}], got {k}")
    r = fan.ray_count
    n_d = degrees.total
    return DiscriminantDims(
        dim_l=2 * (r - rmin),
        dim_c_k=2 * (1 + r - rmin) * k,
        bundle_rank_l=2 * n_d - 2 * r * k + k - 1,
        n_d=n_d,
    )


def cmd_stability(fan, args) -> dict:
    report = stability_report(fan, args.free if args.degrees is None else args.degrees)
    article = "a homotopy" if report.kind == KIND_HOMOTOPY else "a homology"
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
