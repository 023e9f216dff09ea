"""Stability dimensions and discriminant bookkeeping.

The headline number is the dimension through which the inclusion of the
space of based holomorphic maps into the double loop space is an
equivalence: (2*r_min - 3)*d_min - 2, a homotopy equivalence when
r_min >= 3 and a homology equivalence when r_min = 2.

`replay(r_min, d_min).stable_dim` recomputes that number by a route
independent of the closed form: it replays the comparison argument over
the truncated spectral sequences, propagating the unknown index region
page by page and reading off the first diagonal the unknown region can
touch. Which columns a page reaches comes from the lemma that t distinct
positive jump lengths sum to exactly the integers s >= t(t+1)/2, so the
replay costs O(d_min^1.5) integer operations; it refuses d_min above
MAX_D_MIN.

r_min, the size of the smallest primitive collection, and the non-faces
of a fan live here too, and `cmd_stability` computes the body of the
`stability` subcommand from a valid fan (see `cli`).
"""

from __future__ import annotations

import itertools

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

# The largest d_min that `replay` accepts; the replay takes about a second
# there (see its docstring).
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
    """Replay of the page-by-page comparison argument.

    The unknown region is seeded on the column just past d_min at and above
    the vanishing line; on page t it has propagated to the set A_t of
    positions (u, v) reachable along differentials, described by strictly
    increasing jump lengths l_1 < ... < l_t with u + sum(l_j) = d_min + 1
    and v + sum(l_j - 1) >= (2*r_min - 2)*d_min. A_t is read off literally
    from those inequalities inside the grid k in [0, d_min+1],
    s in [0, (2*r_min-2)*d_min + d_min + 4]; the jump-length budget
    sum(l_j) <= d_min + 1 caps the page count at O(sqrt(d_min)). Which
    columns a page reaches follows from one lemma: t strictly increasing
    positive lengths sum to exactly the integers s >= t(t+1)/2 (the
    lengths 1, ..., t-1 and s - t(t-1)/2 reach any such s), so column k is
    on page t iff k <= d_min + 1 - t(t+1)/2. The diagonal s - k grows with
    s, so each reachable column k contributes only its least admissible
    row s, which is read off directly. The scan costs O(d_min^1.5) integer
    operations (about 1 s at d_min = MAX_D_MIN on a 2 vCPU machine), and
    d_min above MAX_D_MIN raises DMinAboveCapError before any of it.

    The returned dimension is the largest diagonal untouched by every A_t
    (with the proof's one-dimension safety margin) combined with the
    column-vanishing clause for k >= d_min + 1; any divergence from the
    closed form would surface as a report mismatch, not get patched here.
    """
    if rmin < 2:
        raise ValueError("r_min must be at least 2")
    if dmin < 1:
        raise ValueError("d_min must be at least 1")
    if dmin > MAX_D_MIN:
        raise DMinAboveCapError(f"d_min {dmin} is above the cap of {MAX_D_MIN}")

    threshold = (2 * rmin - 2) * dmin
    budget = dmin + 1
    page_minima = []
    t = 1
    while t * (t + 1) // 2 <= budget:
        # The least row of column k in A_t; t <= budget keeps it in the grid.
        diagonals = [
            max(0, threshold - (budget - k) + t) - k
            for k in range(budget - t * (t + 1) // 2 + 1)
        ]
        page_minima.append((t, min(diagonals)))
        t += 1

    min_unknown = min(a for _, a in page_minima)
    region_dim = min_unknown - 2
    column_clause = threshold - 1 - (dmin + 1)
    return ReplayResult(
        stable_dim=min(region_dim, column_clause),
        min_unknown_diagonal=min_unknown,
        page_minima=tuple(page_minima),
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
    of k labelled coordinate-subspace hits as a real affine bundle.
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
