"""Stability dimensions and discriminant bookkeeping.

The headline number is the dimension through which the inclusion of the
space of based holomorphic maps into the double loop space is an
equivalence: (2*r_min - 3)*d_min - 2, a homotopy equivalence when
r_min >= 3 and a homology equivalence when r_min = 2.

`stable_range_replay` recomputes that number by a route independent of the
closed form: it replays the comparison argument over the truncated
spectral sequences, propagating the unknown index region page by page and
reading off the first diagonal the unknown region can touch.
"""

from __future__ import annotations

from ._record import record
from .cox import DegreeVector, cox_report, degree_of
from .errors import Condition1FailedError, Condition2FailedError, KOutOfRangeError
from .fans import Fan, r_min

KIND_HOMOTOPY = "HOMOTOPY"
KIND_HOMOLOGY = "HOMOLOGY"


@record
class StabilityReport:
    r_min: int
    d_min: int
    stability_dim: int
    kind: str
    connectivity: int
    vanishing_line: int
    oracle_dim: int


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
    sum(l_j) <= d_min + 1 caps the page count at O(sqrt(d_min)). The
    reachable (page, jump sum) pairs come from one subset sum over the
    lengths 1..d_min+1. The diagonal s - k grows with s, so each reachable
    column k contributes only its least admissible row s, which is read
    off directly: the replay costs O(d_min^2).

    The returned dimension is the largest diagonal untouched by every A_t
    (with the proof's one-dimension safety margin) combined with the
    column-vanishing clause for k >= d_min + 1; any divergence from the
    closed form would surface as a report mismatch, not get patched here.
    """
    if rmin < 2:
        raise ValueError("r_min must be at least 2")
    if dmin < 1:
        raise ValueError("d_min must be at least 1")

    threshold = (2 * rmin - 2) * dmin
    budget = dmin + 1
    reachable = {(0, 0)}
    for length in range(1, budget + 1):
        reachable |= {(t + 1, s + length) for t, s in reachable if s + length <= budget}

    page_minima = []
    t = 1
    while t * (t + 1) // 2 <= budget:
        # The least row of column k in A_t; t <= budget keeps it in the grid.
        diagonals = [
            max(0, threshold - (budget - k) + t) - k
            for k in range(budget + 1)
            if (t, budget - k) in reachable
        ]
        if diagonals:
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


def stable_range_replay(rmin: int, dmin: int) -> int:
    return replay(rmin, dmin).stable_dim


def require_standing_conditions(fan: Fan) -> None:
    """Raise the code of the first standing condition the fan fails.

    The span condition is checked before the positive-degree condition.
    """
    cox = cox_report(fan)
    if not cox.condition_span:
        raise Condition1FailedError("ray generators do not span the lattice over Z")
    if not cox.condition_positive_degree:
        raise Condition2FailedError("no strictly positive degree vector exists")


def stability_report(fan: Fan, degrees) -> StabilityReport:
    """All quantitative conclusions for one fan and degree vector.

    Requires the span and positive-degree conditions; fails with the code
    of whichever condition breaks.
    """
    require_standing_conditions(fan)
    rmin = r_min(fan)
    if not isinstance(degrees, DegreeVector):
        degrees = degree_of(fan, degrees)
    return report_from_invariants(rmin, degrees.minimum)


def report_from_invariants(rmin: int, dmin: int) -> StabilityReport:
    """The conclusions that r_min and d_min alone determine.

    Checks no standing condition; `stability_report` is the checked entry
    point.
    """
    return StabilityReport(
        r_min=rmin,
        d_min=dmin,
        stability_dim=(2 * rmin - 3) * dmin - 2,
        kind=KIND_HOMOTOPY if rmin >= 3 else KIND_HOMOLOGY,
        connectivity=2 * (rmin - 2),
        vanishing_line=(2 * rmin - 2) * dmin - 1,
        oracle_dim=stable_range_replay(rmin, dmin),
    )


def discriminant_dims(fan: Fan, degrees, k: int) -> DiscriminantDims:
    """Dimension bookkeeping for the k-th discriminant stratum.

    Valid for 1 <= k <= d_min, where the stratum fibers over configurations
    of k labelled coordinate-subspace hits as a real affine bundle.
    """
    if not isinstance(degrees, DegreeVector):
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
