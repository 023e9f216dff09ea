"""Cox homogeneous coordinate analysis: the quotient group and degree data.

The quotient group is reported through its character data (free rank plus
torsion divisors) rather than as a group object; that is all any downstream
computation needs.

The two kernel computations on the generator matrix N live here, in
integers: `positive_kernel_vector` (one `lattice._lex_min` call) for the
positive-degree condition, and `_complete_degrees`, which reads degree
completion off one scaled RREF of N x = 0 with the pins and is what
`complete_degrees` runs on a fan. `cmd_analyze` computes the body of the
`analyze` subcommand from a valid fan (see `cli`).
"""

from __future__ import annotations

import operator
from math import gcd

from . import smith
from ._record import record
from .errors import (
    InconsistentError,
    NonIntegralError,
    NonPositiveError,
    NotInKernelError,
    UnderdeterminedError,
)
from .fans import Fan, _one_based, is_complete, is_smooth, primitive_collections
from .lattice import IntegerMatrix, _fraction_free_rref, _lex_min, rational_rank


@record
class DegreeVector:
    """Positive integer r-tuple grading based holomorphic maps.

    Valid instances come from `degree_of` or `complete_degrees`, which also
    enforce the kernel relation sum(d_k * n_k) = 0 against a fan.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(not isinstance(e, int) or e < 1 for e in self.entries):
            raise NonPositiveError("degree entries must be integers >= 1")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]

    @property
    def minimum(self) -> int:
        return min(self.entries)

    @property
    def total(self) -> int:
        """N(D), the sum of the entries."""
        return sum(self.entries)


@record
class CoxGroupReport:
    """Character data of the Cox quotient group plus the two standing conditions."""

    free_rank: int
    finite_part: tuple[int, ...]
    condition_span: bool
    condition_positive_degree: bool
    witness_degree: DegreeVector | None
    pi2_rank: int | None


def positive_kernel_vector(n_matrix: IntegerMatrix):
    """Some integer vector D with N D = 0 and every entry >= 1, or None.

    The witness is the point of {x : N x = 0, x >= 1} of minimal entry sum,
    ties broken lexicographically, with denominators cleared (which keeps
    both constraints). The set contains no line and x >= 1 bounds the sum
    below, so its minimal-sum face is a polytope whose lexicographic
    minimum is a vertex: one `_lex_min` call in y = x - 1 finds it.
    """
    r = n_matrix.cols
    objectives = [[1] * r] + [[int(i == j) for j in range(r)] for i in range(r)]
    vertex = _lex_min(n_matrix.entries, [-sum(row) for row in n_matrix.entries], objectives)
    if vertex is None:
        return None
    # x = 1 + y = (den + y_num) / den; dividing the numerators by their gcd
    # with den is the same as clearing the reduced denominators.
    y_num, den = vertex
    x_num = [den + yk for yk in y_num]
    g = gcd(den, *x_num)
    return tuple(xk // g for xk in x_num)


def _complete_degrees(n_matrix: IntegerMatrix, partial: dict) -> tuple[int, ...]:
    """Unique positive integer kernel vector extending a partial assignment.

    Raises UNDERDETERMINED if the pinned coordinates leave more than one
    rational kernel extension, INCONSISTENT if they leave none, and
    NON_INTEGRAL / NON_POSITIVE when the unique extension fails those
    checks. Pins are 0-based; every pin index must be an integer (else
    TypeError) and is checked against the range before any value, and the
    ValueError for a bad pin numbers it from 1, as fan documents and the
    CLI number rays.
    """
    r = n_matrix.cols
    for idx in partial:
        if not 0 <= operator.index(idx) < r:
            raise ValueError(f"pin index {idx + 1} out of range 1..{r}")
    for idx, value in partial.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"pinned value at index {idx + 1} must be a positive integer")

    # [N | 0] plus one row [e_i | d_i] per pin; a zero row keeps the column
    # count when N has no rows and nothing is pinned. In the scaled RREF a
    # pivot in the last column means no solution, fewer than r pivots more
    # than one, and r pivots the unique x_k = m[k][r] / last.
    rows = [[*row, 0] for row in n_matrix.entries]
    rows += [[int(k == i) for k in range(r)] + [partial[i]] for i in sorted(partial)]
    m, pivots, last, _ = _fraction_free_rref(rows or [[0] * (r + 1)])
    if pivots and pivots[-1] == r:
        raise InconsistentError("pinned values admit no kernel extension")
    if len(pivots) < r:
        kernel_rank = r - rational_rank(n_matrix.entries)
        raise UnderdeterminedError(
            f"kernel rank {kernel_rank} exceeds what {len(partial)} pinned coordinates determine"
        )
    if any(row[r] % last for row in m[:r]):
        raise NonIntegralError("unique kernel extension is not integral")
    x = tuple(row[r] // last for row in m[:r])
    if any(xk < 1 for xk in x):
        raise NonPositiveError("unique kernel extension has an entry below 1")
    return x


def degree_of(fan: Fan, entries) -> DegreeVector:
    """Validate a candidate degree vector against the fan's generator matrix."""
    entries = tuple(map(operator.index, entries))
    if len(entries) != fan.ray_count:
        raise NotInKernelError(
            f"expected {fan.ray_count} degree entries, got {len(entries)}"
        )
    if any(e < 1 for e in entries):
        raise NonPositiveError("degree entries must all be >= 1")
    image = fan.generator_matrix().apply(entries)
    if any(image):
        raise NotInKernelError("degrees do not satisfy sum(d_k * n_k) = 0")
    return DegreeVector(entries)


def complete_degrees(fan: Fan, partial: dict) -> DegreeVector:
    """Unique positive integral kernel extension of a partial assignment."""
    entries = _complete_degrees(fan.generator_matrix(), dict(partial))
    return DegreeVector(entries)


def cox_report(fan: Fan) -> CoxGroupReport:
    """Elementary-divisor analysis of the generator matrix.

    condition_span is the generators-span-the-lattice condition; the
    positive-degree condition holds iff some strictly positive integer
    relation exists. pi2_rank is only meaningful under condition_span and
    is reported as None otherwise.
    """
    n_matrix = fan.generator_matrix()
    divisors = smith._elementary_divisors(n_matrix)
    rank = len(divisors)
    finite = tuple(d for d in divisors if d > 1)
    condition_span = rank == fan.dim and not finite
    witness = positive_kernel_vector(n_matrix)
    free_rank = fan.ray_count - rank
    return CoxGroupReport(
        free_rank=free_rank,
        finite_part=finite,
        condition_span=condition_span,
        condition_positive_degree=witness is not None,
        witness_degree=None if witness is None else DegreeVector(witness),
        pi2_rank=free_rank if condition_span else None,
    )


def cmd_analyze(fan, args) -> dict:
    collections = primitive_collections(fan)
    report = cox_report(fan)
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
