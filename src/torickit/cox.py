"""Cox homogeneous coordinate analysis: the quotient group and degree data.

The quotient group is reported through its character data (free rank plus
torsion divisors) rather than as a group object; that is all any downstream
computation needs.
"""

from __future__ import annotations

import operator

from . import lattice, smith
from ._record import record
from .errors import NonPositiveError, NotInKernelError
from .fans import Fan


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
    entries = lattice.complete_degrees(fan.generator_matrix(), dict(partial))
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
    witness = lattice.positive_kernel_vector(n_matrix)
    free_rank = fan.ray_count - rank
    return CoxGroupReport(
        free_rank=free_rank,
        finite_part=finite,
        condition_span=condition_span,
        condition_positive_degree=witness is not None,
        witness_degree=None if witness is None else DegreeVector(witness),
        pi2_rank=free_rank if condition_span else None,
    )
