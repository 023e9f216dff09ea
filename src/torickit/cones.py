"""Strongly convex rational polyhedral cones, restricted to simplicial ones.

Smooth cones are simplicial, so simpliciality is enforced at construction
(INDEPENDENCE_VIOLATION otherwise); strong convexity is then automatic and
needs no separate check. All predicates are decided exactly over the
rationals. The common-face LP (`lattice._meet_only_in`) and the Z-basis
test (`lattice._extends_to_basis`) live in `lattice`, on plain vector
lists; the fan checks in `fans` call them there, so no fan check loads
this module.
"""

from __future__ import annotations

from ._record import record
from .errors import DimensionMismatchError, IndependenceViolationError
from .lattice import (
    IntegerMatrix,
    LatticeVector,
    _extends_to_basis,
    _fraction_free_rref,
    _meet_only_in,
    clear_denominators,
    primitivize,
    rational_nullspace,
    rational_rank,
    rational_solve,
)


@record
class SimplicialCone:
    """Cone spanned by rationally independent primitive lattice vectors.

    Generators are primitivized and sorted at construction so that equal
    cones compare equal. An empty generator list is the zero cone.
    """

    dim: int
    generators: tuple[LatticeVector, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.dim:
                raise DimensionMismatchError("generator dimension mismatch")
        if self.generators:
            if rational_rank(list(self.generators)) != len(self.generators):
                raise IndependenceViolationError(
                    "cone generators are linearly dependent"
                )

    @classmethod
    def from_generators(cls, dim: int, generators) -> "SimplicialCone":
        prim = sorted(primitivize(g) for g in generators)
        return cls(dim, tuple(prim))

    @classmethod
    def zero(cls, dim: int) -> "SimplicialCone":
        return cls(dim, ())

    @property
    def is_zero(self) -> bool:
        return not self.generators


def is_smooth_cone(cone: SimplicialCone) -> bool:
    """True iff the generators extend to a Z-basis of the ambient lattice;
    the zero cone is smooth."""
    return _extends_to_basis(cone.generators)


def cone_contains(cone: SimplicialCone, point) -> bool:
    """Exact membership test: is the point a nonnegative combination?

    Coefficients are unique by independence, so a single rational solve
    settles the question.
    """
    p = tuple(point)
    if len(p) != cone.dim:
        raise DimensionMismatchError("point dimension does not match the cone")
    if cone.is_zero:
        return all(e == 0 for e in p)
    rows = [[g[i] for g in cone.generators] for i in range(cone.dim)]
    kind, coeffs = rational_solve(rows, p)
    if kind != "unique":
        return False
    return all(c >= 0 for c in coeffs)


def halfspace_description(cone: SimplicialCone):
    """(equalities, inequalities) cutting out the cone, as integer rows.

    The cone is {x : e.x == 0 for all equalities, w.x >= 0 for all
    inequalities}. Equalities pin the linear span (empty for full-
    dimensional cones); inequalities are the coefficient functionals of
    the independent generators, the rows of M with (G^T G) M = G^T.
    """
    n = cone.dim
    gens = cone.generators
    s = len(gens)
    if s == 0:
        eye = IntegerMatrix.identity(n)
        return [eye.row(i) for i in range(n)], []

    equalities = [clear_denominators(v) for v in rational_nullspace(gens)]

    # One elimination of [G^T G | G^T] leaves last * [I | M]. The Gram
    # matrix is positive definite, so every pivot is a positive leading
    # minor: no row is swapped and last > 0 keeps each functional's sign.
    augmented = [
        [sum(x * y for x, y in zip(ga, gb)) for gb in gens] + list(ga) for ga in gens
    ]
    reduced = _fraction_free_rref(augmented)[0]
    inequalities = [clear_denominators(row[s:]) for row in reduced]
    return equalities, inequalities


def intersection_is_common_face(
    a: SimplicialCone, b: SimplicialCone, shared: SimplicialCone
) -> bool:
    """Whether `shared` is a face of both cones and a ∩ b == shared: false
    unless its generators generate both a and b, else one LP decides."""
    if not (a.dim == b.dim == shared.dim):
        raise DimensionMismatchError("cones live in different ambient spaces")
    common = set(shared.generators)
    if not common <= set(a.generators) & set(b.generators):
        return False
    return _meet_only_in(a.dim, a.generators, b.generators, common)
