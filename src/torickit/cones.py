"""Strongly convex rational polyhedral cones, restricted to simplicial ones.

Smooth cones are simplicial, so simpliciality is enforced at construction
(INDEPENDENCE_VIOLATION otherwise); strong convexity is then automatic and
needs no separate check. All predicates are decided exactly over the
rationals. The common-face LP (`lattice._lex_min`) and the Z-basis test
are each stated once, on plain vector lists, and both the cone predicates
here and the fan checks in `fans` call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DimensionMismatchError, IndependenceViolationError, ZeroVectorError
from .lattice import (
    IntegerMatrix,
    _fraction_free_rref,
    _lex_min,
    clear_denominators,
    rational_nullspace,
    rational_rank,
    rational_solve,
    smith_normal_form,
)

LatticeVector = tuple[int, ...]


def primitivize(vector) -> LatticeVector:
    """Divide an integer vector by the gcd of its entries."""
    vec = tuple(int(e) for e in vector)
    if not any(vec):
        raise ZeroVectorError("zero vector has no primitive generator")
    g = gcd(*vec)
    return tuple(e // g for e in vec)


@dataclass(frozen=True)
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


def _extends_to_basis(vectors) -> bool:
    """Whether the vectors extend to a Z-basis of the lattice: the matrix
    with them as columns has one elementary divisor per column, all 1."""
    divisors = smith_normal_form(IntegerMatrix.from_columns(vectors)).elementary_divisors
    return len(divisors) == len(vectors) and all(d == 1 for d in divisors)


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


def _meet_only_in(dim: int, a_gens, b_gens, common) -> bool:
    """Whether the cones on independent vectors a_gens and b_gens meet only
    in the cone on `common`, a set of vectors listed in both. Coefficients
    are unique, so iff no common point has a positive coefficient off
    `common`: iff the LP alpha, beta >= 0, sum alpha_i u_i == sum beta_j v_j
    with the coefficients off `common` summing to 1 is infeasible. Its Farkas
    alternative is the separation lemma (Cox-Little-Schenck, Toric
    Varieties, §1.2). Positive scaling or reordering keeps the answer."""
    gens = [*a_gens, *b_gens]
    signs = [1] * len(a_gens) + [-1] * len(b_gens)
    rows = [[sign * g[i] for sign, g in zip(signs, gens)] for i in range(dim)]
    rows.append([int(g not in common) for g in gens])
    return _lex_min(rows, [0] * dim + [1], []) is None


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
