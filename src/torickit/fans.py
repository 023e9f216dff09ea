"""Fans stored as (generator table, maximal cones) pairs.

A fan is the pair of its ray generator list and the maximal index sets
that span cones; every face is a subset of some maximal cone and is never
listed. Validation and smoothness read the generators through the index
sets and pass plain vector lists to the common-face LP and the Z-basis
test of `lattice`, so no fan check loads the cone objects of `cones`; the
combinatorial questions (non-faces, primitive collections, subfans)
are answered from the maximal cones alone.

Isomorphism first compares invariants under GL(n,Z) x S_r (dimension,
ray count, maximal-cone sizes, per-ray profiles of the sizes of the
cones through each ray, elementary divisors) and rejects on any
difference; only then does it search, mapping each frame ray only to the
rays of the same profile. Classification buckets the fans by these
invariants and searches within a bucket only.
"""

from __future__ import annotations

import collections
import itertools
import operator

from ._record import record
from .errors import NoPrimitiveCollectionError, SubfanCountAboveCapError
from .lattice import (
    IntegerMatrix,
    _extends_to_basis,
    _fraction_free_rref,
    _meet_only_in,
    primitivize,
    rational_rank,
    smith_normal_form,
)

Face = frozenset
Complex = frozenset

# `subfans` prints every subfan, and their number is exponential in the
# number of faces: larger enumerations are refused.
MAX_SUBFANS = 20_000


def _maximal(family) -> Complex:
    """The inclusion-maximal nonempty members of a family of index sets,
    taken largest first, so each is compared only with those kept before."""
    maximal = []
    for f in sorted(set(family) - {frozenset()}, key=len, reverse=True):
        if not any(f < g for g in maximal):
            maximal.append(f)
    return frozenset(maximal)


@record
class Fan:
    """Generator table plus maximal cones (0-based index sets).

    `cones` holds nonempty, pairwise incomparable index sets; a face is
    any subset of one of them, the empty set included. Construction is
    deliberately permissive: `validate_fan` is the gatekeeper and reports
    every violated axiom instead of raising.
    """

    dim: int
    generators: tuple[tuple[int, ...], ...]
    cones: Complex

    @classmethod
    def create(cls, generators, faces) -> "Fan":
        """A fan whose faces are the given index sets and their subsets."""
        gens = tuple(tuple(map(operator.index, g)) for g in generators)
        dim = len(gens[0]) if gens else 0
        return cls(dim, gens, _maximal(frozenset(map(operator.index, face)) for face in faces))

    @classmethod
    def from_maximal(cls, generators, maximal_cones) -> "Fan":
        """A fan with the given maximal index sets plus every ray."""
        gens = tuple(generators)
        return cls.create(gens, [*maximal_cones, *((k,) for k in range(len(gens)))])

    @property
    def ray_count(self) -> int:
        return len(self.generators)

    def maximal_faces(self) -> list[Face]:
        return sorted(self.cones, key=lambda f: (len(f), sorted(f)))

    def generator_matrix(self) -> IntegerMatrix:
        """The n x r matrix whose columns are the ray generators."""
        return IntegerMatrix.from_columns(list(self.generators))


@record
class Violation:
    axiom: str
    witness: tuple[tuple[int, ...], ...]


@record
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def _sorted_report(valid: bool, violations) -> ValidationReport:
    # Canonical violation order keeps CLI output byte-stable across runs.
    ordered = tuple(sorted(violations, key=lambda v: (v.axiom, v.witness)))
    return ValidationReport(valid, ordered)


def validate_fan(fan: Fan) -> ValidationReport:
    """Check every fan axiom and report all violations with witnesses.

    Structural and complex-level axioms are checked first; the pairwise
    intersection axiom is only evaluated once those hold, since cones over
    dependent or out-of-range index sets are not well defined. A complex
    stored as its maximal cones is downward closed by construction.

    A SIMPLICIALITY witness is a maximal cone whose generators are linearly
    dependent; its dependent subsets are not listed separately.
    """
    violations = []
    r = fan.ray_count

    seen = {}
    for i, g in enumerate(fan.generators):
        if len(g) != fan.dim:
            violations.append(Violation("GENERATOR_DIMENSION", ((i,),)))
        if not any(g):
            violations.append(Violation("ZERO_GENERATOR", ((i,),)))
        if seen.setdefault(g, i) != i:
            violations.append(Violation("DISTINCT_GENERATORS", ((seen[g], i),)))

    for cone in fan.cones:
        if any(not 0 <= i < r for i in cone):
            violations.append(Violation("INDEX_RANGE", (tuple(sorted(cone)),)))
    if violations:
        return _sorted_report(False, violations)

    if not fan.cones:
        violations.append(Violation("NONTRIVIAL", ()))
    covered = set().union(*fan.cones)
    for k in range(r):
        if k not in covered:
            violations.append(Violation("RAY_COVERAGE", ((k,),)))

    # Subsets of independent generators are independent, so every cone is
    # simplicial iff every maximal cone is: one rank test per maximal cone.
    for cone in fan.cones:
        indices = tuple(sorted(cone))
        if rational_rank([fan.generators[i] for i in indices]) < len(indices):
            violations.append(Violation("SIMPLICIALITY", (indices,)))
    if violations:
        return _sorted_report(False, violations)

    # Generators are distinct and independent here: a & b indexes the common ones.
    gens = fan.generators
    for a, b in itertools.combinations(fan.maximal_faces(), 2):
        common = {gens[i] for i in a & b}
        if not _meet_only_in(fan.dim, [gens[i] for i in a], [gens[j] for j in b], common):
            violations.append(
                Violation("INTERSECTION", (tuple(sorted(a)), tuple(sorted(b))))
            )

    return _sorted_report(not violations, violations)


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


def primitive_collections(fan: Fan) -> frozenset[Face]:
    """Minimal non-faces of the complex (Batyrev's primitive collections).

    A set of rays is a non-face iff it meets the complement of every cone,
    so these are the minimal transversals of the complements, built one
    complement at a time (Berge): a transversal that misses it grows by
    each of its elements, and a grown set is kept unless it contains one
    that met it. Grown sets never contain one another.
    """
    rays = frozenset(range(fan.ray_count))
    # The minimal transversals of the complement of the empty face.
    transversals = [frozenset({k}) for k in rays]
    for cone in fan.maximal_faces():
        complement = rays - cone
        met = [t for t in transversals if t & complement]
        transversals = met + [
            grown
            for t in transversals
            if not t & complement
            for grown in (t | {k} for k in complement)
            if not any(m <= grown for m in met)
        ]
    return frozenset(transversals)


def r_min(fan: Fan) -> int:
    return _r_min_of(primitive_collections(fan))


def _r_min_of(collections) -> int:
    """The size of the smallest primitive collection."""
    if not collections:
        raise NoPrimitiveCollectionError(
            "complex is a full simplex; no primitive collection exists"
        )
    return min(len(c) for c in collections)


def is_smooth(fan: Fan) -> bool:
    """True iff every maximal cone is smooth (faces of smooth cones are).

    The fan must be valid (see `validate_fan`); the answer on an
    invalid fan is unspecified, and an out-of-range cone index may raise
    IndexError.
    """
    return all(
        _extends_to_basis([primitivize(fan.generators[i]) for i in cone]) for cone in fan.cones
    )


def is_complete(fan: Fan) -> bool:
    """Whether the support of the fan is all of R^n.

    The fan must be valid (see `validate_fan`); the answer on an invalid fan
    is unspecified. The zero-dimensional fan is complete. For n >= 1 it is
    enough that every maximal cone has n rays and every ridge (n - 1 rays of
    a maximal cone) lies in exactly two maximal cones: the facets the
    maximal cones cut on the unit sphere then sum to a mod-2 cycle, and as
    the facets of a valid fan do not overlap, a nonzero top-dimensional
    cycle on S^(n-1) covers all of it. For n = 1 this says two opposite
    rays.
    """
    n = fan.dim
    if n == 0:
        return True
    maximal = fan.maximal_faces()
    if not maximal or any(len(face) != n for face in maximal):
        return False
    ridges = collections.Counter(
        frozenset(sub) for face in maximal for sub in itertools.combinations(sorted(face), n - 1)
    )
    return all(count == 2 for count in ridges.values())


def enumerate_subfans(fan: Fan) -> list[Fan]:
    """All proper subfans with the same rays.

    Subfans correspond to proper order ideals of the poset of non-singleton
    faces (downward-closed subfamilies containing every singleton); any
    such subfamily of a valid fan automatically satisfies the intersection
    axiom. One pass over the faces, smallest first, adds each face to every
    ideal built so far that holds its facets; the faces of a size are listed
    only when that size is reached. Ideals are never dropped, so the count
    is checked after each face: a fan with more than MAX_SUBFANS proper
    subfans raises SubfanCountAboveCapError, one with 15 or more edges
    before any face larger than an edge is built.
    """
    ideals = [frozenset()]
    for size in range(2, max(map(len, fan.cones), default=0) + 1):
        faces = {
            frozenset(sub)
            for cone in fan.cones
            for sub in itertools.combinations(sorted(cone), size)
        }
        for face in faces:
            # An edge's facets are rays, which every subfan holds.
            facets = [face - {i} for i in face] if size > 2 else []
            ideals += [ideal | {face} for ideal in ideals if all(f in ideal for f in facets)]
            # The last ideal holds every face so far; in the end it is the
            # fan itself, which is not a proper subfan.
            if len(ideals) > MAX_SUBFANS + 1:
                raise SubfanCountAboveCapError(
                    f"fan has more proper subfans than the cap of {MAX_SUBFANS}"
                )
    ideals.pop()
    rays = [frozenset({k}) for k in range(fan.ray_count)]
    # Every subfan has the same faces of size <= 1, so the ideal alone orders them.
    ideals.sort(key=lambda ideal: sorted((len(face), sorted(face)) for face in ideal))
    return [Fan(fan.dim, fan.generators, _maximal([*ideal, *rays])) for ideal in ideals]


def _scaled_inverse(rows):
    """(last, last * A^-1) for a nonsingular square A, from one reduction
    of [A | I]."""
    n = len(rows)
    reduced, _, last, _ = _fraction_free_rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    return last, [row[n:] for row in reduced]


def _integer_inverse(m: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular matrix."""
    last, scaled = _scaled_inverse(m.entries)
    assert abs(last) == 1, "matrix is not unimodular"
    return IntegerMatrix.from_rows([[e * last for e in row] for row in scaled])


def _lattice_data(fan: Fan) -> tuple:
    """(invariants, U, coordinates, profiles) of a valid fan, from one Smith
    form U G V = S of its generator matrix G: the invariants and per-ray
    profiles of the module docstring, and each ray's coordinates on the
    saturation of the rays' span, the first rank(G) entries of U g (the
    rest vanish because UGV = S)."""
    snf = smith_normal_form(fan.generator_matrix())
    profiles = [
        tuple(sorted(len(cone) for cone in fan.cones if i in cone)) for i in range(fan.ray_count)
    ]
    invariants = (
        fan.dim,
        fan.ray_count,
        tuple(sorted(len(cone) for cone in fan.cones)),
        tuple(sorted(profiles)),
        snf.elementary_divisors,
    )
    coords = [snf.U.apply(g)[: snf.rank] for g in fan.generators]
    return invariants, snf.U, coords, profiles


def fan_isomorphism(a: Fan, b: Fan):
    """A unimodular matrix carrying fan a onto fan b, or None.

    Both fans must be valid (see `validate_fan`); the answer on an
    invalid fan is unspecified, and an out-of-range cone index may raise
    IndexError.

    Fans whose invariants differ are rejected at once. Otherwise the
    generator lattices are reduced to coordinates on the saturation of
    their spans (so rank-deficient fans are handled), and a frame of
    independent rays of a is matched, in lexicographic order, against every
    tuple of distinct rays of b with the same profiles; each candidate
    linear map is accepted iff it is integral, maps the ray set bijectively
    and carries the cones of a exactly onto the cones of b. An isomorphism
    preserves profiles, so the first match is the first over all ordered
    tuples. Only the accepted map, on the saturations, is lifted to an n x n
    matrix; `isomorphism_classes` lifts none.
    """
    data_a, data_b = _lattice_data(a), _lattice_data(b)
    if data_a[0] != data_b[0]:
        return None
    w = _isomorphism(a, data_a, b, data_b)
    if w is None:
        return None
    if a.ray_count == 0:
        return IntegerMatrix.identity(a.dim)
    # W acts on the first rank coordinates of U_a g and the identity on the rest.
    n, rank = a.dim, len(w)
    block = [row + [0] * (n - rank) for row in w]
    block += [[int(i == j) for j in range(n)] for i in range(rank, n)]
    return _integer_inverse(data_b[1]) @ IntegerMatrix.from_rows(block) @ data_a[1]


def _isomorphism(a: Fan, data_a, b: Fan, data_b):
    """The search of `fan_isomorphism` for two fans with equal invariants,
    given their `_lattice_data`: the rank x rank integer map W on the
    saturation coordinates, as a list of rows, or None."""
    r = a.ray_count
    (*_, divisors), _, coords_a, profiles_a = data_a
    _, _, coords_b, profiles_b = data_b
    rank = len(divisors)
    # The rays span sublattices with equal elementary divisors in the
    # saturation coordinates, and a unimodular map preserves them. So an
    # integral W that maps the rays of a bijectively onto those of b
    # carries one sublattice onto the other, and |det W| = 1 follows and
    # needs no test per candidate.
    lookup = {vec: idx for idx, vec in enumerate(coords_b)}

    # The first independent rays of a: the pivot columns of its coordinates.
    frame = _fraction_free_rref([[v[k] for v in coords_a] for k in range(rank)])[1]
    candidates = [[t for t in range(r) if profiles_b[t] == profiles_a[i]] for i in frame]

    # W F = T for the frame matrix F (columns coords_a[frame]) and each
    # target matrix T, so W = T (last F^-1) / last with F inverted once.
    last, scaled_inverse = _scaled_inverse(
        [[coords_a[i][k] for i in frame] for k in range(rank)]
    )
    for target in itertools.product(*candidates):
        if len(set(target)) != rank:
            continue
        product = [
            [
                sum(coords_b[t][k] * scaled_inverse[c][j] for c, t in enumerate(target))
                for j in range(rank)
            ]
            for k in range(rank)
        ]
        if any(x % last for row in product for x in row):
            continue
        w = [[x // last for x in row] for row in product]
        permutation = [
            lookup.get(tuple(sum(x * y for x, y in zip(row, v)) for row in w)) for v in coords_a
        ]
        if None in permutation or len(set(permutation)) != r:
            continue
        mapped = frozenset(frozenset(permutation[i] for i in cone) for cone in a.cones)
        if mapped == b.cones:
            return w
    return None


def isomorphism_classes(fans: list[Fan]) -> list[list[int]]:
    """Group fans into GL(n,Z)-equivalence classes (lists of input indices,
    each in input order, the classes in order of their first member).

    Every fan must be valid (see `validate_fan`), as for `fan_isomorphism`.
    Fans are bucketed by their invariants, and each fan is compared only
    with the first members of the classes in its bucket; every fan's Smith
    form is computed once, and no n x n matrix is built.
    """
    classes: list[list[int]] = []
    # Per invariant tuple: (first member's lattice data, class) pairs.
    buckets: dict[tuple, list[tuple]] = {}
    for idx, fan in enumerate(fans):
        data = _lattice_data(fan)
        bucket = buckets.setdefault(data[0], [])
        for first_data, group in bucket:
            if _isomorphism(fans[group[0]], first_data, fan, data) is not None:
                group.append(idx)
                break
        else:
            bucket.append((data, [idx]))
            classes.append(bucket[-1][1])
    return classes
