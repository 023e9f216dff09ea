"""Fans stored as (generator table, maximal cones) pairs.

A fan is the pair of its ray generator list and the maximal index sets
that span cones; every face is a subset of some maximal cone and is never
listed. Validation and smoothness read the generators through the index
sets and pass plain vector lists to the LP and Z-basis tests of `cones`;
the combinatorial questions (non-faces, primitive collections, subfans)
are answered from the maximal cones alone.

Isomorphism first compares invariants under GL(n,Z) x S_r (dimension,
ray count, maximal-cone sizes, per-ray profiles of the sizes of the
cones through each ray, elementary divisors) and rejects on any
difference; only then does it search, mapping each frame ray only to the
rays of the same profile. Classification buckets the fans by these
invariants and searches within a bucket only.
"""

from __future__ import annotations

import itertools

from ._record import record
from .cones import _extends_to_basis, _meet_only_in, primitivize
from .errors import NoPrimitiveCollectionError
from .lattice import (
    IntegerMatrix,
    _fraction_free_rref,
    rational_rank,
    smith_normal_form,
)

Face = frozenset
Complex = frozenset


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
        gens = tuple(tuple(int(e) for e in g) for g in generators)
        dim = len(gens[0]) if gens else 0
        return cls(dim, gens, _maximal(frozenset(int(i) for i in face) for face in faces))

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


def _subsets(cone, smallest: int):
    """The subsets of a cone with at least `smallest` elements."""
    for size in range(smallest, len(cone) + 1):
        for sub in itertools.combinations(sorted(cone), size):
            yield frozenset(sub)


def validate_fan(fan: Fan) -> ValidationReport:
    """Check every fan axiom and report all violations with witnesses.

    Structural and complex-level axioms are checked first; the pairwise
    intersection axiom is only evaluated once those hold, since cones over
    dependent or out-of-range index sets are not well defined. A complex
    stored as its maximal cones is downward closed by construction.
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

    def independent(face):
        return rational_rank([fan.generators[i] for i in sorted(face)]) == len(face)

    # Subsets of independent generators are independent, so beyond the cones
    # only the faces of dependent cones that no independent cone contains
    # need a rank test of their own.
    spanning = {cone for cone in fan.cones if independent(cone)}
    dependent = fan.cones - spanning
    for face in {sub for cone in dependent for sub in _subsets(cone, 1)}:
        if any(face <= cone for cone in spanning):
            continue
        if face in dependent or not independent(face):
            violations.append(Violation("SIMPLICIALITY", (tuple(sorted(face)),)))
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
    return {face for face in _subsets(range(r), 1) if is_nonface(fan, face)}


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
    collections = primitive_collections(fan)
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
    is unspecified. For n >= 1 this is the pseudomanifold criterion: pure
    top dimension, every ridge in exactly two top cones, and a connected
    top-cone adjacency graph. The zero-dimensional fan is complete.
    """
    n = fan.dim
    if n == 0:
        return True
    maximal = fan.maximal_faces()
    if not maximal or any(len(face) != n for face in maximal):
        return False
    ridge_count: dict[Face, list[int]] = {}
    for idx, face in enumerate(maximal):
        for sub in itertools.combinations(sorted(face), n - 1):
            ridge_count.setdefault(frozenset(sub), []).append(idx)
    if any(len(owners) != 2 for owners in ridge_count.values()):
        return False
    adjacency = {i: set() for i in range(len(maximal))}
    for owners in ridge_count.values():
        a, b = owners
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(maximal)


def enumerate_subfans(fan: Fan) -> list[Fan]:
    """All proper subfans with the same rays.

    Subfans correspond to proper order ideals of the poset of non-singleton
    faces (downward-closed subfamilies containing every singleton); any
    such subfamily of a valid fan automatically satisfies the intersection
    axiom.
    """
    non_singleton = sorted(
        {face for cone in fan.cones for face in _subsets(cone, 2)},
        key=lambda f: (len(f), sorted(f)),
    )
    ideals: list[frozenset] = []

    def extend(pos: int, chosen: set):
        if pos == len(non_singleton):
            ideals.append(frozenset(chosen))
            return
        face = non_singleton[pos]
        extend(pos + 1, chosen)
        if all(sub in chosen for sub in _subsets(face, 2) if sub != face):
            chosen.add(face)
            extend(pos + 1, chosen)
            chosen.remove(face)

    extend(0, set())
    full = frozenset(non_singleton)
    rays = [frozenset({k}) for k in range(fan.ray_count)]
    # Every subfan has the same faces of size <= 1, so the ideal alone orders them.
    ideals = sorted(
        (ideal for ideal in ideals if ideal != full),
        key=lambda ideal: sorted((len(face), sorted(face)) for face in ideal),
    )
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


def _ray_profiles(fan: Fan) -> list[tuple[int, ...]]:
    """Per ray, the sorted sizes of the maximal cones that contain it."""
    sizes: list[list[int]] = [[] for _ in range(fan.ray_count)]
    for cone in fan.cones:
        for i in cone:
            sizes[i].append(len(cone))
    return [tuple(sorted(s)) for s in sizes]


def _invariants(fan: Fan, snf=None) -> tuple:
    """Invariants of a valid fan under GL(n,Z) acting on the lattice and
    S_r relabelling the rays: dimension, ray count, the sorted maximal-cone
    sizes, the sorted per-ray profiles and the elementary divisors of the
    generator matrix. `snf` is that matrix's Smith form, if already known.
    """
    if snf is None:
        snf = smith_normal_form(fan.generator_matrix())
    return (
        fan.dim,
        fan.ray_count,
        tuple(sorted(len(cone) for cone in fan.cones)),
        tuple(sorted(_ray_profiles(fan))),
        snf.elementary_divisors,
    )


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
    tuples.
    """
    snf_a = smith_normal_form(a.generator_matrix())
    snf_b = smith_normal_form(b.generator_matrix())
    if _invariants(a, snf_a) != _invariants(b, snf_b):
        return None
    return _isomorphism(a, snf_a, b, snf_b)


def _isomorphism(a: Fan, snf_a, b: Fan, snf_b):
    """The search of `fan_isomorphism` for two fans with equal invariants,
    given the Smith forms of their generator matrices."""
    r = a.ray_count
    if r == 0:
        return IntegerMatrix.identity(a.dim)

    rank = snf_a.rank
    # The rays span sublattices with equal elementary divisors in the
    # saturation coordinates below, and a unimodular map preserves them.
    # So an integral W that maps the rays of a bijectively onto those of
    # b carries one sublattice onto the other, and |det W| = 1 follows
    # and needs no test per candidate.

    # Coordinates of every generator on the saturation of its span: the
    # first `rank` entries of U g (the rest vanish because UGV = S).
    coords_a = [snf_a.U.apply(g)[:rank] for g in a.generators]
    coords_b = [snf_b.U.apply(g)[:rank] for g in b.generators]

    lookup = {}
    for idx, vec in enumerate(coords_b):
        if vec in lookup:
            return None
        lookup[vec] = idx

    # The first independent rays of a: the pivot columns of its coordinates.
    frame = _fraction_free_rref([[v[k] for v in coords_a] for k in range(rank)])[1]
    profiles_a, profiles_b = _ray_profiles(a), _ray_profiles(b)
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
        w = IntegerMatrix.from_rows([[x // last for x in row] for row in product])
        permutation = [lookup.get(w.apply(v)) for v in coords_a]
        if None in permutation or len(set(permutation)) != r:
            continue
        mapped = frozenset(frozenset(permutation[i] for i in cone) for cone in a.cones)
        if mapped == b.cones:
            n = a.dim
            block = [
                [
                    w.entries[i][j] if i < rank and j < rank else (1 if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            return _integer_inverse(snf_b.U) @ IntegerMatrix.from_rows(block) @ snf_a.U
    return None


def isomorphism_classes(fans: list[Fan]) -> list[list[int]]:
    """Group fans into GL(n,Z)-equivalence classes (lists of input indices,
    each in input order, the classes in order of their first member).

    Every fan must be valid (see `validate_fan`), as for `fan_isomorphism`.
    Fans are bucketed by their invariants, and each fan is compared only
    with the first members of the classes in its bucket; every fan's Smith
    form is computed once.
    """
    classes: list[list[int]] = []
    # Per invariant tuple: (first member's Smith form, class) pairs.
    buckets: dict[tuple, list[tuple]] = {}
    for idx, fan in enumerate(fans):
        snf = smith_normal_form(fan.generator_matrix())
        bucket = buckets.setdefault(_invariants(fan, snf), [])
        for first_snf, group in bucket:
            if _isomorphism(fans[group[0]], first_snf, fan, snf) is not None:
                group.append(idx)
                break
        else:
            bucket.append((snf, [idx]))
            classes.append(bucket[-1][1])
    return classes
