"""Fans stored as (generator table, maximal cones) pairs.

A fan is the pair of its ray generator list and the maximal index sets
that span cones; every face is a subset of some maximal cone and is never
listed. Validation and smoothness read the generators through the index
sets and pass plain vector lists to the common-face LP of `lattice` and
the Z-basis test of `smith`, so no fan check loads the cone objects of
`cones`; primitive collections are answered from the maximal cones alone.
`_one_based` prints index sets for every subcommand body. Subfans and
isomorphism live in `census`, which only `subfans` runs, and non-faces
and r_min in `stability`.
"""

from __future__ import annotations

import collections
import itertools
import operator

from . import smith
from ._record import record
from .lattice import IntegerMatrix, _meet_only_in, primitivize, rational_rank

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


# How the subcommand bodies print index sets: 1-based, each sorted, in order.
def _one_based(faces) -> list[list[int]]:
    return sorted(sorted(i + 1 for i in face) for face in faces)


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


def is_smooth(fan: Fan) -> bool:
    """True iff every maximal cone is smooth (faces of smooth cones are).

    The fan must be valid (see `validate_fan`); the answer on an
    invalid fan is unspecified, and an out-of-range cone index may raise
    IndexError.
    """
    return all(
        smith._extends_to_basis([primitivize(fan.generators[i]) for i in cone])
        for cone in fan.cones
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


# `perfbench/tracing.py` still looks these three names up here. The
# forwarder goes once ROADMAP item 6 re-points `TRACED` at `census`.
def __getattr__(name: str):
    if name not in ("enumerate_subfans", "fan_isomorphism", "isomorphism_classes"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import census

    value = globals()[name] = getattr(census, name)
    return value
