"""Subfans of a fan and their isomorphism classes: what `subfans` runs,
with `cmd_subfans`, which computes its body from a valid fan (see `cli`).

Isomorphism first compares invariants under GL(n,Z) x S_r (dimension,
ray count, maximal-cone sizes, per-ray profiles of the sizes of the
cones through each ray, elementary divisors) and rejects on any
difference; only then does it search, mapping each frame ray only to the
rays of the same profile. Classification buckets the fans by these
invariants and searches within a bucket only.
"""

from __future__ import annotations

import itertools

from .errors import SubfanCountAboveCapError
from .fans import Fan, _maximal, _one_based, is_smooth
from .lattice import IntegerMatrix, _fraction_free_rref
from .smith import smith_normal_form

# `subfans` prints every subfan, and their number is exponential in the
# number of faces: larger enumerations are refused.
MAX_SUBFANS = 20_000


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


def cmd_subfans(fan, args) -> dict:
    subfans = enumerate_subfans(fan)
    # A subfan's cones are faces of the fan's cones, and faces of smooth
    # cones are smooth, so only a non-smooth fan needs a test per subfan.
    smooth = is_smooth(fan)
    body = {
        "count": len(subfans),
        "subfans": [
            {
                "maximal_cones": _one_based(sub.maximal_faces()),
                "smooth": smooth or is_smooth(sub),
                # Never complete: a proper subfan misses a maximal cone's interior.
                "complete": False,
            }
            for sub in subfans
        ],
    }
    if args.classify:
        classes = isomorphism_classes(subfans)
        body["classes"] = {
            "count": len(classes),
            "members": [sorted(group) for group in classes],
            "collisions": [sorted(group) for group in classes if len(group) > 1],
        }
    return body
