"""Fans and Hypothesis strategies that property tests share: products of
cp_n, the isomorphism pool, GL(n,Z) x S_r actions on fans and root tuples
for `holcheck`."""

from hypothesis import strategies as st

from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan
from torickit.census import enumerate_subfans
from torickit.fans import Fan
from torickit.gaussian import gaussian, poly_from_roots
from torickit.holmap import PolyTuple


def product_fan(*ns: int) -> Fan:
    """cp_{n1} x cp_{n2} x ...: each factor's rays in their own block of
    coordinates, and every product of maximal cones."""
    factors = [cp_fan(n) for n in ns]
    dim = sum(f.dim for f in factors)
    gens, cones, offset = [], [()], 0
    for f in factors:
        base = len(gens)
        gens += [(0,) * offset + g + (0,) * (dim - offset - f.dim) for g in f.generators]
        cones = [c + tuple(base + i for i in sorted(m)) for c in cones for m in f.cones]
        offset += f.dim
    return Fan.from_maximal(gens, cones)


@st.composite
def unimodular_rows(draw, n):
    """An n x n unimodular matrix: the identity under a few row additions,
    sign flips and a row permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 6))):
            a, b = draw(st.permutations(range(n)))[:2]
            factor = draw(st.sampled_from([-2, -1, 1, 2]))
            u[a] = [x + factor * y for x, y in zip(u[a], u[b])]
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return [[signs[i] * x for x in u[order[i]]] for i in range(n)]


def acted_on(fan: Fan, u, perm) -> Fan:
    """The image of a fan under the matrix u, with ray i renamed perm[i]."""
    generators = [None] * fan.ray_count
    for i, g in enumerate(fan.generators):
        generators[perm[i]] = tuple(sum(x * y for x, y in zip(row, g)) for row in u)
    cones = frozenset(frozenset(perm[i] for i in cone) for cone in fan.cones)
    return Fan(fan.dim, tuple(generators), cones)


# Six bases, each followed by its subfans; the subfans share their base's
# generator table.
ISOMORPHISM_FAMILIES = [
    [base] + enumerate_subfans(base)
    for base in [hirzebruch_fan(1), hirzebruch_fan(3), cp_fan(2), cp_fan(3), c2_fan(), product_fan(1, 1)]
]
ISOMORPHISM_POOL = [fan for family in ISOMORPHISM_FAMILIES for fan in family]

# A base first, then the base or one of its subfans, so that the draws are
# shared among the bases, not the fans: 113 of the pool's 170 fans are cp3
# and its subfans.
pool_fans = st.sampled_from(ISOMORPHISM_FAMILIES).flatmap(st.sampled_from)


GAUSSIAN_INTEGERS = st.builds(gaussian, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def shared_root_tuples(draw, ray_count):
    """One monic polynomial per ray: each has a root of its own, and the
    polynomials of a drawn set of rays share one more root."""
    shared = draw(GAUSSIAN_INTEGERS)
    holders = draw(st.sets(st.integers(0, ray_count - 1)))
    return PolyTuple.from_polys(
        poly_from_roots([(draw(GAUSSIAN_INTEGERS), 1)] + [(shared, 1)] * (i in holders))
        for i in range(ray_count)
    )
