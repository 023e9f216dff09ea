import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerated_common_face
from torickit.cones import (
    SimplicialCone,
    cone_contains,
    halfspace_description,
    intersection_is_common_face,
    is_smooth_cone,
    primitivize,
)
from torickit.errors import (
    DimensionMismatchError,
    IndependenceViolationError,
    ZeroVectorError,
)
from torickit.lattice import rational_rank


def cone2(*gens):
    return SimplicialCone.from_generators(2, gens)


def cone3(*gens):
    return SimplicialCone.from_generators(3, gens)


class TestPrimitivize:
    def test_examples(self):
        assert primitivize((2, 4)) == (1, 2)
        assert primitivize((1, 0)) == (1, 0)
        assert primitivize((-3, 6, -9)) == (-1, 2, -3)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVectorError):
            primitivize((0, 0))


class TestConstruction:
    def test_dependent_generators_rejected(self):
        with pytest.raises(IndependenceViolationError):
            cone2((1, 0), (2, 0))

    def test_canonical_identity(self):
        assert cone2((0, 1), (1, 0)) == cone2((2, 0), (0, 3))

    def test_generator_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError, match="generator dimension mismatch"):
            SimplicialCone.from_generators(3, [(1, 0, 0), (0, 1)])


class TestSmoothCone:
    def test_standard_quadrant(self):
        assert is_smooth_cone(cone2((1, 0), (0, 1)))

    def test_index_two(self):
        assert not is_smooth_cone(cone2((1, 0), (1, 2)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_cone(self, k):
        assert is_smooth_cone(cone2((0, 1), (-1, k)))

    def test_zero_cone_and_single_rays(self):
        assert is_smooth_cone(SimplicialCone.zero(3))
        assert is_smooth_cone(cone3((1, 0, 0)))
        # A single non-primitive direction cannot extend to a basis, but
        # ray generators are primitivized at construction.
        assert is_smooth_cone(SimplicialCone.from_generators(2, [(2, 0)]))

    def test_smooth_iff_unit_determinant_dim2(self):
        rng = random.Random(9)
        for _ in range(100):
            g1 = (rng.randint(-4, 4), rng.randint(-4, 4))
            g2 = (rng.randint(-4, 4), rng.randint(-4, 4))
            det = g1[0] * g2[1] - g1[1] * g2[0]
            if det == 0 or not any(g1) or not any(g2):
                continue
            cone = cone2(primitivize(g1), primitivize(g2))
            p1, p2 = cone.generators
            prim_det = abs(p1[0] * p2[1] - p1[1] * p2[0])
            assert is_smooth_cone(cone) == (prim_det == 1)


class TestContains:
    def test_quadrant(self):
        q = cone2((1, 0), (0, 1))
        assert cone_contains(q, (Fraction(1, 2), Fraction(3)))
        assert not cone_contains(q, (-1, 0))

    def test_non_smooth_cone_interior(self):
        assert cone_contains(cone2((1, 0), (1, 2)), (1, 1))

    def test_zero_cone(self):
        z = SimplicialCone.zero(2)
        assert cone_contains(z, (0, 0))
        assert not cone_contains(z, (1, 0))

    def test_lower_dimensional(self):
        ray = cone3((1, 1, 0))
        assert cone_contains(ray, (3, 3, 0))
        assert not cone_contains(ray, (-1, -1, 0))
        assert not cone_contains(ray, (1, 1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cone_contains(cone2((1, 0)), (1, 0, 0))

    def test_against_coefficient_grid(self):
        rng = random.Random(31)
        grid = [Fraction(a, 2) for a in range(-4, 5)]
        for _ in range(25):
            g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            if g1[0] * g2[1] - g1[1] * g2[0] == 0 or not any(g1) or not any(g2):
                continue
            cone = cone2(g1, g2)
            u, v = cone.generators
            for lam, mu in itertools.product(grid, repeat=2):
                point = (lam * u[0] + mu * v[0], lam * u[1] + mu * v[1])
                # Coefficients are unique, so membership is exactly their sign.
                assert cone_contains(cone, point) == (lam >= 0 and mu >= 0)


class TestIntersection:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_adjacent_hirzebruch_cones(self, k):
        a = cone2((1, 0), (0, 1))
        b = cone2((0, 1), (-1, k))
        assert intersection_is_common_face(a, b, cone2((0, 1)))

    def test_overlapping_interiors(self):
        a = cone2((1, 0), (0, 1))
        b = cone2((1, 1), (1, -1))
        assert not intersection_is_common_face(a, b, SimplicialCone.zero(2))

    def test_equal_cones(self):
        a = cone2((1, 0), (0, 1))
        assert intersection_is_common_face(a, a, a)

    def test_rays_meeting_at_origin(self):
        a = cone2((1, 0))
        b = cone2((0, 1))
        assert intersection_is_common_face(a, b, SimplicialCone.zero(2))
        assert not intersection_is_common_face(a, b, a)

    def test_three_dimensional_shared_facet(self):
        a = cone3((1, 0, 0), (0, 1, 0), (0, 0, 1))
        b = cone3((1, 0, 0), (0, 1, 0), (0, 0, -1))
        shared = cone3((1, 0, 0), (0, 1, 0))
        assert intersection_is_common_face(a, b, shared)
        assert not intersection_is_common_face(a, b, cone3((1, 0, 0)))

    def test_cones_in_different_ambient_spaces_rejected(self):
        with pytest.raises(DimensionMismatchError, match="different ambient spaces"):
            intersection_is_common_face(cone2((1, 0)), cone3((1, 0, 0)), SimplicialCone.zero(2))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_cone_halfspaces_are_the_coordinate_equalities(self, dim):
        equalities, inequalities = halfspace_description(SimplicialCone.zero(dim))
        assert equalities == [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        assert inequalities == []

    def test_halfspace_description_cuts_out_cone(self):
        rng = random.Random(55)
        for dim in (2, 3):
            for _ in range(30):
                size = rng.randint(1, dim)
                gens = []
                while len(gens) < size:
                    cand = tuple(rng.randint(-3, 3) for _ in range(dim))
                    if not any(cand):
                        continue
                    try:
                        SimplicialCone.from_generators(dim, gens + [cand])
                    except IndependenceViolationError:
                        continue
                    gens.append(cand)
                cone = SimplicialCone.from_generators(dim, gens)
                equalities, inequalities = halfspace_description(cone)
                for _ in range(40):
                    point = tuple(
                        Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in range(dim)
                    )
                    by_system = all(
                        sum(w[i] * point[i] for i in range(dim)) == 0 for w in equalities
                    ) and all(
                        sum(w[i] * point[i] for i in range(dim)) >= 0
                        for w in inequalities
                    )
                    assert by_system == cone_contains(cone, point)

    def test_random_cone_pairs_against_sampling(self):
        # For random simplicial cone pairs with `shared` spanned by their
        # common generators: whenever the test accepts, sampled points of
        # a that lie in b must lie in shared, and all of shared must lie
        # in both. Also the verdict is symmetric in a and b.
        rng = random.Random(1234)
        accepted = rejected = 0
        for dim in (2, 3):
            for _ in range(35):
                pool = []
                while len(pool) < 4:
                    cand = tuple(rng.randint(-2, 2) for _ in range(dim))
                    if any(cand):
                        pool.append(primitivize(cand))
                def sample_cone():
                    size = rng.randint(1, dim)
                    picked = []
                    for v in rng.sample(pool, len(pool)):
                        try:
                            SimplicialCone.from_generators(dim, picked + [v])
                        except IndependenceViolationError:
                            continue
                        picked.append(v)
                        if len(picked) == size:
                            break
                    return SimplicialCone.from_generators(dim, picked)
                a, b = sample_cone(), sample_cone()
                common = set(a.generators) & set(b.generators)
                shared = SimplicialCone.from_generators(dim, sorted(common))
                verdict = intersection_is_common_face(a, b, shared)
                assert verdict == intersection_is_common_face(b, a, shared)
                if verdict:
                    accepted += 1
                    for coeffs in itertools.product(range(3), repeat=len(a.generators)):
                        point = tuple(
                            sum(c * g[i] for c, g in zip(coeffs, a.generators))
                            for i in range(dim)
                        )
                        if cone_contains(b, point):
                            assert cone_contains(shared, point)
                    for coeffs in itertools.product(range(3), repeat=max(1, len(shared.generators))):
                        gens = shared.generators or ((0,) * dim,)
                        point = tuple(
                            sum(c * g[i] for c, g in zip(coeffs, gens))
                            for i in range(dim)
                        )
                        assert cone_contains(a, point) and cone_contains(b, point)
                else:
                    rejected += 1
        assert accepted >= 10 and rejected >= 5

    def test_sampled_intersections_land_in_shared(self):
        # When the test accepts, every sampled point of both cones that lies
        # in the other cone must lie in the shared face, and conversely.
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            k = rng.randint(1, 3)
            a = cone2((1, 0), (0, 1))
            b = cone2((0, 1), (-1, k))
            shared = cone2((0, 1))
            assert intersection_is_common_face(a, b, shared)
            lam, mu = Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5))
            u, v = a.generators
            point = (lam * u[0] + mu * v[0], lam * u[1] + mu * v[1])
            if cone_contains(b, point):
                assert cone_contains(shared, point)
            w = shared.generators[0]
            scaled = (Fraction(rng.randint(0, 5)) * w[0], Fraction(rng.randint(0, 5)) * w[1])
            assert cone_contains(a, scaled) and cone_contains(b, scaled)
            checked += 1


def test_non_face_shared_is_rejected():
    # a ∩ b is the cone on (0,1) and (1,1) as a point set, but (1,1) is no
    # generator of a, so that cone is not a face of a.
    a = cone2((1, 0), (0, 1))
    b = cone2((1, 1), (-1, 1))
    assert not intersection_is_common_face(a, b, cone2((0, 1), (1, 1)))


# Fixed examples on every run, and no example database left behind.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def cone_triples(draw):
    """Nonzero simplicial cones a and b drawn from one pool of rays, up to
    dimension 4, and the cone on a subset of their common generators."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    pool = sorted({primitivize(v) for v in draw(st.lists(vector, min_size=1, max_size=dim + 2))})

    def cone():
        size = draw(st.integers(1, dim))
        picked = []
        for v in draw(st.permutations(pool)):
            if len(picked) < size and rational_rank(picked + [v]) == len(picked) + 1:
                picked.append(v)
        return SimplicialCone.from_generators(dim, picked)

    a, b = cone(), cone()
    common = sorted(set(a.generators) & set(b.generators))
    return a, b, SimplicialCone.from_generators(dim, [g for g in common if draw(st.booleans())])


@PROPERTY
@given(cone_triples())
def test_common_face_matches_extreme_ray_enumeration(triple):
    a, b, shared = triple
    assert intersection_is_common_face(a, b, shared) == enumerated_common_face(a, b, shared)
