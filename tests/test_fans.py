import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torickit.cones
import torickit.fans
from oracles import (
    _angular_order,
    angular_is_complete,
    brute_force_maximal_faces,
    closure,
    cone_object_intersection_violations,
    cone_object_is_smooth,
    face_lattice_primitive_collections,
    face_lattice_simpliciality,
    is_unimodular,
    pairwise_isomorphism_classes,
    permutation_search_isomorphism,
    pseudomanifold_is_complete,
    recursive_subfans,
)
from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan, load_catalog
from torickit.cox import cox_report
from torickit.errors import NoPrimitiveCollectionError, SubfanCountAboveCapError
from torickit.census import _lattice_data, enumerate_subfans, fan_isomorphism, isomorphism_classes
from torickit.fans import Fan, is_complete, is_smooth, primitive_collections, validate_fan
from torickit.lattice import primitivize
from torickit.stability import is_nonface, nonface_family, r_min


def violation_axioms(fan):
    return {v.axiom for v in validate_fan(fan).violations}


class TestValidation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_valid(self, k):
        report = validate_fan(hirzebruch_fan(k))
        assert report.valid and not report.violations

    def test_catalog_fans_valid(self):
        for fan in [cp_fan(1), cp_fan(2), cp_fan(3), cp_fan(4), c2_fan()]:
            assert validate_fan(fan).valid

    def test_interior_ray_breaks_intersection(self):
        # (1,1) is interior to Cone((1,0),(0,1)), so the ray cone is not a
        # common face of the pair.
        fan = Fan.from_maximal([(1, 0), (0, 1), (1, 1)], [(0, 1), (2,)])
        report = validate_fan(fan)
        assert not report.valid
        hits = [v for v in report.violations if v.axiom == "INTERSECTION"]
        assert hits and {frozenset(w) for w in hits[0].witness} == {
            frozenset({0, 1}),
            frozenset({2}),
        }

    def test_missing_singleton(self):
        fan = Fan.create([(1, 0), (0, 1)], [[0]])
        assert "RAY_COVERAGE" in violation_axioms(fan)

    def test_downward_closure(self):
        # A complex stored as its maximal cones holds every face of them.
        fan = Fan.create([(1, 0), (0, 1)], [[0, 1]])
        assert validate_fan(fan).valid
        assert not is_nonface(fan, {0})

    def test_trivial_complex(self):
        fan = Fan.create([(1, 0)], [])
        assert {"NONTRIVIAL", "RAY_COVERAGE"} <= violation_axioms(fan)

    def test_dependent_face(self):
        fan = Fan.from_maximal([(1, 0), (2, 0)], [(0, 1)])
        assert "SIMPLICIALITY" in violation_axioms(fan)

    def test_duplicate_and_zero_generators(self):
        fan = Fan.create([(1, 0), (1, 0)], [[0], [1]])
        assert "DISTINCT_GENERATORS" in violation_axioms(fan)
        fan = Fan.create([(0, 0), (1, 0)], [[0], [1]])
        assert "ZERO_GENERATOR" in violation_axioms(fan)

    def test_generator_dimension_witness_is_the_offending_index(self):
        fan = Fan.create([(1, 0), (1,), (1,)], [[0], [1], [2]])
        hits = [v.witness for v in validate_fan(fan).violations if v.axiom == "GENERATOR_DIMENSION"]
        assert hits == [((1,),), ((2,),)]


    def test_cp8_terminates(self):
        # 36 pairs of 8-dimensional cones; enumerating extreme rays took
        # minutes here.
        fan = cp_fan(8)
        assert validate_fan(fan).valid
        assert tuple(cox_report(fan).witness_degree) == (1,) * 9

    def test_cp19_terminates(self):
        # 20 rays, document.MAX_RAYS, and 2^20 - 2 nonempty faces.
        fan = cp_fan(19)
        assert validate_fan(fan).valid
        assert primitive_collections(fan) == {frozenset(range(20))}
        assert is_complete(fan)

    def test_simpliciality_rank_tests_maximal_faces(self, monkeypatch):
        # cp13 has 2^14 - 2 nonempty faces but only 14 maximal ones, and
        # faces of an independent maximal face need no rank test of their own.
        calls = []
        original = torickit.fans.rational_rank

        def counted(rows):
            calls.append(len(rows))
            return original(rows)

        monkeypatch.setattr(torickit.fans, "rational_rank", counted)
        assert validate_fan(cp_fan(13)).valid
        assert len(calls) <= 14

    def test_cp19_rank_tests_one_per_maximal_cone(self, monkeypatch):
        # The SIMPLICIALITY step tests each of the 20 maximal cones once;
        # the intersection LPs and the smoothness test need no rank test,
        # so building cone objects (which test rank again) would show here.
        calls = []
        for module in (torickit.fans, torickit.cones):

            def counted(rows, _original=module.rational_rank):
                calls.append(len(rows))
                return _original(rows)

            monkeypatch.setattr(module, "rational_rank", counted)
        fan = cp_fan(19)
        assert validate_fan(fan).valid and is_smooth(fan)
        assert len(calls) <= 20

    def test_dependent_face_with_independent_edges(self):
        fan = Fan.from_maximal([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], [(0, 1, 2), (0, 1, 3)])
        report = validate_fan(fan)
        assert [(v.axiom, v.witness) for v in report.violations] == [
            ("SIMPLICIALITY", ((0, 1, 2),))
        ]

    def test_cp19_rays_in_one_cone_take_one_rank_test(self, monkeypatch):
        # Any 19 of cp19's 20 rays are a basis, so the one cone on all of them
        # is the only dependent face. The counter raises past one rank test
        # per maximal cone, so a scan over the 2^20 subsets stops at once.
        fan = Fan.from_maximal(cp_fan(19).generators, [range(20)])
        calls = []
        original = torickit.fans.rational_rank

        def counted(rows):
            calls.append(len(rows))
            if len(calls) > len(fan.cones):
                raise AssertionError("more than one rank test per maximal cone")
            return original(rows)

        monkeypatch.setattr(torickit.fans, "rational_rank", counted)
        report = validate_fan(fan)
        assert calls == [20]
        assert [(v.axiom, v.witness) for v in report.violations] == [
            ("SIMPLICIALITY", (tuple(range(20)),))
        ]

    def test_dependent_cone_is_the_only_witness(self):
        # Every triple of these plane rays is dependent too, but the witness
        # is the maximal cone alone.
        fan = Fan.from_maximal([(1, 0), (1, 1), (1, 2), (1, 3)], [(0, 1, 2, 3)])
        assert [v.witness for v in validate_fan(fan).violations] == [((0, 1, 2, 3),)]


class TestNonfaces:
    def test_hirzebruch_family(self, hirzebruch1):
        family = nonface_family(hirzebruch1)
        expected = {
            frozenset(s)
            for size in range(1, 5)
            for s in itertools.combinations(range(4), size)
            if {0, 2} <= set(s) or {1, 3} <= set(s)
        }
        assert family == expected
        assert all(is_nonface(hirzebruch1, s) for s in family)

    def test_full_simplex_empty(self):
        fan = Fan.from_maximal([(1, 0), (0, 1)], [(0, 1)])
        assert nonface_family(fan) == set()

    def test_cp1(self):
        assert nonface_family(cp_fan(1)) == {frozenset({0, 1})}


class TestPrimitiveCollections:
    def test_hirzebruch(self, hirzebruch1):
        assert primitive_collections(hirzebruch1) == frozenset(
            {frozenset({0, 2}), frozenset({1, 3})}
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cp(self, n):
        assert primitive_collections(cp_fan(n)) == frozenset({frozenset(range(n + 1))})

    def test_c2(self, c2):
        assert primitive_collections(c2) == frozenset({frozenset({0, 1})})

    def test_structure_properties(self, hirzebruch1):
        for fan in [hirzebruch1, cp_fan(3), c2_fan()] + enumerate_subfans(hirzebruch1):
            collections = primitive_collections(fan)
            for a, b in itertools.combinations(collections, 2):
                assert not (a <= b or b <= a)
            family = nonface_family(fan)
            for nonface in family:
                assert any(c <= nonface for c in collections)
            for c in collections:
                for sub in itertools.combinations(sorted(c), len(c) - 1):
                    assert frozenset(sub) in closure(fan)


class TestIntegerInputs:
    @pytest.mark.parametrize("bad", [1.0, 1.5, Fraction(3, 2)])
    def test_non_integer_generators_are_refused(self, bad):
        with pytest.raises(TypeError):
            Fan.create([(bad, 0), (0, 1)], [(0, 1)])

    @pytest.mark.parametrize("bad", [1.0, 1.5, Fraction(3, 2)])
    def test_non_integer_face_indices_are_refused(self, bad):
        with pytest.raises(TypeError):
            Fan.create([(1, 0), (0, 1)], [(0, bad)])


class TestRMin:
    def test_examples(self, hirzebruch1, c2):
        assert r_min(hirzebruch1) == 2
        assert r_min(c2) == 2
        for n in range(1, 5):
            assert r_min(cp_fan(n)) == n + 1

    def test_full_simplex_errors(self):
        fan = Fan.from_maximal([(1, 0), (0, 1)], [(0, 1)])
        with pytest.raises(NoPrimitiveCollectionError):
            r_min(fan)

    def test_at_least_two(self, hirzebruch1):
        for fan in [hirzebruch1, cp_fan(2), c2_fan()] + enumerate_subfans(hirzebruch1):
            assert r_min(fan) >= 2


# Fixed examples on every run, and no example database left behind.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def plane_fans(draw):
    """Valid plane fans: distinct ray directions in angular order, each pair
    of neighbours less than a half-plane apart spanning a 2-cone unless
    dropped; some generators are non-primitive and the ray order is
    shuffled."""
    directions = set()
    for v in draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=8)):
        if v != (0, 0):
            g = gcd(*v)
            directions.add((v[0] // g, v[1] // g))
    rays = sorted(directions)
    rays = [rays[i] for i in _angular_order(rays)]
    k = len(rays)
    scales = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    rays = [(m * x, m * y) for (x, y), m in zip(rays, scales)]
    dropped = draw(st.sets(st.integers(0, max(k - 1, 0)), max_size=2))
    cones = [
        (i, (i + 1) % k)
        for i in range(k)
        if i not in dropped and k >= 3
        and rays[i][0] * rays[(i + 1) % k][1] - rays[i][1] * rays[(i + 1) % k][0] > 0
    ]
    perm = draw(st.permutations(range(k)))
    generators = [None] * k
    for old, new in enumerate(perm):
        generators[new] = rays[old]
    return Fan.from_maximal(generators, [(perm[a], perm[b]) for a, b in cones])


@st.composite
def complexes(draw):
    """Arbitrary families of index sets, not necessarily downward closed."""
    r = draw(st.integers(1, 7))
    faces = draw(st.lists(st.frozensets(st.integers(0, r - 1)), max_size=15))
    return Fan.create([(1,)] * r, faces)


class TestMaximalFaces:
    @PROPERTY
    @given(complexes())
    def test_matches_the_pairwise_definition(self, fan):
        assert fan.maximal_faces() == brute_force_maximal_faces(fan)

    def test_create_keeps_the_maximal_members(self):
        fan = Fan.create([(1, 0), (0, 1), (-1, 0)], [[0], [1, 0], [], [1], [2], [2]])
        assert fan.cones == {frozenset({0, 1}), frozenset({2})}
        assert not is_nonface(fan, {1})
        assert is_nonface(fan, {0, 2})
        # The empty set is a face even of a complex with no cones.
        assert not is_nonface(Fan.create([(1, 0)], []), ())


NONZERO_GENERATORS = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


class TestFaceLatticeOracles:
    """Answers from the maximal cones against the same answers read off the
    materialised face lattice."""

    @staticmethod
    def check(fan):
        assert primitive_collections(fan) == face_lattice_primitive_collections(fan)
        faces = closure(fan)
        assert nonface_family(fan) == {
            frozenset(s)
            for size in range(1, fan.ray_count + 1)
            for s in itertools.combinations(range(fan.ray_count), size)
            if frozenset(s) not in faces
        }
        witnesses = [
            v.witness for v in validate_fan(fan).violations if v.axiom == "SIMPLICIALITY"
        ]
        # validate_fan lists only the inclusion-maximal faces of the oracle.
        oracle = face_lattice_simpliciality(fan)
        faces = [frozenset(w[0]) for w in oracle]
        assert witnesses == [w for w, f in zip(oracle, faces) if not any(f < g for g in faces)]

    @PROPERTY
    @given(complexes(), st.data())
    def test_complexes(self, fan, data):
        # Distinct nonzero generators in R^3, so that validation reaches
        # SIMPLICIALITY; every cone of four or more rays is dependent.
        generators = data.draw(
            st.lists(NONZERO_GENERATORS, min_size=fan.ray_count, max_size=fan.ray_count, unique=True)
        )
        self.check(Fan(3, tuple(generators), fan.cones))

    @PROPERTY
    @given(plane_fans())
    def test_plane_fans(self, fan):
        self.check(fan)

    @pytest.mark.parametrize(
        "base", [cp_fan(3)] + [hirzebruch_fan(k) for k in (1, 2, 3)], ids=["cp3", "h1", "h2", "h3"]
    )
    def test_every_subfan(self, base):
        for fan in [base] + enumerate_subfans(base):
            self.check(fan)


class TestConeObjectOracles:
    """The INTERSECTION witnesses and smoothness read through the fan's
    index sets against the same loops over `SimplicialCone` objects."""

    @staticmethod
    def check(fan):
        report = validate_fan(fan)
        found = [v for v in report.violations if v.axiom == "INTERSECTION"]
        if len(found) < len(report.violations):
            # An earlier check failed, and validation stopped before INTERSECTION.
            assert not found
            return
        assert found == sorted(cone_object_intersection_violations(fan), key=lambda v: v.witness)
        if report.valid:
            assert is_smooth(fan) == cone_object_is_smooth(fan)

    @PROPERTY
    @given(complexes(), st.data())
    def test_complexes(self, fan, data):
        # Every ray is a cone, so more of these reach INTERSECTION.
        generators = data.draw(
            st.lists(NONZERO_GENERATORS, min_size=fan.ray_count, max_size=fan.ray_count, unique=True)
        )
        self.check(Fan.from_maximal(generators, fan.cones))

    @PROPERTY
    @given(plane_fans())
    def test_plane_fans(self, fan):
        self.check(fan)

    @pytest.mark.parametrize(
        "base", [cp_fan(3)] + [hirzebruch_fan(k) for k in (1, 2, 3)], ids=["cp3", "h1", "h2", "h3"]
    )
    def test_every_subfan(self, base):
        for fan in [base] + enumerate_subfans(base):
            self.check(fan)

    def test_interior_ray_and_singular_cone(self):
        interior = Fan.from_maximal([(1, 0), (0, 1), (1, 1)], [(0, 1), (2,)])
        assert cone_object_intersection_violations(interior)
        self.check(interior)
        singular = Fan.from_maximal([(2, 0), (1, 2)], [(0, 1)])
        assert not cone_object_is_smooth(singular)
        self.check(singular)


class TestSmooth:
    def test_examples(self, hirzebruch1):
        assert is_smooth(hirzebruch1)
        singular = Fan.from_maximal([(1, 0), (1, 2)], [(0, 1)])
        assert not is_smooth(singular)
        rays_only = Fan.from_maximal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0,), (1,), (2,)])
        assert is_smooth(rays_only)


class TestComplete:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_complete(self, k):
        assert is_complete(hirzebruch_fan(k))

    def test_subfans_not_complete(self, hirzebruch1):
        for sub in enumerate_subfans(hirzebruch1):
            assert not is_complete(sub)

    def test_no_proper_subfan_is_complete(self):
        # `subfans` reports every subfan as not complete without testing it.
        cp2xcp1 = Fan.from_maximal(
            [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
            [(a, b, c) for a, b in ((0, 1), (1, 2), (0, 2)) for c in (3, 4)],
        )
        fans = [e.fan for e in load_catalog() if validate_fan(e.fan).valid] + [cp2xcp1]
        subfans = [sub for fan in fans for sub in enumerate_subfans(fan)]
        assert len(subfans) == 7056 + 1194
        assert not any(map(is_complete, subfans))

    def test_c2_and_cp(self, c2):
        assert not is_complete(c2)
        for n in range(1, 5):
            assert is_complete(cp_fan(n))

    def test_cp3_with_cone_removed(self):
        fan = cp_fan(3)
        maximal = fan.maximal_faces()
        smaller = Fan.from_maximal(fan.generators, [tuple(f) for f in maximal[:-1]])
        assert not is_complete(smaller)

    def test_one_dimensional(self):
        assert is_complete(Fan.from_maximal([(2,), (-1,)], []))
        assert not is_complete(Fan.from_maximal([(1,)], []))
        assert not is_complete(Fan(1, (), frozenset()))

    def test_ridge_counts_match_the_pseudomanifold_oracle(self, hirzebruch1):
        fans = []
        for fan in [cp_fan(3), hirzebruch1, product_fan(2, 1)]:
            fans += [fan, *enumerate_subfans(fan)]
        for fan in [e.fan for e in load_catalog() if validate_fan(e.fan).valid]:
            maximal = fan.maximal_faces()
            # `from_maximal` keeps every ray, so a ray cannot be dropped.
            fans += [
                Fan.from_maximal(fan.generators, [tuple(f) for f in maximal if f != dropped])
                for dropped in maximal
                if len(dropped) > 1
            ]
        assert sum(map(is_complete, fans)) == 3
        for fan in fans:
            assert is_complete(fan) == pseudomanifold_is_complete(fan)

    @PROPERTY
    @given(plane_fans())
    def test_plane_fans_match_the_angular_test(self, fan):
        assume(validate_fan(fan).valid)
        assert is_complete(fan) == angular_is_complete(fan)

    def test_complete_smooth_fans_span(self):
        for fan in [hirzebruch_fan(1), hirzebruch_fan(3)] + [cp_fan(n) for n in range(1, 5)]:
            assert is_complete(fan) and is_smooth(fan)
            assert cox_report(fan).condition_span


def blown_up_surface(r: int) -> Fan:
    """A smooth complete surface with r >= 4 rays: cp1 x cp1, blown up at
    torus-fixed points (a ray a + b inserted between neighbours a and b)
    until it has r rays."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    k = 0
    while len(rays) < r:
        k %= len(rays)
        a, b = rays[k], rays[(k + 1) % len(rays)]
        rays.insert(k + 1, (a[0] + b[0], a[1] + b[1]))
        k += 2
    return Fan.from_maximal(rays, [(i, (i + 1) % r) for i in range(r)])


class TestSubfans:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_census_count(self, k):
        subs = enumerate_subfans(hirzebruch_fan(k))
        assert len(subs) == 2 ** 4 - 1 == 15

    def test_all_subfans_valid(self, hirzebruch1):
        for sub in enumerate_subfans(hirzebruch1):
            assert validate_fan(sub).valid
            assert sub.generators == hirzebruch1.generators
            assert closure(sub) < closure(hirzebruch1)

    def test_rays_only_and_cp1(self):
        rays_only = Fan.from_maximal([(1, 0), (0, 1)], [(0,), (1,)])
        assert enumerate_subfans(rays_only) == []
        assert enumerate_subfans(cp_fan(1)) == []

    @pytest.mark.parametrize("base", [cp_fan(2), cp_fan(3), hirzebruch_fan(1)], ids=["cp2", "cp3", "h1"])
    def test_ordered_by_their_face_lists(self, base):
        subs = enumerate_subfans(base)
        assert subs == sorted(subs, key=lambda f: sorted((len(x), sorted(x)) for x in closure(f)))

    def test_cp2_subfan_count(self):
        # Three incomparable 2-faces, all subsets are ideals: 2^3 - 1 proper.
        assert len(enumerate_subfans(cp_fan(2))) == 7

    def test_equal_to_the_recursive_oracle(self):
        cp2xcp1_subfans = recursive_subfans(product_fan(2, 1))
        family = [
            *(cp_fan(n) for n in range(1, 5)),
            *(hirzebruch_fan(k) for k in range(1, 6)),
            c2_fan(),
            product_fan(1, 1),
            product_fan(2, 1),
            *(blown_up_surface(r) for r in (5, 8, 10, 12, 13)),
            *recursive_subfans(cp_fan(3)),
            *random.Random(15).sample(cp2xcp1_subfans, 200),
        ]
        assert len(family) == 329
        for fan in family:
            assert enumerate_subfans(fan) == recursive_subfans(fan)

    def test_cp9_is_refused_at_the_cap(self):
        # 45 edges: refused after the 15th, before any larger face is built.
        with pytest.raises(SubfanCountAboveCapError) as caught:
            enumerate_subfans(cp_fan(9))
        assert caught.value.code == "SUBFAN_COUNT_ABOVE_CAP"

    def test_the_cap_counts_proper_subfans_exactly(self, monkeypatch):
        surface = blown_up_surface(5)  # 2^5 - 1 proper subfans
        monkeypatch.setattr(torickit.census, "MAX_SUBFANS", 31)
        assert len(enumerate_subfans(surface)) == 31
        monkeypatch.setattr(torickit.census, "MAX_SUBFANS", 30)
        with pytest.raises(SubfanCountAboveCapError):
            enumerate_subfans(surface)


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


ISOMORPHISM_POOL = [
    fan
    for base in [hirzebruch_fan(1), hirzebruch_fan(3), cp_fan(2), cp_fan(3), c2_fan(), product_fan(1, 1)]
    for fan in [base] + enumerate_subfans(base)
]


class TestIsomorphism:
    def test_identity(self, hirzebruch1):
        u = fan_isomorphism(hirzebruch1, hirzebruch1)
        assert u is not None and is_unimodular(u)

    def test_cp1_vs_c2(self, c2):
        assert fan_isomorphism(cp_fan(1), c2) is None

    def test_rejects_on_elementary_divisors(self):
        # Same complex, but the second cone spans a sublattice of index 2:
        # e1 -> (1, 0), e2 -> (1, 2) is integral with determinant 2.
        smooth = Fan.from_maximal([(1, 0), (0, 1)], [(0, 1)])
        singular = Fan.from_maximal([(1, 0), (1, 2)], [(0, 1)])
        assert _lattice_data(smooth)[0][:4] == _lattice_data(singular)[0][:4]
        assert _lattice_data(smooth)[0] != _lattice_data(singular)[0]
        assert fan_isomorphism(smooth, singular) is None
        assert fan_isomorphism(singular, smooth) is None

    def test_axis_swap(self):
        f1 = Fan.from_maximal([(1, 0), (-1, 0)], [(0,), (1,)])
        f2 = Fan.from_maximal([(0, 1), (0, -1)], [(0,), (1,)])
        u = fan_isomorphism(f1, f2)
        assert u is not None
        images = {u.apply(g) for g in f1.generators}
        assert images == set(f2.generators)

    def test_returned_matrix_is_a_witness(self, hirzebruch1):
        subs = enumerate_subfans(hirzebruch1)
        found = 0
        for a, b in itertools.combinations(subs, 2):
            u = fan_isomorphism(a, b)
            if u is None:
                continue
            found += 1
            assert is_unimodular(u)
            mapping = {}
            for i, g in enumerate(a.generators):
                image = u.apply(g)
                assert image in b.generators
                mapping[i] = b.generators.index(image)
            assert len(set(mapping.values())) == len(mapping)
            mapped = frozenset(frozenset(mapping[i] for i in f) for f in closure(a))
            assert mapped == closure(b)
        assert found > 0

    def test_symmetry(self, hirzebruch1):
        subs = enumerate_subfans(hirzebruch1)
        rng = random.Random(5)
        for _ in range(20):
            a, b = rng.sample(subs, 2)
            assert (fan_isomorphism(a, b) is None) == (fan_isomorphism(b, a) is None)

    def test_recovers_random_unimodular_transforms(self):
        # Applying a random unimodular matrix and a random ray relabeling
        # must always be detected as an isomorphism.
        rng = random.Random(321)
        pool = [hirzebruch_fan(1), hirzebruch_fan(3), cp_fan(2), cp_fan(3), c2_fan()]
        for _ in range(25):
            fan = pool[rng.randrange(len(pool))]
            n = fan.dim
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if a == b:
                    continue
                factor = rng.choice([-2, -1, 1, 2])
                for j in range(n):
                    u[a][j] += factor * u[b][j]
            perm = list(range(fan.ray_count))
            rng.shuffle(perm)
            new_generators = [None] * fan.ray_count
            for i, g in enumerate(fan.generators):
                new_generators[perm[i]] = tuple(
                    sum(u[row][col] * g[col] for col in range(n)) for row in range(n)
                )
            new_cones = frozenset(
                frozenset(perm[i] for i in cone) for cone in fan.cones
            )
            transformed = Fan(n, tuple(new_generators), new_cones)
            witness = fan_isomorphism(fan, transformed)
            assert witness is not None
            assert is_unimodular(witness)
            mapped = {witness.apply(g) for g in fan.generators}
            assert mapped == set(transformed.generators)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_census_classes(self, k):
        # The ray-set symmetry swapping the two horizontal rays pairs up
        # subfans: 9 classes, six of size two, none hidden.
        subs = enumerate_subfans(hirzebruch_fan(k))
        classes = isomorphism_classes(subs)
        assert sorted(len(c) for c in classes) == [1, 1, 1, 2, 2, 2, 2, 2, 2]
        assert sum(len(c) for c in classes) == 15

    @pytest.mark.parametrize(
        "bases",
        [[cp_fan(2)]]
        + [[hirzebruch_fan(k)] for k in (1, 2, 3)]
        + [[product_fan(1, 1)]]
        # Rank-deficient fans, where the lift from the saturation
        # coordinates to the lattice fills in the identity.
        + [
            [
                Fan.from_maximal([(1, 0), (-1, 0)], [(0,), (1,)]),
                Fan.from_maximal([(0, 1), (0, -1)], [(0,), (1,)]),
            ],
            [Fan.from_maximal([(2, 1)], [(0,)])],
            [
                Fan(
                    3,
                    tuple(g + (0,) for g in hirzebruch_fan(1).generators),
                    hirzebruch_fan(1).cones,
                )
            ],
        ],
        ids=["cp2", "h1", "h2", "h3", "cp1xcp1", "axes", "ray21", "h1-in-z3"],
    )
    def test_matrices_match_the_permutation_search(self, bases):
        fans = [fan for base in bases for fan in [base] + enumerate_subfans(base)]
        for a, b in itertools.product(fans, repeat=2):
            found, expected = fan_isomorphism(a, b), permutation_search_isomorphism(a, b)
            assert (found is None) == (expected is None)
            if found is not None:
                assert found.entries == expected.entries

    @pytest.mark.parametrize(
        "fans", [enumerate_subfans(cp_fan(3)), ISOMORPHISM_POOL], ids=["cp3_subfans", "pool"]
    )
    def test_classes_match_the_pairwise_search(self, fans):
        # The pool mixes fans of several buckets, so the classes must come
        # back in the order of their first members, not bucket by bucket.
        assert isomorphism_classes(fans) == pairwise_isomorphism_classes(fans)

    def test_classes_compute_each_smith_form_once(self, monkeypatch):
        subs = enumerate_subfans(cp_fan(3))
        calls = []
        original = torickit.census.smith_normal_form

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(torickit.census, "smith_normal_form", counted)
        classes = isomorphism_classes(subs)
        # Far more comparisons than fans, so two forms per comparison
        # would show.
        assert sum(len(group) - 1 for group in classes) > len(subs) // 2
        assert len(calls) == len(subs)

    def test_classes_lift_no_matrix(self, monkeypatch):
        # Classification compares maps on the saturations only: no
        # unimodular U is inverted to lift a map to the lattice.
        calls = []
        original = torickit.census._integer_inverse

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(torickit.census, "_integer_inverse", counted)
        classes = isomorphism_classes(enumerate_subfans(cp_fan(3)))
        assert len(classes) == 18 and calls == []
        assert fan_isomorphism(cp_fan(3), cp_fan(3)) is not None and len(calls) == 1

    @PROPERTY
    @given(st.sampled_from(ISOMORPHISM_POOL), st.data())
    def test_invariant_under_lattice_and_relabelling(self, fan, data):
        u = data.draw(unimodular_rows(fan.dim))
        perm = data.draw(st.permutations(range(fan.ray_count)))
        image = acted_on(fan, u, perm)
        assert _lattice_data(image)[0] == _lattice_data(fan)[0]
        witness = fan_isomorphism(fan, image)
        assert witness is not None and is_unimodular(witness)
        mapping = [image.generators.index(witness.apply(g)) for g in fan.generators]
        assert frozenset(frozenset(mapping[i] for i in c) for c in fan.cones) == image.cones

    def test_cp2xcp1_subfans_classify(self):
        # About two minutes with the search over every ordered target tuple.
        subs = enumerate_subfans(product_fan(2, 1))
        classes = isomorphism_classes(subs)
        assert len(subs) == 1194 and len(classes) == 157
        assert sorted(i for group in classes for i in group) == list(range(1194))

    def test_cp7_minus_a_cone_is_rejected(self):
        # About 3 s with the search over every ordered target tuple.
        cp7 = cp_fan(7)
        assert fan_isomorphism(cp7, Fan(7, cp7.generators, cp7.cones - {frozenset(range(7))})) is None


def scaled(fan: Fan, factors) -> Fan:
    """The fan with generator i multiplied by factors[i]."""
    generators = tuple(tuple(m * e for e in g) for m, g in zip(factors, fan.generators))
    return Fan(fan.dim, generators, fan.cones)


class TestValidationInvariance:
    """`validate_fan` and `is_smooth` under GL(n,Z) x S_r and positive
    scaling of the generators, on fans where no generator is a positive
    multiple of another (scaling could make two such generators equal)."""

    @staticmethod
    def check(fan, data):
        u = data.draw(unimodular_rows(fan.dim))
        perm = data.draw(st.permutations(range(fan.ray_count)))
        factors = data.draw(st.lists(st.integers(1, 4), min_size=fan.ray_count, max_size=fan.ray_count))
        image = scaled(acted_on(fan, u, perm), factors)

        def witnesses(report, relabel):
            # The order of the two cones of a pair follows their labels.
            return sorted(
                (v.axiom, sorted(sorted(relabel[i] for i in group) for group in v.witness))
                for v in report.violations
            )

        before, after = validate_fan(fan), validate_fan(image)
        assert after.valid == before.valid
        assert witnesses(after, range(fan.ray_count)) == witnesses(before, perm)
        if before.valid:
            assert is_smooth(image) == is_smooth(fan)

    @PROPERTY
    @given(complexes(), st.data())
    def test_complexes(self, fan, data):
        generators = data.draw(
            st.lists(
                NONZERO_GENERATORS,
                min_size=fan.ray_count,
                max_size=fan.ray_count,
                unique_by=primitivize,
            )
        )
        self.check(Fan.from_maximal(generators, fan.cones), data)

    @PROPERTY
    @given(plane_fans(), st.data())
    def test_plane_fans(self, fan, data):
        self.check(fan, data)

    @PROPERTY
    @given(st.sampled_from(ISOMORPHISM_POOL), st.data())
    def test_catalog_subfans(self, fan, data):
        self.check(fan, data)
