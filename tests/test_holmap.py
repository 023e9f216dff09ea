import collections
import random
from fractions import Fraction

import pytest

import torickit.gaussian as gaussian_module
import torickit.holmap as holmap_module
from oracles import numeric_is_member, resultant_is_member
from torickit.catalog import cp_fan
from torickit.errors import (
    DegreeAboveCapError,
    DegreeMismatchError,
    DuplicatePointsError,
    NonKernelIncrementError,
    SizeMismatchError,
)
from torickit.gaussian import (
    I,
    ONE,
    gaussian,
    poly,
    poly_from_roots,
    poly_mul,
)
from torickit.configurations import (
    Configuration,
    config_is_member,
    config_to_polytuple,
    evaluate,
    scanning_snapshot,
)
from torickit.holmap import (
    MAX_DEGREE,
    PolyTuple,
    default_stabilization_points,
    is_member,
    stabilize,
    violating_collections,
)

RNG_SEED = 20240809


def linear(root):
    return poly_from_roots([(gaussian(root), 1)])


def random_point(rng, bound=7):
    return gaussian(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
    )


def random_config(rng, fan, max_points=4):
    return Configuration.from_points(
        [
            [random_point(rng) for _ in range(rng.randint(1, max_points))]
            for _ in range(fan.ray_count)
        ]
    )


class TestIsMember:
    def test_distinct_roots_member(self, hirzebruch1):
        tup = PolyTuple.from_polys(
            [linear(-1), linear(-2), linear(-3), poly_from_roots([(gaussian(-4), 2)])]
        )
        assert is_member(tup, hirzebruch1)

    def test_shared_root_on_collection(self, hirzebruch1):
        z = linear(0)
        tup = PolyTuple.from_polys([z, linear(-2), z, poly_from_roots([(gaussian(-4), 2)])])
        assert not is_member(tup, hirzebruch1)
        assert violating_collections(tup, hirzebruch1) == (frozenset({0, 2}),)

    def test_cp1_examples(self):
        cp1 = cp_fan(1)
        assert is_member(PolyTuple.from_polys([poly_from_roots([(I, 1)]), poly_from_roots([(-I, 1)])]), cp1)
        z2_plus_1 = poly_from_roots([(I, 1), (-I, 1)])
        assert not is_member(PolyTuple.from_polys([z2_plus_1, poly_from_roots([(I, 1)])]), cp1)

    def test_degree_mismatch(self, hirzebruch1):
        with pytest.raises(DegreeMismatchError):
            is_member(PolyTuple.from_polys([linear(0), linear(1)]), hirzebruch1)

    def test_shared_root_only_across_collections_is_fine(self, hirzebruch1):
        # Indices 0 and 1 span a cone, so a common root there is allowed.
        z = linear(0)
        tup = PolyTuple.from_polys([z, z, linear(-1), linear(-2)])
        assert is_member(tup, hirzebruch1)


class TestConfigMembership:
    def test_disjoint_singletons(self, hirzebruch1):
        cfg = Configuration.from_points(
            [[gaussian(0)], [gaussian(1)], [gaussian(2)], [gaussian(3)]]
        )
        assert config_is_member(cfg, hirzebruch1)

    def test_shared_point(self, hirzebruch1):
        cfg = Configuration.from_points(
            [[gaussian(0)], [gaussian(1)], [gaussian(0)], [gaussian(3)]]
        )
        assert not config_is_member(cfg, hirzebruch1)

    def test_size_mismatch(self, hirzebruch1):
        with pytest.raises(SizeMismatchError):
            config_is_member(Configuration.from_points([[gaussian(0)]]), hirzebruch1)

    def test_roundtrip_agreement(self, hirzebruch1):
        rng = random.Random(RNG_SEED)
        fans = [cp_fan(1), cp_fan(2), hirzebruch1]
        for _ in range(300):
            fan = fans[rng.randrange(len(fans))]
            cfg = random_config(rng, fan)
            assert config_is_member(cfg, fan) == is_member(config_to_polytuple(cfg), fan)


class TestConfigToPolyTuple:
    def test_double_root(self):
        cfg = Configuration.from_points([[(gaussian(0), 2)]])
        assert config_to_polytuple(cfg).polys[0] == poly([gaussian(0), gaussian(0), ONE])

    def test_plus_minus_one(self):
        cfg = Configuration.from_points([[gaussian(1), gaussian(-1)]])
        assert config_to_polytuple(cfg).polys[0] == poly([gaussian(-1), gaussian(0), ONE])

    def test_complex_pair(self):
        cfg = Configuration.from_points([[I, gaussian(2)]])
        # (z - i)(z - 2) = z^2 - (2+i)z + 2i
        assert config_to_polytuple(cfg).polys[0] == poly(
            [gaussian(0, 2), gaussian(-2, -1), ONE]
        )

    def test_multiplicities_merge(self):
        cfg = Configuration.from_points([[(gaussian(5), 1), (gaussian(5), 2)]])
        assert cfg.sizes == (3,)

    @pytest.mark.parametrize("bad", [1.0, 1.5, Fraction(3, 2)])
    def test_non_integer_multiplicity_is_refused(self, bad):
        with pytest.raises(TypeError):
            Configuration.from_points([[(gaussian(5), bad)]])


class TestEvaluate:
    def test_member_tuple_everywhere_in_u(self, hirzebruch1):
        rng = random.Random(RNG_SEED + 1)
        cfg = random_config(rng, hirzebruch1)
        tup = config_to_polytuple(cfg)
        if is_member(tup, hirzebruch1):
            for _ in range(10):
                result = evaluate(tup, hirzebruch1, random_point(rng))
                assert result.in_u_k and not result.violated_collections

    def test_violation_witness(self, hirzebruch1):
        z = linear(0)
        tup = PolyTuple.from_polys([z, linear(-1), z, linear(-2)])
        result = evaluate(tup, hirzebruch1, gaussian(0))
        assert not result.in_u_k
        assert result.violated_collections == (frozenset({0, 2}),)

    def test_beyond_all_roots(self, hirzebruch1):
        tup = PolyTuple.from_polys([linear(-1), linear(-2), linear(-3), linear(-4)])
        result = evaluate(tup, hirzebruch1, gaussian(100))
        assert result.in_u_k
        assert all(not v.is_zero for v in result.point)

    def test_nonmember_has_violating_point(self, hirzebruch1):
        # Build a non-member from a configuration, so the witnessing common
        # root is known exactly.
        shared = gaussian(Fraction(3, 2), Fraction(-1, 3))
        cfg = Configuration.from_points(
            [[shared], [gaussian(1)], [shared, gaussian(2)], [gaussian(4)]]
        )
        tup = config_to_polytuple(cfg)
        assert not is_member(tup, hirzebruch1)
        assert not evaluate(tup, hirzebruch1, shared).in_u_k


class TestStabilize:
    def test_cp1_default_points(self):
        cp1 = cp_fan(1)
        tup = PolyTuple.from_polys([poly_from_roots([(I, 1)]), poly_from_roots([(-I, 1)])])
        result = stabilize(tup, (1, 1), cp1)
        assert result.poly_tuple.degrees == (2, 2)
        assert result.member

    def test_degree_additivity(self, hirzebruch1):
        tup = PolyTuple.from_polys([linear(-1), linear(-2), linear(-3), poly_from_roots([(gaussian(-4), 2)])])
        a = (1, 1, 1, 2)
        once = stabilize(tup, a, hirzebruch1)
        twice = stabilize(once.poly_tuple, a, hirzebruch1)
        combined = stabilize(tup, tuple(2 * x for x in a), hirzebruch1)
        assert twice.poly_tuple.degrees == combined.poly_tuple.degrees

    def test_collision_with_existing_root_reported(self):
        cp1 = cp_fan(1)
        points = (gaussian(10), gaussian(11))
        # First polynomial already vanishes where the second will gain a root.
        tup = PolyTuple.from_polys([linear(11), linear(-5)])
        result = stabilize(tup, (1, 1), cp1, points)
        assert not result.member

    def test_non_kernel_increment(self, hirzebruch1):
        tup = PolyTuple.from_polys([linear(-1), linear(-2), linear(-3), poly_from_roots([(gaussian(-4), 2)])])
        with pytest.raises(NonKernelIncrementError):
            stabilize(tup, (1, 1, 1, 1), hirzebruch1)

    @pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2)])
    def test_non_integer_increment_is_refused(self, bad):
        tup = PolyTuple.from_polys([linear(0), linear(-1)])
        with pytest.raises(TypeError):
            stabilize(tup, (bad, 1), cp_fan(1))

    def test_duplicate_points(self):
        cp1 = cp_fan(1)
        tup = PolyTuple.from_polys([linear(0), linear(-1)])
        with pytest.raises(DuplicatePointsError):
            stabilize(tup, (1, 1), cp1, (gaussian(3), gaussian(3)))

    def test_default_points_preserve_membership(self, hirzebruch1):
        # Members whose roots sit left of N(D) stay members under the
        # canonical stabilization points.
        rng = random.Random(RNG_SEED + 2)
        fans = [cp_fan(1), hirzebruch1]
        preserved = 0
        for _ in range(60):
            fan = fans[rng.randrange(2)]
            groups = [
                [gaussian(Fraction(rng.randint(-10, 0)), Fraction(rng.randint(-3, 3)))
                 for _ in range(rng.randint(1, 3))]
                for _ in range(fan.ray_count)
            ]
            cfg = Configuration.from_points(groups)
            tup = config_to_polytuple(cfg)
            if not is_member(tup, fan):
                continue
            increment = (1,) * fan.ray_count if fan.ray_count != 4 else (1, 1, 1, 2)
            assert stabilize(tup, increment, fan).member
            preserved += 1
        assert preserved >= 20

    def test_default_points_are_past_the_degree_budget(self):
        points = default_stabilization_points(7, 3)
        assert len(set(points)) == 3
        assert all(p.real >= 7 and p.imag == 0 for p in points)


class TestDegreeCap:
    """Membership takes polynomials up to MAX_DEGREE, and stabilization an
    increment that keeps every polynomial within it."""

    def test_membership_at_the_cap(self):
        tup = PolyTuple.from_polys([poly_from_roots([(gaussian(0), MAX_DEGREE)]), linear(1)])
        assert tup.degrees == (MAX_DEGREE, 1)
        assert is_member(tup, cp_fan(1))
        assert violating_collections(tup, cp_fan(1)) == ()

    def test_membership_above_the_cap(self):
        tup = PolyTuple.from_polys([linear(1), poly_from_roots([(gaussian(0), MAX_DEGREE + 1)])])
        message = f"polynomial 2 has degree {MAX_DEGREE + 1}, above the cap of {MAX_DEGREE}"
        for check in (is_member, violating_collections):
            with pytest.raises(DegreeAboveCapError, match=message) as caught:
                check(tup, cp_fan(1))
            assert caught.value.code == "DEGREE_ABOVE_CAP"

    @pytest.fixture
    def products(self, monkeypatch):
        counts = collections.Counter()

        def counted(*args):
            counts["poly_mul"] += 1
            return poly_mul(*args)

        monkeypatch.setattr(holmap_module, "poly_mul", counted)
        return counts

    def test_stabilize_to_the_cap(self, products):
        tup = PolyTuple.from_polys([poly_from_roots([(gaussian(0), MAX_DEGREE - 1)]), linear(1)])
        result = stabilize(tup, (1, 1), cp_fan(1))
        assert result.poly_tuple.degrees == (MAX_DEGREE, 2)
        assert result.member
        assert products["poly_mul"] == 2

    def test_stabilize_above_the_cap(self, products):
        tup = PolyTuple.from_polys([poly_from_roots([(gaussian(0), MAX_DEGREE - 1)]), linear(1)])
        message = f"polynomial 1 would have degree {MAX_DEGREE + 1}, above the cap of {MAX_DEGREE}"
        with pytest.raises(DegreeAboveCapError, match=message):
            stabilize(tup, (2, 2), cp_fan(1))
        assert products["poly_mul"] == 0

    def test_increment_checks_run_first(self, hirzebruch1):
        tup = PolyTuple.from_polys([linear(-1), linear(-2), linear(-3), linear(-4)])
        for increment in ((MAX_DEGREE, 1, MAX_DEGREE, MAX_DEGREE), (0, 1, 0, MAX_DEGREE + 1)):
            with pytest.raises(NonKernelIncrementError):
                stabilize(tup, increment, hirzebruch1)


class TestScanningSnapshot:
    def test_far_center_empty(self):
        cfg = Configuration.from_points([[gaussian(0)], [gaussian(1)]])
        snap = scanning_snapshot(cfg, gaussian(100), Fraction(1))
        assert snap.sizes == (0, 0)

    def test_point_at_center(self):
        cfg = Configuration.from_points([[gaussian(5)]])
        snap = scanning_snapshot(cfg, gaussian(5), Fraction(2))
        assert snap.slots[0] == ((gaussian(0), 1),)

    def test_boundary_excluded(self):
        cfg = Configuration.from_points([[gaussian(1)]])
        snap = scanning_snapshot(cfg, gaussian(0), Fraction(1))
        assert snap.sizes == (0,)

    def test_recentering(self):
        cfg = Configuration.from_points([[gaussian(Fraction(1, 4), Fraction(1, 4))]])
        snap = scanning_snapshot(cfg, gaussian(0), Fraction(1, 2))
        assert snap.slots[0] == ((gaussian(Fraction(1, 2), Fraction(1, 2)), 1),)

    def test_sizes_monotone_in_radius(self):
        rng = random.Random(RNG_SEED + 3)
        cfg = Configuration.from_points(
            [[random_point(rng, 4) for _ in range(4)] for _ in range(2)]
        )
        center = random_point(rng, 2)
        radii = [Fraction(4), Fraction(2), Fraction(1), Fraction(1, 2)]
        sizes = [sum(scanning_snapshot(cfg, center, r).sizes) for r in radii]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestOracleAgreement:
    def test_resultant_oracle_small(self, hirzebruch1):
        rng = random.Random(RNG_SEED + 4)
        fans = [cp_fan(1), cp_fan(2), hirzebruch1]
        for trial in range(150):
            fan = fans[rng.randrange(len(fans))]
            if trial % 2:
                cfg = random_config(rng, fan, max_points=3)
                tup = config_to_polytuple(cfg)
            else:
                shared = random_point(rng)
                tup = PolyTuple.from_polys(
                    [
                        poly_from_roots(
                            [(shared, 1)]
                            + [(random_point(rng), 1) for _ in range(rng.randint(0, 2))]
                        )
                        for _ in range(fan.ray_count)
                    ]
                )
            assert is_member(tup, fan) == resultant_is_member(tup, fan)

    def test_numeric_oracle(self, hirzebruch1):
        rng = random.Random(RNG_SEED + 5)
        fans = [cp_fan(1), cp_fan(2), cp_fan(3), hirzebruch1]
        for trial in range(1000):
            fan = fans[rng.randrange(len(fans))]
            if trial % 3 == 0:
                shared = random_point(rng)
                tup = PolyTuple.from_polys(
                    [
                        poly_from_roots(
                            [(shared, 1)]
                            + [(random_point(rng), 1) for _ in range(rng.randint(0, 3))]
                        )
                        for _ in range(fan.ray_count)
                    ]
                )
            else:
                tup = config_to_polytuple(random_config(rng, fan))
            assert is_member(tup, fan) == numeric_is_member(tup, fan)


class TestGcdWork:
    """The first prime settles every gcd of membership on these inputs:
    members cost no exact polynomial division, non-members one trial
    division per polynomial of each violated collection."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()
        for module, name in (
            (holmap_module, "poly_multi_gcd"),
            (gaussian_module, "_images"),
            (gaussian_module, "poly_divmod"),
        ):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        return counts

    @staticmethod
    def distinct_root_slots(rng, degrees):
        points = set()
        while len(points) < sum(degrees):
            points.add(random_point(rng, 9))
        points = sorted(points, key=lambda p: (p.real, p.imag))
        rng.shuffle(points)
        slots, start = [], 0
        for d in degrees:
            slots.append(points[start : start + d])
            start += d
        return slots

    def tuple_from(self, slots):
        return PolyTuple.from_polys(poly_from_roots([(z, 1) for z in slot]) for slot in slots)

    def test_degree_40_member_on_cp3(self, calls):
        fan = cp_fan(3)
        tup = self.tuple_from(self.distinct_root_slots(random.Random(RNG_SEED + 6), (40,) * 4))
        assert is_member(tup, fan)
        assert violating_collections(tup, fan) == ()
        assert calls["_images"] == calls["poly_multi_gcd"] > 0
        assert calls["poly_divmod"] == 0

    def test_degree_40_nonmember_on_cp3(self, calls):
        fan = cp_fan(3)
        slots = self.distinct_root_slots(random.Random(RNG_SEED + 7), (40,) * 4)
        for slot in slots[1:]:
            slot[0] = slots[0][0]
        tup = self.tuple_from(slots)
        assert violating_collections(tup, fan) == (frozenset(range(4)),)
        assert calls["_images"] == calls["poly_multi_gcd"] > 0
        assert calls["poly_divmod"] <= 4

    def test_only_violated_collections_divide(self, calls, hirzebruch1):
        slots = self.distinct_root_slots(random.Random(RNG_SEED + 8), (12, 12, 12, 24))
        slots[2][0] = slots[0][0]
        tup = self.tuple_from(slots)
        assert violating_collections(tup, hirzebruch1) == (frozenset({0, 2}),)
        assert calls["_images"] == calls["poly_multi_gcd"] > 0
        assert calls["poly_divmod"] <= 2
