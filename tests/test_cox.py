import random
from fractions import Fraction

import pytest

from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan
from torickit.cox import (
    DegreeVector,
    complete_degrees,
    cox_report,
    degree_of,
)
from torickit.errors import NonPositiveError, NotInKernelError, UnderdeterminedError
from torickit.fans import Fan
from torickit.smith import kernel_basis


class TestCoxReport:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch(self, k):
        report = cox_report(hirzebruch_fan(k))
        assert report.free_rank == 2
        assert report.finite_part == ()
        assert report.condition_span
        assert report.condition_positive_degree
        assert report.witness_degree.entries == (1, 1, 1, k + 1)
        assert report.pi2_rank == 2

    def test_c2(self):
        report = cox_report(c2_fan())
        assert report.condition_span
        assert not report.condition_positive_degree
        assert report.witness_degree is None
        assert report.pi2_rank == 0

    def test_non_spanning_rays(self):
        fan = Fan.from_maximal([(2, 0), (0, 1)], [(0,), (1,)])
        report = cox_report(fan)
        assert not report.condition_span
        assert report.finite_part == (2,)
        assert report.pi2_rank is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cp_pi2_rank(self, n):
        report = cox_report(cp_fan(n))
        assert report.condition_span
        assert report.pi2_rank == (n + 1) - n == 1

    def test_witness_passes_degree_of(self):
        for fan in [hirzebruch_fan(2), cp_fan(3)]:
            witness = cox_report(fan).witness_degree
            assert degree_of(fan, witness.entries).entries == witness.entries


class TestDegreeOf:
    @pytest.mark.parametrize("k,d1,d2", [(1, 1, 1), (2, 3, 5), (3, 4, 1)])
    def test_hirzebruch_accepts_kernel_vectors(self, k, d1, d2):
        fan = hirzebruch_fan(k)
        degrees = degree_of(fan, (d1, d2, d1, k * d1 + d2))
        assert degrees.minimum == min(d1, d2)
        assert degrees.total == 2 * d1 + d2 + k * d1 + d2

    def test_rejects_non_kernel(self):
        with pytest.raises(NotInKernelError):
            degree_of(hirzebruch_fan(1), (1, 1, 2, 2))

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveError):
            degree_of(hirzebruch_fan(1), (0, 1, 0, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(NotInKernelError):
            degree_of(hirzebruch_fan(1), (1, 1, 1))

    def test_degree_vector_reads_like_its_entries(self):
        degrees = DegreeVector((3, 1, 4))
        assert (degrees[0], degrees[2], degrees[-1]) == (3, 4, 4)
        assert degrees[1:] == (1, 4)
        assert len(degrees) == 3 and list(degrees) == [3, 1, 4]
        with pytest.raises(IndexError):
            degrees[3]

    def test_degree_vector_rejects_bad_entries(self):
        with pytest.raises(NonPositiveError):
            DegreeVector((1, 0, 2))

    @pytest.mark.parametrize("bad", [1.9, 1.0, Fraction(3, 2)])
    def test_non_integers_are_refused(self, bad):
        with pytest.raises(TypeError):
            degree_of(cp_fan(2), [bad, 1, 1])


class TestCompleteDegrees:
    @pytest.mark.parametrize("k", [1, 2])
    def test_hirzebruch_two_free(self, k):
        got = complete_degrees(hirzebruch_fan(k), {0: 2, 1: 3})
        assert got.entries == (2, 3, 2, 2 * k + 3)

    def test_cp_one_free(self):
        assert complete_degrees(cp_fan(3), {0: 5}).entries == (5, 5, 5, 5)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            complete_degrees(hirzebruch_fan(1), {1: 4})


class TestPositiveDegreeMonotonicity:
    def test_adding_opposite_ray_pairs_preserves_witness(self):
        # If a fan admits a positive relation, adjoining a ray together with
        # its negative keeps one: extend the witness by (1, 1) on the pair.
        rng = random.Random(123)
        base_cases = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            r = rng.randint(1, 4)
            rays = []
            for _ in range(r):
                v = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(v) and v not in rays:
                    rays.append(v)
            if not rays:
                continue
            fan = Fan.from_maximal(rays, [(i,) for i in range(len(rays))])
            if cox_report(fan).witness_degree is None:
                continue
            base_cases += 1
            new = tuple(rng.randint(-2, 2) for _ in range(n))
            if not any(new) or new in rays or tuple(-e for e in new) in rays:
                continue
            extended = rays + [new, tuple(-e for e in new)]
            bigger = Fan.from_maximal(extended, [(i,) for i in range(len(extended))])
            assert cox_report(bigger).witness_degree is not None
        assert base_cases >= 5


class TestKernelRankAgreement:
    def test_free_rank_equals_kernel_rank_under_span(self):
        for fan in [hirzebruch_fan(1), cp_fan(2), cp_fan(4), c2_fan()]:
            report = cox_report(fan)
            assert report.free_rank == len(kernel_basis(fan.generator_matrix()))
