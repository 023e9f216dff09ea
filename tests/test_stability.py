import pytest

from oracles import enumerated_replay, subset_sum_replay
from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan
from torickit.cox import DegreeVector, complete_degrees, degree_of
from torickit.errors import (
    Condition1FailedError,
    Condition2FailedError,
    DMinAboveCapError,
    KOutOfRangeError,
    NotInKernelError,
)
from torickit.census import enumerate_subfans
from torickit.fans import Fan
from torickit.stability import (
    KIND_HOMOLOGY,
    KIND_HOMOTOPY,
    MAX_D_MIN,
    discriminant_dims,
    replay,
    stability_report,
)


class TestStabilityReport:
    @pytest.mark.parametrize("k,d1,d2", [(1, 1, 1), (1, 3, 5), (2, 2, 2), (3, 5, 1)])
    def test_hirzebruch_and_subfans(self, k, d1, d2):
        fan = hirzebruch_fan(k)
        degrees = (d1, d2, d1, k * d1 + d2)
        for target in [fan, enumerate_subfans(fan)[0]]:
            report = stability_report(target, degree_of(target, degrees))
            assert report.r_min == 2
            assert report.d_min == min(d1, d2)
            assert report.stability_dim == min(d1, d2) - 2
            assert report.kind == KIND_HOMOLOGY
            assert report.connectivity == 0
            assert report.oracle_dim == report.stability_dim

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_cp_series(self, n, d):
        fan = cp_fan(n)
        report = stability_report(fan, degree_of(fan, (d,) * (n + 1)))
        assert report.r_min == n + 1
        assert report.stability_dim == (2 * n - 1) * d - 2
        assert report.kind == KIND_HOMOTOPY
        assert report.connectivity == 2 * (n - 1)
        assert report.oracle_dim == report.stability_dim

    def test_cp1_is_homology_kind(self):
        fan = cp_fan(1)
        report = stability_report(fan, degree_of(fan, (3, 3)))
        assert report.kind == KIND_HOMOLOGY
        assert report.stability_dim == 1

    def test_rmin3_dmin1(self):
        fan = cp_fan(2)
        report = stability_report(fan, degree_of(fan, (1, 1, 1)))
        assert report.stability_dim == 1
        assert report.connectivity == 2

    def test_condition_2_failure(self):
        with pytest.raises(Condition2FailedError):
            stability_report(c2_fan(), None)

    def test_condition_1_failure(self):
        fan = Fan.from_maximal([(2, 0), (0, 1)], [(0,), (1,)])
        with pytest.raises(Condition1FailedError):
            stability_report(fan, None)

    def test_pins_and_their_completion_give_one_report(self):
        h1 = hirzebruch_fan(1)
        report = stability_report(h1, {0: 3, 1: 5})
        assert report == stability_report(h1, complete_degrees(h1, {0: 3, 1: 5}))
        assert report == stability_report(h1, (3, 5, 3, 8))
        assert report.degrees == DegreeVector((3, 5, 3, 8))
        assert report.primitive_collections == {frozenset({0, 2}), frozenset({1, 3})}

    def test_degree_vectors_are_checked_against_the_fan(self):
        h1 = hirzebruch_fan(1)
        with pytest.raises(NotInKernelError):
            stability_report(h1, DegreeVector((1, 1, 1, 1)))
        with pytest.raises(NotInKernelError):
            discriminant_dims(h1, DegreeVector((1, 1, 1, 1)), 1)
        valid = DegreeVector((3, 5, 3, 8))
        assert stability_report(h1, valid) == stability_report(h1, (3, 5, 3, 8))
        assert discriminant_dims(h1, valid, 2) == discriminant_dims(h1, (3, 5, 3, 8), 2)

    def test_conditions_are_checked_before_the_pins(self):
        for pins in ({0: 0}, {9: 1}):
            with pytest.raises(Condition2FailedError):
                stability_report(c2_fan(), pins)

    def test_vanishing_line_identity(self):
        for k, d1, d2 in [(1, 1, 1), (2, 3, 4), (3, 6, 2)]:
            fan = hirzebruch_fan(k)
            report = stability_report(fan, degree_of(fan, (d1, d2, d1, k * d1 + d2)))
            assert report.vanishing_line - (report.d_min + 1) == report.stability_dim


class TestDiscriminantDims:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hirzebruch_unit_degrees(self, k):
        fan = hirzebruch_fan(k)
        dims = discriminant_dims(fan, (1, 1, 1, k + 1), 1)
        assert dims.n_d == k + 4
        assert dims.dim_l == 4
        assert dims.dim_c_k == 6

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_cp1_bundle_rank(self, d):
        fan = cp_fan(1)
        dims = discriminant_dims(fan, (d, d), 1)
        assert dims.bundle_rank_l == 4 * d - 4

    def test_k_out_of_range(self):
        fan = cp_fan(1)
        with pytest.raises(KOutOfRangeError):
            discriminant_dims(fan, (2, 2), 0)
        with pytest.raises(KOutOfRangeError):
            discriminant_dims(fan, (2, 2), 3)

    def test_stratum_identity_across_catalog(self):
        cases = [
            (hirzebruch_fan(1), (2, 3, 2, 5)),
            (hirzebruch_fan(2), (1, 4, 1, 6)),
            (cp_fan(1), (3, 3)),
            (cp_fan(2), (2, 2, 2)),
            (cp_fan(3), (4, 4, 4, 4)),
        ]
        for fan, degrees in cases:
            dv = degree_of(fan, degrees)
            rmin = stability_report(fan, dv).r_min
            for k in range(1, dv.minimum + 1):
                dims = discriminant_dims(fan, dv, k)
                assert (
                    dims.bundle_rank_l + dims.dim_c_k
                    == 2 * dims.n_d + 3 * k - 2 * rmin * k - 1
                )


class TestReplay:
    def test_examples(self):
        assert replay(2, 5).stable_dim == 3
        assert replay(3, 1).stable_dim == 1

    def test_grid_matches_closed_form(self):
        for rmin in range(2, 7):
            for dmin in range(1, 11):
                result = replay(rmin, dmin)
                closed = (2 * rmin - 3) * dmin - 2
                assert result.stable_dim == closed
                assert result.min_unknown_diagonal == closed + 2

    def test_page_minima_shape(self):
        # a(t) grows by exactly one per page, starting at the closed form + 2.
        result = replay(4, 9)
        closed = (2 * 4 - 3) * 9 - 2
        assert result.page_minima[0] == (1, closed + 2)
        for (t1, a1), (t2, a2) in zip(result.page_minima, result.page_minima[1:]):
            assert t2 == t1 + 1 and a2 == a1 + 1

    def test_matches_jump_sequence_enumeration(self):
        for rmin in range(2, 7):
            for dmin in range(1, 16):
                assert replay(rmin, dmin) == enumerated_replay(rmin, dmin)

    def test_matches_subset_sum(self):
        for rmin in range(2, 8):
            for dmin in [*range(1, 121), 200]:
                assert replay(rmin, dmin) == subset_sum_replay(rmin, dmin)

    def test_large_d_min_terminates(self):
        assert replay(2, 60).stable_dim == 58

    @pytest.mark.parametrize("rmin", [2, 7])
    def test_at_the_cap(self, rmin):
        result = replay(rmin, MAX_D_MIN)
        closed = (2 * rmin - 3) * MAX_D_MIN - 2
        assert result.stable_dim == closed
        assert result.min_unknown_diagonal == closed + 2
        pages = max(t for t in range(1, MAX_D_MIN) if t * (t + 1) // 2 <= MAX_D_MIN + 1)
        assert result.page_minima == tuple((t, closed + 1 + t) for t in range(1, pages + 1))

    def test_above_the_cap(self):
        message = f"d_min {MAX_D_MIN + 1} is above the cap of {MAX_D_MIN}"
        with pytest.raises(DMinAboveCapError, match=message) as caught:
            replay(2, MAX_D_MIN + 1)
        assert caught.value.code == "D_MIN_ABOVE_CAP"
        fan = cp_fan(2)
        with pytest.raises(DMinAboveCapError):
            stability_report(fan, degree_of(fan, (MAX_D_MIN + 1,) * 3))
        # The argument checks come first.
        with pytest.raises(ValueError):
            replay(1, MAX_D_MIN + 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            replay(1, 1)
        with pytest.raises(ValueError):
            replay(2, 0)

    def test_report_uses_replay(self):
        fan = hirzebruch_fan(2)
        degrees = complete_degrees(fan, {0: 6, 1: 2})
        report = stability_report(fan, degrees)
        assert report.oracle_dim == replay(2, 2).stable_dim == 0
