"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every tolerance and runtime bound is pinned here; nothing is deferred.
"""

import contextlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    brute_force_kernel_vectors,
    brute_force_positive_vector,
    is_unimodular,
    resultant_is_member,
)
from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan
from torickit.census import enumerate_subfans, fan_isomorphism
from torickit.cli import main
from torickit.configurations import Configuration, config_is_member, config_to_polytuple
from torickit.cox import complete_degrees, cox_report, degree_of, positive_kernel_vector
from torickit.fans import is_complete, is_smooth, validate_fan
from torickit.gaussian import ONE, gaussian, poly, poly_from_roots
from torickit.holmap import PolyTuple, is_member
from torickit.lattice import IntegerMatrix, rational_solve
from torickit.smith import kernel_basis, smith_normal_form
from torickit.stability import discriminant_dims, replay, stability_report


@contextlib.contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - start:.2f}s)")


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_hirzebruch_conformance(tmp_path, capsys):
    paths = {}
    for k in (1, 2, 3):
        from torickit.document import document_from_fan, document_to_obj

        path = tmp_path / f"hirzebruch{k}.json"
        path.write_text(
            json.dumps(document_to_obj(document_from_fan(hirzebruch_fan(k), f"hirzebruch{k}")))
        )
        paths[k] = str(path)

    with criterion(1, "hirzebruch-conformance"):
        start = time.perf_counter()
        for k in (1, 2, 3):
            for d1, d2 in itertools.product(range(1, 6), repeat=2):
                code, out = run_json(
                    capsys, ["stability", paths[k], "--free", f"1={d1},2={d2}"]
                )
                assert code == 0
                assert out["primitive_collections"] == [[1, 3], [2, 4]]
                assert out["r_min"] == 2
                assert out["degrees"] == [d1, d2, d1, k * d1 + d2]
                assert out["stability_dim"] == min(d1, d2) - 2
                assert out["kind"] == "HOMOLOGY"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_2_subfan_census(capsys, tmp_path):
    with criterion(2, "subfan-census"):
        start = time.perf_counter()
        for k in (1, 2, 3):
            fan = hirzebruch_fan(k)
            subfans = enumerate_subfans(fan)
            assert len(subfans) == 15
            for sub in subfans:
                assert validate_fan(sub).valid
                assert is_smooth(sub)
                assert not is_complete(sub)

            from torickit.document import document_from_fan, document_to_obj

            path = tmp_path / f"h{k}.json"
            path.write_text(json.dumps(document_to_obj(document_from_fan(fan))))
            code, out = run_json(capsys, ["subfans", str(path), "--classify"])
            assert code == 0 and out["count"] == 15
            classes = out["classes"]
            # The class count is reported and collisions are flagged, not
            # hidden: every multi-member group appears in `collisions`.
            assert classes["count"] == len(classes["members"])
            assert classes["collisions"] == [g for g in classes["members"] if len(g) > 1]
            assert sum(len(g) for g in classes["members"]) == 15

            # Independent re-check of the partition for k=1: members of one
            # class are isomorphic, representatives pairwise are not.
            if k == 1:
                for group in classes["members"]:
                    for idx in group[1:]:
                        assert fan_isomorphism(subfans[group[0]], subfans[idx]) is not None
                reps = [subfans[g[0]] for g in classes["members"]]
                for a, b in itertools.combinations(reps, 2):
                    assert fan_isomorphism(a, b) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_criterion_3_cp_series():
    with criterion(3, "cp-series"):
        for n in range(1, 5):
            fan = cp_fan(n)
            report = cox_report(fan)
            assert report.condition_span and report.condition_positive_degree
            assert len(kernel_basis(fan.generator_matrix())) == 1
            from torickit.stability import r_min

            assert r_min(fan) == n + 1
            for d in range(1, 6):
                degrees = complete_degrees(fan, {0: d})
                assert degrees.entries == (d,) * (n + 1)
                result = stability_report(fan, degrees)
                assert result.stability_dim == (2 * n - 1) * d - 2
                assert result.kind == ("HOMOTOPY" if n >= 2 else "HOMOLOGY")


def test_criterion_4_negative_control(tmp_path, capsys):
    with criterion(4, "negative-control"):
        fan = c2_fan()
        report = cox_report(fan)
        assert report.condition_span is True
        assert report.condition_positive_degree is False
        assert report.witness_degree is None

        from torickit.document import document_from_fan, document_to_obj

        path = tmp_path / "c2.json"
        path.write_text(json.dumps(document_to_obj(document_from_fan(fan, "c2"))))
        code, out = run_json(capsys, ["stability", str(path), "--degrees", "1,1"])
        assert code != 0
        assert out["error"] == "CONDITION_2_FAILED"


def test_criterion_5_membership_oracle_equivalence():
    rng = random.Random(550)
    fans = [cp_fan(1), cp_fan(2), cp_fan(3), cp_fan(4), hirzebruch_fan(1), hirzebruch_fan(2), c2_fan()]

    def rand_coeff():
        return gaussian(
            Fraction(rng.randint(-7, 7), rng.randint(1, 7)),
            Fraction(rng.randint(-7, 7), rng.randint(1, 7)),
        )

    def rand_point():
        return rand_coeff()

    with criterion(5, "membership-oracle"):
        start = time.perf_counter()
        total = members = nonmembers = config_checked = 0
        for trial in range(1050):
            fan = fans[rng.randrange(len(fans))]
            r = fan.ray_count
            mode = trial % 3
            if mode == 0:
                tup = PolyTuple.from_polys(
                    [
                        poly([rand_coeff() for _ in range(rng.randint(1, 4))] + [ONE])
                        for _ in range(r)
                    ]
                )
            elif mode == 1:
                cfg = Configuration.from_points(
                    [[rand_point() for _ in range(rng.randint(1, 4))] for _ in range(r)]
                )
                tup = config_to_polytuple(cfg)
                assert config_is_member(cfg, fan) == is_member(tup, fan)
                config_checked += 1
            else:
                shared = rand_point()
                tup = PolyTuple.from_polys(
                    [
                        poly_from_roots(
                            [(shared, 1)]
                            + [(rand_point(), 1) for _ in range(rng.randint(0, 3))]
                        )
                        for _ in range(r)
                    ]
                )
            verdict = is_member(tup, fan)
            assert verdict == resultant_is_member(tup, fan)
            total += 1
            members += verdict
            nonmembers += not verdict
        elapsed = time.perf_counter() - start
        assert total >= 1000
        assert config_checked >= 300
        assert members >= 100 and nonmembers >= 100
        assert elapsed < 30.0, f"took {elapsed:.3f}s, budget 30s"


def test_criterion_6_replay_oracle():
    with criterion(6, "replay-oracle"):
        start = time.perf_counter()
        cells = 0
        for rmin in range(2, 7):
            for dmin in range(1, 11):
                result = replay(rmin, dmin)
                closed = (2 * rmin - 3) * dmin - 2
                assert result.stable_dim == closed
                assert result.min_unknown_diagonal == closed + 2
                cells += 1
        assert cells == 50
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_7_lattice_property_suite():
    rng = random.Random(770)

    def in_lattice(basis, vector):
        if not basis:
            return not any(vector)
        rows = [[Fraction(b[i]) for b in basis] for i in range(len(vector))]
        kind, coeffs = rational_solve(rows, [Fraction(v) for v in vector])
        return kind == "unique" and all(c.denominator == 1 for c in coeffs)

    with criterion(7, "lattice-properties"):
        start = time.perf_counter()
        for _ in range(500):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
            )
            snf = smith_normal_form(m)
            assert (snf.U @ m @ snf.V).entries == snf.S.entries
            assert is_unimodular(snf.U) and is_unimodular(snf.V)
            diag = snf.S.diagonal()
            for a, b in zip(diag, diag[1:]):
                if a == 0:
                    assert b == 0
                elif b != 0:
                    assert b % a == 0
            assert all(d >= 0 for d in diag)

            basis = kernel_basis(m)
            assert len(basis) == cols - snf.rank
            for vec in basis:
                assert not any(m.apply(vec))
            if cols <= 4:
                for vec in brute_force_kernel_vectors(m, 2):
                    assert in_lattice(basis, vec)

            witness = positive_kernel_vector(m)
            if witness is not None:
                assert not any(m.apply(witness))
                assert min(witness) >= 1
            elif cols <= 4:
                assert brute_force_positive_vector(m, 6) is None

        # Exhaustive-search agreement, with the box sized to make the
        # equivalence exact: when a witness is claimed the box covers it,
        # and absence claims are checked against the full [1,12]^r box.
        for _ in range(100):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            m = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            ours = positive_kernel_vector(m)
            if ours is None:
                assert brute_force_positive_vector(m, 12) is None
            else:
                assert not any(m.apply(ours)) and min(ours) >= 1
                assert brute_force_positive_vector(m, max(ours)) is not None
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.3f}s, budget 60s"


def test_criterion_8_dimension_bookkeeping():
    with criterion(8, "dimension-bookkeeping"):
        cases = []
        for k in (1, 2, 3):
            fan = hirzebruch_fan(k)
            for d1, d2 in [(1, 1), (2, 3), (4, 2)]:
                cases.append((fan, (d1, d2, d1, k * d1 + d2)))
        for n in range(1, 5):
            for d in (1, 2, 3):
                cases.append((cp_fan(n), (d,) * (n + 1)))

        for fan, entries in cases:
            degrees = degree_of(fan, entries)
            report = stability_report(fan, degrees)
            r = fan.ray_count
            rmin = report.r_min
            n_d = sum(entries)
            for k in range(1, degrees.minimum + 1):
                dims = discriminant_dims(fan, degrees, k)
                assert dims.n_d == n_d
                assert dims.dim_l == 2 * (r - rmin)
                assert dims.dim_c_k == 2 * (1 + r - rmin) * k
                assert dims.bundle_rank_l == 2 * n_d - 2 * r * k + k - 1
                assert (
                    dims.bundle_rank_l + dims.dim_c_k
                    == 2 * n_d + 3 * k - 2 * rmin * k - 1
                )
