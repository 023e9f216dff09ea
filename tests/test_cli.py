import collections
import gc
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torickit.cli
import torickit.cox
import torickit.fans
import torickit.stability

from strategies import acted_on, pool_fans, shared_root_tuples, unimodular_rows
from worst_cases import ABOVE_CAPS, CLI, DEV_PYTHON, fresh_env
from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan
from torickit.cli import main
from torickit.census import enumerate_subfans
from torickit.document import document_from_fan, document_to_obj, poly_tuple_to_obj
from torickit.fans import Fan, is_smooth
from torickit.holmap import MAX_DEGREE, PolyTuple
from torickit.schemas import (
    ANALYZE_OUTPUT_SCHEMA,
    ERROR_OUTPUT_SCHEMA,
    HELP_OUTPUT_SCHEMA,
    HOLCHECK_OUTPUT_SCHEMA,
    STABILITY_OUTPUT_SCHEMA,
    STABILIZE_OUTPUT_SCHEMA,
    SUBFANS_OUTPUT_SCHEMA,
)

TUPLE_OK = {
    "schema_version": 1,
    "polynomials": [[["1", "0"]], [["2", "0"]], [["3", "0"]], [["4", "0"], ["5", "0"]]],
}
# First and third polynomial share the root 0; {1,3} is a primitive collection.
TUPLE_COMMON_ROOT = {
    "schema_version": 1,
    "polynomials": [[["0", "0"]], [["2", "0"]], [["0", "0"]], [["4", "0"], ["5", "0"]]],
}
# Rays 1 and 2 span a cone that contains ray 3: INTERSECTION fails.
INVALID_FAN = {
    "schema_version": 1,
    "dimension": 2,
    "generators": [[1, 0], [0, 1], [1, 1]],
    "maximal_cones": [[1, 2], [3]],
}


class TestAnalyze:
    def test_hirzebruch(self, write_fan, run_cli):
        path = write_fan(hirzebruch_fan(1), "h1")
        code, out = run_cli("analyze", path)
        assert code == 0
        jsonschema.validate(out, ANALYZE_OUTPUT_SCHEMA)
        assert out["r_min"] == 2
        assert out["primitive_collections"] == [[1, 3], [2, 4]]
        assert out["smooth"] and out["complete"]

    def test_cp19_at_the_default_cap(self, write_fan, run_cli):
        code, out = run_cli("analyze", write_fan(cp_fan(19), "cp19"))
        assert code == 0
        assert out["ray_count"] == 20 and out["r_min"] == 20
        assert out["smooth"] and out["complete"]

    def test_c2(self, write_fan, run_cli):
        code, out = run_cli("analyze", write_fan(c2_fan(), "c2"))
        assert code == 0
        assert out["cox"]["condition_positive_degree"] is False
        assert out["cox"]["witness_degree"] is None

    def test_malformed_json(self, tmp_path, run_cli):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, out = run_cli("analyze", str(path))
        assert code == 1
        jsonschema.validate(out, ERROR_OUTPUT_SCHEMA)
        assert out["error"] == "DOCUMENT_ERROR"

    def test_booleans_are_not_integers(self, write_tuple, run_cli):
        obj = {
            "schema_version": True,
            "dimension": True,
            "generators": [[1], [-1]],
            "maximal_cones": [[True], [2]],
        }
        code, out = run_cli("analyze", write_tuple(obj, "booleans"))
        assert code == 1
        jsonschema.validate(out, ERROR_OUTPUT_SCHEMA)
        assert out["error"] == "DOCUMENT_ERROR"

    def test_invalid_fan_exits_2(self, tmp_path, run_cli):
        obj = {
            "schema_version": 1,
            "dimension": 2,
            "generators": [[1, 0], [0, 1], [1, 1]],
            "maximal_cones": [[1, 2], [3]],
        }
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli("analyze", str(path))
        assert code == 2
        assert out["valid"] is False
        assert any(v["axiom"] == "INTERSECTION" for v in out["violations"])

    def test_max_r_cap(self, write_fan, run_cli):
        code, out = run_cli("analyze", write_fan(cp_fan(20), "cp20"))
        assert (code, out["error"], out["message"]) == (
            1,
            "DOCUMENT_ERROR",
            "fan has 21 rays, above the cap of 20",
        )

    @pytest.mark.parametrize(
        "name, message",
        [
            ("cp1-10.json", "fan lists 1024 maximal cones, above the cap of 64"),
            ("cp5-padded.json", "fan has dimension 3000, above the cap of 20"),
            ("cp20.json", "fan has 21 rays, above the cap of 20"),
        ],
        ids=["cp1^10", "cp5-padded", "cp20"],
    )
    def test_documents_above_the_caps_are_refused_before_validation(
        self, name, message, write_tuple, run_cli, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(torickit.cli, "validate_fan", calls.append)
        code, out = run_cli("analyze", write_tuple(ABOVE_CAPS[name], "above-cap"))
        assert (code, out["error"], out["message"]) == (1, "DOCUMENT_ERROR", message)
        assert calls == []

    def test_full_simplex_reports_null_r_min(self, write_fan, run_cli):
        quadrant = Fan.from_maximal([(1, 0), (0, 1)], [(0, 1)])
        code, out = run_cli("analyze", write_fan(quadrant, "quadrant"))
        assert code == 0
        assert out["r_min"] is None
        assert out["primitive_collections"] == []


class TestStability:
    def test_free_pins(self, write_fan, run_cli):
        path = write_fan(hirzebruch_fan(1), "h1")
        code, out = run_cli("stability", path, "--free", "1=3,2=5")
        assert code == 0
        jsonschema.validate(out, STABILITY_OUTPUT_SCHEMA)
        assert out["degrees"] == [3, 5, 3, 8]
        assert out["stability_dim"] == 1
        assert out["kind"] == "HOMOLOGY"
        assert out["sentence"].endswith("through dimension 1")
        assert out["oracle_dim"] == out["stability_dim"]

    def test_explicit_degrees_cp2(self, write_fan, run_cli):
        path = write_fan(cp_fan(2), "cp2")
        code, out = run_cli("stability", path, "--free", "1=2")
        assert code == 0
        assert out["degrees"] == [2, 2, 2]
        assert out["stability_dim"] == 4
        assert out["kind"] == "HOMOTOPY"

    def test_c2_condition_failure(self, write_fan, run_cli):
        # (1,1) is not a kernel vector of C^2 either; the condition code wins.
        path = write_fan(c2_fan(), "c2")
        for flag, value in (("--degrees", "1,1"), ("--free", "1=1")):
            code, out = run_cli("stability", path, flag, value)
            assert code == 3
            assert out["error"] == "CONDITION_2_FAILED"

    def test_cox_data_computed_once(self, write_fan, run_cli, monkeypatch):
        calls = collections.Counter()
        for module, name in (
            (torickit.cox, "cox_report"),
            (torickit.stability, "cox_report"),
            (torickit.stability, "primitive_collections"),
            (torickit.fans, "primitive_collections"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        code, _ = run_cli("stability", write_fan(hirzebruch_fan(1), "h1"), "--free", "1=3,2=5")
        assert code == 0
        assert calls == {"cox_report": 1, "primitive_collections": 1}

    @pytest.mark.parametrize("flag, value", [("--free", "1=3,2=5"), ("--degrees", "3,5,3,8")])
    def test_one_stability_report_per_job(self, flag, value, write_fan, run_cli, monkeypatch):
        calls = []
        original = torickit.stability.stability_report

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(torickit.stability, "stability_report", counted)
        code, out = run_cli("stability", write_fan(hirzebruch_fan(1), "h1"), flag, value)
        assert code == 0 and out["degrees"] == [3, 5, 3, 8]
        assert len(calls) == 1

    def test_pin_index_reported_one_based(self, write_fan, run_cli):
        code, out = run_cli("stability", write_fan(hirzebruch_fan(1), "h1"), "--free", "0=3")
        assert code == 3
        assert out["error"] == "VALUE_ERROR"
        assert "pin index 0 " in out["message"]

    @pytest.mark.parametrize("pins, index", [("1=0", 1), ("2=-3", 2), ("1=2,3=0", 3)])
    def test_pinned_value_reported_one_based(self, pins, index, write_fan, run_cli):
        code, out = run_cli("stability", write_fan(hirzebruch_fan(1), "h1"), "--free", pins)
        assert code == 3
        assert out["error"] == "VALUE_ERROR"
        assert out["message"] == f"pinned value at index {index} must be a positive integer"
        # The standing conditions are still checked before the pins.
        code, out = run_cli("stability", write_fan(c2_fan(), "c2"), "--free", pins)
        assert code == 3 and out["error"] == "CONDITION_2_FAILED"

    @pytest.mark.parametrize("pins", ["1=3,1=7,2=5", "2=5,1=3,01=3"])
    def test_repeated_pin_index_is_a_usage_error(self, pins, write_fan, run_cli):
        code, out = run_cli("stability", write_fan(hirzebruch_fan(1), "h1"), "--free", pins)
        assert code == 1
        jsonschema.validate(out, ERROR_OUTPUT_SCHEMA)
        assert out["error"] == "USAGE_ERROR"
        assert "repeated pin index 1" in out["message"]

    def test_degree_errors_propagate(self, write_fan, run_cli):
        path = write_fan(hirzebruch_fan(1), "h1")
        code, out = run_cli("stability", path, "--degrees", "1,1,2,2")
        assert code == 3 and out["error"] == "NOT_IN_KERNEL"
        code, out = run_cli("stability", path, "--free", "1=1")
        assert code == 3 and out["error"] == "UNDERDETERMINED"

    def test_d_min_cap_is_checked_last(self, write_fan, run_cli):
        above = torickit.stability.MAX_D_MIN + 1
        cases = [
            (c2_fan(), (above, above), "CONDITION_2_FAILED"),
            (hirzebruch_fan(1), (above, above, above, above), "NOT_IN_KERNEL"),
            (cp_fan(2), (above, above, above), "D_MIN_ABOVE_CAP"),
        ]
        for fan, degrees, error in cases:
            degree_list = ",".join(map(str, degrees))
            code, out = run_cli("stability", write_fan(fan), "--degrees", degree_list)
            assert code == 3 and out["error"] == error


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [["stability"], ["bogus"], ["stability", "FAN", "--degrees", "1,x"]],
    )
    def test_json_body_and_exit_1(self, argv, write_fan, run_cli):
        path = write_fan(cp_fan(2), "cp2")
        code, out = run_cli(*[path if arg == "FAN" else arg for arg in argv])
        assert code == 1
        jsonschema.validate(out, ERROR_OUTPUT_SCHEMA)
        assert out["error"] == "USAGE_ERROR"


CHOICES = "(choose from 'analyze', 'stability', 'holcheck', 'stabilize', 'subfans')"

# argv (CP2, H1 and TUPLE stand for documents) -> (exit code, the body's
# message, or some of its keys on success).
GRAMMAR = {
    "option-before-subcommand": (
        ["--degrees", "2,2,2", "stability", "CP2"],
        (1, f"argument command: invalid choice: '2,2,2' {CHOICES}"),
    ),
    "flag-before-subcommand": (["--classify", "subfans", "CP2"], (1, "unrecognized arguments: --classify")),
    "options-before-positionals": (["stability", "--degrees", "2,2,2", "CP2"], (0, {"degrees": [2, 2, 2]})),
    "equals-form": (["stability", "CP2", "--degrees=2,2,2"], (0, {"degrees": [2, 2, 2]})),
    "equals-form-pins": (["stability", "H1", "--free=1=3,2=5"], (0, {"degrees": [3, 5, 3, 8]})),
    "abbreviated": (["stability", "CP2", "--deg", "2,2,2"], (1, "one of the arguments --degrees --free is required")),
    "abbreviated-equals": (["stability", "CP2", "--deg=2,2,2"], (1, "one of the arguments --degrees --free is required")),
    "abbreviated-required": (
        ["stabilize", "H1", "TUPLE", "--inc", "1,1,1,2"],
        (1, "the following arguments are required: --increment"),
    ),
    "repeated-last-wins": (["stability", "CP2", "--degrees", "1,1,1", "--degrees", "2,2,2"], (0, {"degrees": [2, 2, 2]})),
    "degrees-then-free": (
        ["stability", "H1", "--degrees", "3,5,3,8", "--free", "1=3"],
        (1, "argument --free: not allowed with argument --degrees"),
    ),
    "free-then-degrees": (
        ["stability", "H1", "--free", "1=3", "--degrees", "3,5,3,8"],
        (1, "argument --degrees: not allowed with argument --free"),
    ),
    "bad-value-before-conflict": (
        ["stability", "H1", "--degrees", "3,5,3,8", "--free", "x"],
        (1, "argument --free: bad pin list 'x'"),
    ),
    "missing-value": (["stability", "CP2", "--degrees"], (1, "argument --degrees: expected one argument")),
    "empty-value": (["stability", "CP2", "--degrees="], (1, "argument --degrees: bad degree list ''")),
    # The value of an option is the next word, whatever it is.
    "value-is-the-next-word": (["stability", "CP2", "--degrees", "--free", "1=2"], (1, "argument --degrees: bad degree list '--free'")),
    "negative-degrees": (["stability", "CP2", "--degrees", "-1,2,3"], (3, "degree entries must all be >= 1")),
    "flag-with-value": (["subfans", "CP2", "--classify=yes"], (1, "argument --classify: ignored explicit argument 'yes'")),
    "extra-positional": (["analyze", "H1", "extra.json"], (1, "unrecognized arguments: extra.json")),
    "unknown-options": (["analyze", "H1", "-x", "--y"], (1, "unrecognized arguments: -x --y")),
    "missing-before-one-of": (["stability"], (1, "the following arguments are required: fan")),
    "missing-before-unknown": (["stabilize", "H1", "--bogus"], (1, "the following arguments are required: tuple, --increment")),
    "double-dash-ends-options": (["analyze", "--", "-h"], (1, "cannot read fan document: [Errno 2] No such file or directory: '-h'")),
    "double-dash-before-subcommand": (["--", "analyze", "H1"], (0, {"r_min": 2})),
    # A word that starts with "-" is an option, even one that reads as a number.
    "negative-number-is-an-option": (["analyze", "-5"], (1, "the following arguments are required: fan")),
}


class TestArgvGrammar:
    @pytest.fixture
    def paths(self, write_fan, write_tuple):
        return {
            "CP2": write_fan(cp_fan(2), "cp2"),
            "H1": write_fan(hirzebruch_fan(1), "h1"),
            "TUPLE": write_tuple(TUPLE_OK),
        }

    @pytest.mark.parametrize("case", list(GRAMMAR))
    def test_edge_cases(self, case, paths, run_cli):
        argv, (expected_code, expected) = GRAMMAR[case]
        code, out = run_cli(*[paths.get(arg, arg) for arg in argv])
        assert code == expected_code
        if code == 0:
            assert {key: out[key] for key in expected} == expected
        else:
            assert out["message"] == expected
        if code == 1 and not expected.startswith("cannot read"):
            assert out["error"] == "USAGE_ERROR"

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["analyze", "-h"], ["stability", "CP2", "--degrees", "2,2,2", "--help"], ["--bogus", "-h"]],
    )
    def test_help_is_one_json_body(self, argv, paths, run_cli):
        code, out = run_cli(*[paths.get(arg, arg) for arg in argv])
        assert code == 0
        jsonschema.validate(out, HELP_OUTPUT_SCHEMA)
        assert out == {"schema_version": 1, "usage": torickit.cli.build_parser().usage()}
        commands = ["analyze", "stability", "holcheck", "stabilize", "subfans"]
        assert [line.split()[:2] for line in out["usage"]] == [["torickit", c] for c in commands]

    def test_a_value_error_before_help_wins(self, paths, run_cli):
        code, out = run_cli("stability", paths["CP2"], "--degrees", "x", "-h")
        assert (code, out["message"]) == (1, "argument --degrees: bad degree list 'x'")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--degrees", "1_0,10,10"),
            ("--degrees", "+3,3,3"),
            ("--degrees", "\u0663,\u0663,\u0663"),
            ("--degrees", " 3,3,3"),
            ("--degrees", "3,3,3\n"),
            ("--degrees", "3.0,3,3"),
            ("--free", "1=+3"),
            ("--free", "1_0=3"),
            ("--free", "\u0661=3"),
            ("--free", " 1=3"),
        ],
    )
    def test_integer_lists_are_strict(self, flag, value, paths, run_cli):
        code, out = run_cli("stability", paths["CP2"], flag, value)
        kind = "degree" if flag == "--degrees" else "pin"
        assert (code, out["error"], out["message"]) == (
            1,
            "USAGE_ERROR",
            f"argument {flag}: bad {kind} list {value!r}",
        )

    @pytest.mark.parametrize("value", ["+1,1,1,2", "1_1,1,1,2", "\uff11,1,1,2"])
    def test_increments_are_strict(self, value, paths, run_cli):
        code, out = run_cli("stabilize", paths["H1"], paths["TUPLE"], "--increment", value)
        assert (code, out["message"]) == (1, f"argument --increment: bad degree list {value!r}")


class TestUnreadableDocuments:
    """Every way a document file can fail to parse is DOCUMENT_ERROR, exit 1."""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000],
        ids=["not-utf8", "deeply-nested"],
    )
    @pytest.mark.parametrize("kind", ["fan", "tuple"])
    def test_document_error(self, kind, content, tmp_path, write_fan, run_cli):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        if kind == "fan":
            code, out = run_cli("analyze", str(path))
        else:
            code, out = run_cli("holcheck", write_fan(hirzebruch_fan(1), "h1"), str(path))
        assert code == 1
        jsonschema.validate(out, ERROR_OUTPUT_SCHEMA)
        assert out["error"] == "DOCUMENT_ERROR"
        assert out["message"].startswith(f"cannot read {kind} document: ")


class TestHolcheck:
    def test_member(self, write_fan, write_tuple, run_cli):
        code, out = run_cli(
            "holcheck", write_fan(hirzebruch_fan(1), "h1"), write_tuple(TUPLE_OK)
        )
        assert code == 0
        jsonschema.validate(out, HOLCHECK_OUTPUT_SCHEMA)
        assert out["member"] is True and out["violated_collections"] == []

    def test_common_root_witness(self, write_fan, write_tuple, run_cli):
        code, out = run_cli(
            "holcheck",
            write_fan(hirzebruch_fan(1), "h1"),
            write_tuple(TUPLE_COMMON_ROOT, "bad"),
        )
        assert code == 0
        assert out["member"] is False
        assert out["violated_collections"] == [[1, 3]]

    @pytest.mark.parametrize("excess", [0, 1])
    def test_degree_cap(self, excess, write_fan, write_tuple, run_cli):
        degree = MAX_DEGREE + excess
        # z^degree + 1 in place of the first polynomial.
        polys = [[["1", "0"]] + [["0", "0"]] * (degree - 1), *TUPLE_OK["polynomials"][1:]]
        code, out = run_cli(
            "holcheck",
            write_fan(hirzebruch_fan(1), "h1"),
            write_tuple(dict(TUPLE_OK, polynomials=polys)),
        )
        if excess:
            assert code == 3 and out["error"] == "DEGREE_ABOVE_CAP"
            assert out["message"] == (
                f"polynomial 1 has degree {degree}, above the cap of {MAX_DEGREE}"
            )
        else:
            assert code == 0 and out["member"] is True
            assert out["degrees"] == [degree, 1, 1, 2]


class TestStabilize:
    def test_degree_bookkeeping(self, write_fan, write_tuple, run_cli):
        code, out = run_cli(
            "stabilize",
            write_fan(hirzebruch_fan(1), "h1"),
            write_tuple(TUPLE_OK),
            "--increment",
            "1,1,1,2",
        )
        assert code == 0
        jsonschema.validate(out, STABILIZE_OUTPUT_SCHEMA)
        assert out["degrees_before"] == [1, 1, 1, 2]
        assert out["degrees_after"] == [2, 2, 2, 4]
        assert out["member"] is True
        assert len(out["points"]) == 4

    def test_non_kernel_increment(self, write_fan, write_tuple, run_cli):
        code, out = run_cli(
            "stabilize",
            write_fan(hirzebruch_fan(1), "h1"),
            write_tuple(TUPLE_OK),
            "--increment",
            "1,1,1,1",
        )
        assert code == 3
        assert out["error"] == "NON_KERNEL_INCREMENT"


class TestSubfans:
    def test_census(self, write_fan, run_cli):
        code, out = run_cli("subfans", write_fan(hirzebruch_fan(1), "h1"))
        assert code == 0
        jsonschema.validate(out, SUBFANS_OUTPUT_SCHEMA)
        assert out["count"] == 15
        assert all(s["smooth"] and not s["complete"] for s in out["subfans"])

    def test_classify(self, write_fan, run_cli):
        code, out = run_cli("subfans", write_fan(hirzebruch_fan(2), "h2"), "--classify")
        assert code == 0
        jsonschema.validate(out, SUBFANS_OUTPUT_SCHEMA)
        assert out["classes"]["count"] == 9
        assert len(out["classes"]["collisions"]) == 6
        assert sum(len(g) for g in out["classes"]["members"]) == 15

    def test_smoothness_decided_once_on_a_smooth_fan(self, write_fan, run_cli, monkeypatch):
        # cp2 x cp1: every subfan of a smooth fan is smooth, so only the
        # fan's own six cones get a Z-basis test.
        fan = Fan.from_maximal(
            [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
            [(a, b, c) for a, b in ((0, 1), (1, 2), (0, 2)) for c in (3, 4)],
        )
        calls = []
        original = torickit.smith._extends_to_basis

        def counted(vectors):
            calls.append(vectors)
            return original(vectors)

        monkeypatch.setattr(torickit.smith, "_extends_to_basis", counted)
        code, out = run_cli("subfans", write_fan(fan, "cp2xcp1"))
        assert code == 0 and out["count"] == 1194
        assert all(s["smooth"] for s in out["subfans"])
        assert len(calls) == len(fan.cones) == 6

    def test_subfans_of_a_singular_fan_are_tested_each(self, write_fan, run_cli):
        # P(1,1,2): the cone on rays 1 and 3 has index 2.
        fan = Fan.from_maximal([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
        code, out = run_cli("subfans", write_fan(fan, "p112"))
        assert code == 0
        flags = [s["smooth"] for s in out["subfans"]]
        assert flags == [is_smooth(sub) for sub in enumerate_subfans(fan)]
        assert True in flags and False in flags


def _relabelled(collections, perm=None):
    """One-based index sets as a set of sets, with ray i renamed perm[i]."""
    return {frozenset(i if perm is None else perm[i - 1] + 1 for i in c) for c in collections}


def _permuted(values, perm):
    """The list with values[i] moved to position perm[i]."""
    moved = [None] * len(values)
    for i, value in enumerate(values):
        moved[perm[i]] = value
    return moved


class TestRelabellingInvariance:
    """A fan and its image under GL(n,Z) x S_r give the same bodies up to
    the renaming of rays."""

    # The file and capture fixtures are shared by the examples: each one
    # rewrites its files and reads its own output.
    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pool_fans, st.data())
    def test_bodies_agree_up_to_relabelling(self, tmp_path, run_cli, fan, data):
        perm = data.draw(st.permutations(range(fan.ray_count)))
        image = acted_on(fan, data.draw(unimodular_rows(fan.dim)), perm)
        roots = data.draw(shared_root_tuples(fan.ray_count))

        def save(name, obj):
            (tmp_path / name).write_text(json.dumps(obj))
            return str(tmp_path / name)

        # One document name for both, since analyze and stability echo it.
        fan_path, image_path = (
            save(name, document_to_obj(document_from_fan(f, "pool")))
            for name, f in [("fan.json", fan), ("image.json", image)]
        )

        (code, before), (image_code, after) = (run_cli("analyze", p) for p in (fan_path, image_path))
        assert code == image_code == 0
        assert _relabelled(before.pop("primitive_collections"), perm) == _relabelled(
            after.pop("primitive_collections")
        )
        witness, image_witness = before["cox"].pop("witness_degree"), after["cox"].pop("witness_degree")
        assert before == after
        # The witness breaks ties in ray order, so the image's need only be
        # a positive kernel vector with the same entry sum.
        if witness is None:
            assert image_witness is None
        else:
            assert min(image_witness) > 0 and sum(image_witness) == sum(witness)
            assert not any(
                sum(d * g[k] for d, g in zip(image_witness, image.generators)) for k in range(image.dim)
            )

        degrees = witness or [1] * fan.ray_count
        (code, before), (image_code, after) = (
            run_cli("stability", p, "--degrees", ",".join(map(str, d)))
            for p, d in [(fan_path, degrees), (image_path, _permuted(degrees, perm))]
        )
        assert code == image_code
        if code:
            assert before["error"] == after["error"]
        else:
            assert _relabelled(before.pop("primitive_collections"), perm) == _relabelled(
                after.pop("primitive_collections")
            )
            assert _permuted(before.pop("degrees"), perm) == after.pop("degrees")
            assert before == after

        (code, before), (image_code, after) = (
            run_cli("holcheck", p, save(name, poly_tuple_to_obj(PolyTuple.from_polys(polys))))
            for p, name, polys in [
                (fan_path, "tuple.json", roots.polys),
                (image_path, "image-tuple.json", _permuted(roots.polys, perm)),
            ]
        )
        assert code == image_code == 0
        assert before["member"] is after["member"]
        assert _relabelled(before["violated_collections"], perm) == _relabelled(
            after["violated_collections"]
        )
        assert _permuted(before["degrees"], perm) == after["degrees"]

        (code, before), (image_code, after) = (
            run_cli("subfans", p, "--classify") for p in (fan_path, image_path)
        )
        assert code == image_code == 0
        assert before["count"] == after["count"]
        assert before["classes"]["count"] == after["classes"]["count"]
        sizes = [sorted(map(len, body["classes"]["members"])) for body in (before, after)]
        assert sizes[0] == sizes[1]


class TestDeterminism:
    def test_byte_identical_reruns(self, write_fan, capsys):
        path = write_fan(hirzebruch_fan(3), "h3")
        outputs = []
        for _ in range(2):
            for argv in (
                ["analyze", path],
                ["stability", path, "--free", "1=2,2=2"],
                ["subfans", path, "--classify"],
            ):
                assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestClosedStdout:
    """A reader that has gone away, or no stdout at all, keeps the job's exit
    code and leaves no traceback."""

    @pytest.fixture(params=[("analyze", 0), ("invalid", 2), ("condition-2", 3)], ids=lambda p: p[0])
    def job(self, request, write_fan, write_tuple):
        name, expected = request.param
        argv = {
            "analyze": ["analyze", write_fan(hirzebruch_fan(1), "h1")],
            "invalid": ["analyze", write_tuple(INVALID_FAN, "invalid")],
            "condition-2": ["stability", write_fan(c2_fan(), "c2"), "--degrees", "1,1"],
        }[name]
        return argv, expected

    def test_reader_closed_first(self, job):
        argv, expected = job
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [*CLI, *argv], stdout=write_end, stderr=subprocess.PIPE, env=fresh_env(), timeout=60
            )
        finally:
            os.close(write_end)
        assert proc.returncode == expected
        assert proc.stderr == b""

    def test_no_stdout(self, job, monkeypatch):
        # Python sets sys.stdout to None when file descriptor 1 is closed at start-up.
        argv, expected = job
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == expected


class TestExitPath:
    """Only `run`, which ends a process, freezes the heap; `main` never
    does, and a process that exits through `run` prints what `main` prints."""

    @pytest.fixture
    def jobs(self, write_fan, write_tuple):
        h1 = write_fan(hirzebruch_fan(1), "h1")
        return {
            "analyze": (["analyze", h1], 0),
            "stability": (["stability", h1, "--free", "1=3,2=5"], 0),
            "holcheck": (["holcheck", h1, write_tuple(TUPLE_OK)], 0),
            "stabilize": (["stabilize", h1, write_tuple(TUPLE_OK), "--increment", "1,1,1,2"], 0),
            "subfans": (["subfans", h1, "--classify"], 0),
            "usage": (["analyze"], 1),
            "invalid": (["analyze", write_tuple(INVALID_FAN, "invalid")], 2),
            "condition-2": (["stability", write_fan(c2_fan(), "c2"), "--degrees", "1,1"], 3),
        }

    @pytest.mark.parametrize("name", ["analyze", "stability", "holcheck", "stabilize", "subfans"])
    def test_main_does_not_freeze(self, name, jobs, capsys):
        argv, expected = jobs[name]
        before = gc.get_freeze_count()
        assert main(argv) == expected
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("name", ["analyze", "usage", "invalid", "condition-2"])
    def test_fresh_process_prints_what_main_prints(self, name, jobs, capsys):
        argv, expected = jobs[name]
        assert main(argv) == expected
        in_process = capsys.readouterr().out.encode()
        proc = subprocess.run([*CLI, *argv], capture_output=True, env=fresh_env(), timeout=60)
        assert proc.returncode == expected
        assert proc.stdout == in_process
        assert proc.stderr == b""

    @pytest.mark.parametrize("name", ["analyze", "invalid"])
    def test_run_returns_mains_code_and_freezes(self, name, jobs):
        argv, expected = jobs[name]
        script = (
            "import gc, sys, torickit.cli\n"
            "before = gc.get_freeze_count()\n"
            "code = torickit.cli.run()\n"
            "print(code, before, gc.get_freeze_count())\n"
        )
        proc = subprocess.run(
            [*DEV_PYTHON, "-c", script, *argv], capture_output=True, text=True, env=fresh_env(), timeout=60
        )
        assert proc.returncode == 0 and proc.stderr == ""
        code, before, after = map(int, proc.stdout.splitlines()[-1].split())
        assert code == expected
        assert before == 0 < after
