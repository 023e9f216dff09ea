import collections
import json

import jsonschema
import pytest

import torickit.cli
import torickit.fans
import torickit.stability

from torickit.catalog import c2_fan, cp_fan, hirzebruch_fan
from torickit.cli import main
from torickit.fans import Fan
from torickit.schemas import (
    ANALYZE_OUTPUT_SCHEMA,
    ERROR_OUTPUT_SCHEMA,
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


class TestAnalyze:
    def test_hirzebruch(self, write_fan, run_cli):
        path = write_fan(hirzebruch_fan(1), "h1")
        code, out = run_cli("analyze", path)
        assert code == 0
        jsonschema.validate(out, ANALYZE_OUTPUT_SCHEMA)
        assert out["r_min"] == 2
        assert out["primitive_collections"] == [[1, 3], [2, 4]]
        assert out["smooth"] and out["complete"]

    def test_cp19_at_the_default_cap(self, write_fan, run_cli, monkeypatch):
        monkeypatch.delenv("TORICKIT_MAX_R", raising=False)
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

    def test_max_r_cap(self, write_fan, run_cli, monkeypatch):
        monkeypatch.setenv("TORICKIT_MAX_R", "3")
        code, out = run_cli("analyze", write_fan(hirzebruch_fan(1), "h1"))
        assert code == 1
        assert out["error"] == "DOCUMENT_ERROR"

    def test_max_r_must_be_an_integer(self, write_fan, run_cli, monkeypatch):
        monkeypatch.setenv("TORICKIT_MAX_R", "abc")
        code, out = run_cli("analyze", write_fan(hirzebruch_fan(1), "h1"))
        assert code == 1
        assert out["error"] == "DOCUMENT_ERROR"
        assert "TORICKIT_MAX_R" in out["message"]

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
            (torickit.cli, "cox_report"),
            (torickit.stability, "cox_report"),
            (torickit.cli, "primitive_collections"),
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


class TestTextOutput:
    def test_analyze_text_mode(self, write_fan, capsys):
        path = write_fan(hirzebruch_fan(1), "h1")
        assert main(["--output", "text", "analyze", path]) == 0
        out = capsys.readouterr().out
        assert "r_min: 2" in out
