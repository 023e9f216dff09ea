"""Byte-level CLI contract: the stdout bytes and exit code of every
subcommand on success, an invalid fan, an unreadable or malformed document,
a computation error and a usage error, plus unnamed documents, a
document with a key outside its schema, the retired `--output` option,
integer lists in argv that `int()` would read but `-?[0-9]+` refuses, the
JSON help, and the ray, dimension, maximal-cone, d_min, degree and
subfan-count caps.

The expected output is in cli_contract.json next to this file. After an
intended change of output, rewrite it with
`PYTHONPATH=src python tests/test_cli_contract.py` and review the diff.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from torickit.catalog import cp_fan
from torickit.cli import main
from torickit.document import MAX_RAYS, document_from_fan, document_to_obj
from torickit.holmap import MAX_DEGREE
from torickit.stability import MAX_D_MIN

GOLDEN = Path(__file__).with_name("cli_contract.json")

H1 = {
    "schema_version": 1,
    "dimension": 2,
    "generators": [[1, 0], [0, 1], [-1, 1], [0, -1]],
    "maximal_cones": [[1, 2], [1, 4], [2, 3], [3, 4]],
}
CP2 = {
    "schema_version": 1,
    "dimension": 2,
    "generators": [[1, 0], [0, 1], [-1, -1]],
    "maximal_cones": [[1, 2], [1, 3], [2, 3]],
}
C2 = {"schema_version": 1, "dimension": 2, "generators": [[1, 0], [0, 1]], "maximal_cones": [[1], [2]]}
# The cone on ray 3 meets the cone on rays 1 and 2 in its interior.
INVALID = {
    "schema_version": 1,
    "dimension": 2,
    "generators": [[1, 0], [0, 1], [1, 1]],
    "maximal_cones": [[1, 2], [3]],
}

# One cone on four plane rays: dependent, like each of its triples.
NONSIMPLICIAL = {
    "schema_version": 1,
    "dimension": 2,
    "generators": [[1, 0], [1, 1], [1, 2], [1, 3]],
    "maximal_cones": [[1, 2, 3, 4]],
}

# cp9: 10 rays and 45 edges, so at least 2^45 proper subfans.
CP9 = {
    "schema_version": 1,
    "dimension": 9,
    "generators": [[int(i == j) for j in range(9)] for i in range(9)] + [[-1] * 9],
    "maximal_cones": [[k for k in range(1, 11) if k != skip] for skip in range(1, 11)],
}


def cp1_power(k):
    """cp1^k: the rays +-e_i, one maximal cone per sign pattern (2^k)."""
    cones = [[]]
    for i in range(k):
        cones = [cone + [2 * i + s] for cone in cones for s in (1, 2)]
    gens = [[sign * int(i == j) for j in range(k)] for i in range(k) for sign in (1, -1)]
    return {"schema_version": 1, "dimension": k, "generators": gens, "maximal_cones": cones}


def cp2_padded(dimension):
    """cp2 with zero coordinates appended: 3 rays in `dimension`."""
    return dict(
        CP2,
        dimension=dimension,
        generators=[g + [0] * (dimension - 2) for g in CP2["generators"]],
    )


# The MAX_RAYS coordinate rays of Z^MAX_RAYS in one maximal cone.
ONE_CONE_AT_RAY_CAP = {
    "schema_version": 1,
    "dimension": MAX_RAYS,
    "generators": [[int(i == j) for j in range(MAX_RAYS)] for i in range(MAX_RAYS)],
    "maximal_cones": [list(range(1, MAX_RAYS + 1))],
}

DOCUMENTS = {
    "h1.json": dict(H1, name="h1"),
    "h1_unnamed.json": H1,
    "cp2.json": dict(CP2, name="cp2"),
    "cp9.json": dict(CP9, name="cp9"),
    "cp1_6.json": dict(cp1_power(6), name="cp1^6"),
    "cp1_7.json": dict(cp1_power(7), name="cp1^7"),
    "one_cone_at_ray_cap.json": dict(ONE_CONE_AT_RAY_CAP, name="one-cone-at-ray-cap"),
    # MAX_RAYS + 1 rays and as many maximal cones.
    "cp20.json": document_to_obj(document_from_fan(cp_fan(MAX_RAYS), "cp20")),
    "cp2_at_dimension_cap.json": dict(cp2_padded(MAX_RAYS), name="cp2-padded"),
    "cp2_above_dimension_cap.json": dict(cp2_padded(MAX_RAYS + 1), name="cp2-padded"),
    "unknown_key.json": dict(H1, name="h1", colour="red"),
    "c2.json": dict(C2, name="c2"),
    "invalid.json": dict(INVALID, name="invalid"),
    "invalid_unnamed.json": INVALID,
    "nonsimplicial.json": dict(NONSIMPLICIAL, name="nonsimplicial"),
    "bad_version.json": dict(H1, schema_version=2),
    "member.json": {
        "schema_version": 1,
        "polynomials": [[["1", "0"]], [["2", "0"]], [["3", "0"]], [["4", "0"], ["5", "0"]]],
    },
    # The first and third polynomials share the root 0; {1, 3} is primitive.
    "common_root.json": {
        "schema_version": 1,
        "polynomials": [[["0", "0"]], [["2", "0"]], [["0", "0"]], [["4", "0"], ["5", "0"]]],
    },
    "empty_tuple.json": {"schema_version": 1, "polynomials": []},
    "boolean_version_tuple.json": {"schema_version": True, "polynomials": [[["1", "0"]]]},
    "list.json": [],
}
MALFORMED = "{oops"

# name -> argv
CASES = {
    "analyze": ["analyze", "h1.json"],
    "analyze-unnamed": ["analyze", "h1_unnamed.json"],
    "analyze-no-positive-degree": ["analyze", "c2.json"],
    "analyze-invalid": ["analyze", "invalid.json"],
    "analyze-invalid-unnamed": ["analyze", "invalid_unnamed.json"],
    "analyze-nonsimplicial": ["analyze", "nonsimplicial.json"],
    "analyze-missing": ["analyze", "missing.json"],
    "analyze-malformed": ["analyze", "malformed.json"],
    "analyze-bad-version": ["analyze", "bad_version.json"],
    "analyze-not-an-object": ["analyze", "list.json"],
    "analyze-usage": ["analyze"],
    "analyze-unknown-key": ["analyze", "unknown_key.json"],
    "analyze-at-max-r": ["analyze", "one_cone_at_ray_cap.json"],
    "analyze-above-max-r": ["analyze", "cp20.json"],
    "analyze-at-dimension-cap": ["analyze", "cp2_at_dimension_cap.json"],
    "analyze-above-dimension-cap": ["analyze", "cp2_above_dimension_cap.json"],
    "analyze-at-cone-cap": ["analyze", "cp1_6.json"],
    "analyze-above-cone-cap": ["analyze", "cp1_7.json"],
    "stability-free": ["stability", "h1.json", "--free", "1=3,2=5"],
    "stability-degrees": ["stability", "cp2.json", "--degrees", "2,2,2"],
    "stability-unnamed": ["stability", "h1_unnamed.json", "--free", "1=3,2=5"],
    "stability-invalid": ["stability", "invalid.json", "--degrees", "1,1,1"],
    "stability-invalid-unnamed": ["stability", "invalid_unnamed.json", "--free", "1=1"],
    "stability-missing": ["stability", "missing.json", "--free", "1=1"],
    "stability-condition-2": ["stability", "c2.json", "--degrees", "1,1"],
    "stability-condition-before-pins": ["stability", "c2.json", "--free", "1=0"],
    "stability-not-in-kernel": ["stability", "h1.json", "--degrees", "1,1,2,2"],
    "stability-underdetermined": ["stability", "h1.json", "--free", "1=1"],
    "stability-pin-out-of-range": ["stability", "h1.json", "--free", "0=3"],
    "stability-pin-not-positive": ["stability", "h1.json", "--free", "1=2,3=0"],
    # Every pin index is checked against the range before any pinned value.
    "stability-pin-range-before-value": ["stability", "h1.json", "--free", "2=0,9=3"],
    "stability-usage-no-degrees": ["stability", "h1.json"],
    "stability-usage-bad-degrees": ["stability", "h1.json", "--degrees", "1,x"],
    "stability-usage-repeated-pin": ["stability", "h1.json", "--free", "1=3,1=7"],
    # Each entry of an integer list must fully match -?[0-9]+ in ASCII.
    "stability-usage-underscore-degrees": ["stability", "cp2.json", "--degrees", "1_0,10,10"],
    "stability-usage-plus-degrees": ["stability", "cp2.json", "--degrees", "+3,3,3"],
    "stability-usage-non-ascii-degrees": ["stability", "cp2.json", "--degrees", "\u0663,\u0663,\u0663"],
    "stability-usage-plus-pin": ["stability", "h1.json", "--free", "1=+3,2=5"],
    "stability-above-max-r": ["stability", "cp20.json", "--free", "1=3,2=5"],
    "stability-above-d-min-cap": ["stability", "cp2.json", "--degrees", f"{MAX_D_MIN + 1},{MAX_D_MIN + 1},{MAX_D_MIN + 1}"],
    "holcheck-member": ["holcheck", "h1.json", "member.json"],
    "holcheck-common-root": ["holcheck", "h1.json", "common_root.json"],
    "holcheck-unnamed": ["holcheck", "h1_unnamed.json", "member.json"],
    "holcheck-invalid": ["holcheck", "invalid.json", "member.json"],
    "holcheck-invalid-before-tuple": ["holcheck", "invalid_unnamed.json", "missing.json"],
    "holcheck-missing-fan": ["holcheck", "missing.json", "member.json"],
    "holcheck-malformed-tuple": ["holcheck", "h1.json", "malformed.json"],
    "holcheck-empty-tuple": ["holcheck", "h1.json", "empty_tuple.json"],
    "holcheck-tuple-not-an-object": ["holcheck", "h1.json", "list.json"],
    "holcheck-degree-mismatch": ["holcheck", "cp2.json", "member.json"],
    "holcheck-usage": ["holcheck", "h1.json"],
    "holcheck-above-max-r": ["holcheck", "cp20.json", "member.json"],
    "stabilize": ["stabilize", "h1.json", "member.json", "--increment", "1,1,1,2"],
    "stabilize-unnamed": ["stabilize", "h1_unnamed.json", "common_root.json", "--increment", "1,1,1,2"],
    "stabilize-invalid": ["stabilize", "invalid.json", "member.json", "--increment", "1,1,1"],
    "stabilize-missing-tuple": ["stabilize", "h1.json", "missing.json", "--increment", "1,1,1,2"],
    "stabilize-tuple-version": ["stabilize", "h1.json", "boolean_version_tuple.json", "--increment", "1,1,1,2"],
    "stabilize-non-kernel": ["stabilize", "h1.json", "member.json", "--increment", "1,1,1,1"],
    # A kernel vector of H1 that lifts the first polynomial to MAX_DEGREE + 1.
    "stabilize-above-degree-cap": ["stabilize", "h1.json", "member.json", "--increment", f"{MAX_DEGREE},1,{MAX_DEGREE},{MAX_DEGREE + 1}"],
    "stabilize-degree-mismatch": ["stabilize", "cp2.json", "member.json", "--increment", "1,1,1"],
    "stabilize-usage": ["stabilize", "h1.json", "member.json"],
    "stabilize-usage-underscore-increment": ["stabilize", "h1.json", "member.json", "--increment", "1_1,1,1,2"],
    "subfans": ["subfans", "h1.json"],
    "subfans-classify": ["subfans", "cp2.json", "--classify"],
    "subfans-unnamed": ["subfans", "h1_unnamed.json", "--classify"],
    "subfans-invalid": ["subfans", "invalid.json"],
    "subfans-invalid-unnamed": ["subfans", "invalid_unnamed.json", "--classify"],
    "subfans-bad-version": ["subfans", "bad_version.json"],
    "subfans-usage": ["subfans", "cp2.json", "--bogus"],
    "subfans-above-count-cap": ["subfans", "cp9.json"],
    "subfans-above-cone-cap": ["subfans", "cp1_7.json"],
    "no-subcommand": [],
    # There is no global option: this is a usage error.
    "output-flag-retired": ["--output", "json", "analyze", "h1.json"],
    # Help is one JSON body with exit 0, wherever -h or --help stands.
    "help": ["--help"],
    "analyze-help": ["analyze", "h1.json", "-h"],
}


def write_documents(directory: Path) -> None:
    for name, obj in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(obj))
    (directory / "malformed.json").write_text(MALFORMED)


def run_case(name: str, directory: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case run in `directory`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(directory)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(CASES[name])
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    write_documents(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_every_body_is_one_json_object(golden):
    for name, expected in golden.items():
        body = json.loads(expected["stdout"])
        assert isinstance(body, dict) and body["schema_version"] == 1, name


def test_every_exit_code_on_every_subcommand(golden):
    # analyze raises no computation error on a valid fan; subfans raises
    # only the subfan-count cap. With no subcommand, only help exits 0.
    expected_codes = {
        "none": {0, 1},
        "analyze": {0, 1, 2},
        "subfans": {0, 1, 2, 3},
        "stability": {0, 1, 2, 3},
        "holcheck": {0, 1, 2, 3},
        "stabilize": {0, 1, 2, 3},
    }
    codes = {}
    for name, case in golden.items():
        # A case that starts with no subcommand fails before one runs.
        command = next(iter(CASES[name]), "none")
        command = command if command in expected_codes else "none"
        codes.setdefault(command, set()).add(case["exit"])
    assert codes == expected_codes


# Test ids keep the "-json" suffix they carried when each case also had a
# text rendering, so a case's test name did not change when JSON became the
# only output.
@pytest.mark.parametrize("name", list(CASES), ids=[f"{name}-json" for name in CASES])
def test_stdout_and_exit_code(name, documents, golden):
    code, stdout, stderr = run_case(name, documents)
    expected = golden[name]
    assert (code, stdout) == (expected["exit"], expected["stdout"])
    assert stderr == ""


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(Path(tmp))
        results = {}
        for name in CASES:
            code, stdout, _ = run_case(name, Path(tmp))
            results[name] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
