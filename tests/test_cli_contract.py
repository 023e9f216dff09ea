"""Byte-level CLI contract: the stdout bytes and exit code of every
subcommand on success, an invalid fan, an unreadable or malformed document,
a computation error and a usage error, in json and in text mode, plus
unnamed documents, the TORICKIT_MAX_R cap on rays and on the dimension,
and the maximal-cone, d_min, degree and subfan-count caps.

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

from torickit.cli import main
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


# cp2 with two zero coordinates appended: 3 rays in dimension 4.
CP2_PADDED = {
    "schema_version": 1,
    "dimension": 4,
    "generators": [g + [0, 0] for g in CP2["generators"]],
    "maximal_cones": CP2["maximal_cones"],
}

DOCUMENTS = {
    "h1.json": dict(H1, name="h1"),
    "h1_unnamed.json": H1,
    "cp2.json": dict(CP2, name="cp2"),
    "cp9.json": dict(CP9, name="cp9"),
    "cp1_6.json": dict(cp1_power(6), name="cp1^6"),
    "cp1_7.json": dict(cp1_power(7), name="cp1^7"),
    "cp2_padded.json": dict(CP2_PADDED, name="cp2-padded"),
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

# name -> (argv after the --output option, TORICKIT_MAX_R or None)
CASES = {
    "analyze": (["analyze", "h1.json"], None),
    "analyze-unnamed": (["analyze", "h1_unnamed.json"], None),
    "analyze-no-positive-degree": (["analyze", "c2.json"], None),
    "analyze-invalid": (["analyze", "invalid.json"], None),
    "analyze-invalid-unnamed": (["analyze", "invalid_unnamed.json"], None),
    "analyze-nonsimplicial": (["analyze", "nonsimplicial.json"], None),
    "analyze-missing": (["analyze", "missing.json"], None),
    "analyze-malformed": (["analyze", "malformed.json"], None),
    "analyze-bad-version": (["analyze", "bad_version.json"], None),
    "analyze-not-an-object": (["analyze", "list.json"], None),
    "analyze-usage": (["analyze"], None),
    "analyze-at-max-r": (["analyze", "h1.json"], "4"),
    "analyze-above-max-r": (["analyze", "h1.json"], "3"),
    "analyze-max-r-not-integer": (["analyze", "h1.json"], "abc"),
    "analyze-at-dimension-cap": (["analyze", "cp2_padded.json"], "4"),
    "analyze-above-dimension-cap": (["analyze", "cp2_padded.json"], "3"),
    "analyze-at-cone-cap": (["analyze", "cp1_6.json"], None),
    "analyze-above-cone-cap": (["analyze", "cp1_7.json"], None),
    "stability-free": (["stability", "h1.json", "--free", "1=3,2=5"], None),
    "stability-degrees": (["stability", "cp2.json", "--degrees", "2,2,2"], None),
    "stability-unnamed": (["stability", "h1_unnamed.json", "--free", "1=3,2=5"], None),
    "stability-invalid": (["stability", "invalid.json", "--degrees", "1,1,1"], None),
    "stability-invalid-unnamed": (["stability", "invalid_unnamed.json", "--free", "1=1"], None),
    "stability-missing": (["stability", "missing.json", "--free", "1=1"], None),
    "stability-condition-2": (["stability", "c2.json", "--degrees", "1,1"], None),
    "stability-condition-before-pins": (["stability", "c2.json", "--free", "1=0"], None),
    "stability-not-in-kernel": (["stability", "h1.json", "--degrees", "1,1,2,2"], None),
    "stability-underdetermined": (["stability", "h1.json", "--free", "1=1"], None),
    "stability-pin-out-of-range": (["stability", "h1.json", "--free", "0=3"], None),
    "stability-pin-not-positive": (["stability", "h1.json", "--free", "1=2,3=0"], None),
    # Every pin index is checked against the range before any pinned value.
    "stability-pin-range-before-value": (["stability", "h1.json", "--free", "2=0,9=3"], None),
    "stability-usage-no-degrees": (["stability", "h1.json"], None),
    "stability-usage-bad-degrees": (["stability", "h1.json", "--degrees", "1,x"], None),
    "stability-usage-repeated-pin": (["stability", "h1.json", "--free", "1=3,1=7"], None),
    "stability-above-max-r": (["stability", "h1.json", "--free", "1=3,2=5"], "3"),
    "stability-above-d-min-cap": (["stability", "cp2.json", "--degrees", f"{MAX_D_MIN + 1},{MAX_D_MIN + 1},{MAX_D_MIN + 1}"], None),
    "holcheck-member": (["holcheck", "h1.json", "member.json"], None),
    "holcheck-common-root": (["holcheck", "h1.json", "common_root.json"], None),
    "holcheck-unnamed": (["holcheck", "h1_unnamed.json", "member.json"], None),
    "holcheck-invalid": (["holcheck", "invalid.json", "member.json"], None),
    "holcheck-invalid-before-tuple": (["holcheck", "invalid_unnamed.json", "missing.json"], None),
    "holcheck-missing-fan": (["holcheck", "missing.json", "member.json"], None),
    "holcheck-malformed-tuple": (["holcheck", "h1.json", "malformed.json"], None),
    "holcheck-empty-tuple": (["holcheck", "h1.json", "empty_tuple.json"], None),
    "holcheck-tuple-not-an-object": (["holcheck", "h1.json", "list.json"], None),
    "holcheck-degree-mismatch": (["holcheck", "cp2.json", "member.json"], None),
    "holcheck-usage": (["holcheck", "h1.json"], None),
    "holcheck-above-max-r": (["holcheck", "h1.json", "member.json"], "3"),
    "stabilize": (["stabilize", "h1.json", "member.json", "--increment", "1,1,1,2"], None),
    "stabilize-unnamed": (["stabilize", "h1_unnamed.json", "common_root.json", "--increment", "1,1,1,2"], None),
    "stabilize-invalid": (["stabilize", "invalid.json", "member.json", "--increment", "1,1,1"], None),
    "stabilize-missing-tuple": (["stabilize", "h1.json", "missing.json", "--increment", "1,1,1,2"], None),
    "stabilize-tuple-version": (["stabilize", "h1.json", "boolean_version_tuple.json", "--increment", "1,1,1,2"], None),
    "stabilize-non-kernel": (["stabilize", "h1.json", "member.json", "--increment", "1,1,1,1"], None),
    # A kernel vector of H1 that lifts the first polynomial to MAX_DEGREE + 1.
    "stabilize-above-degree-cap": (["stabilize", "h1.json", "member.json", "--increment", f"{MAX_DEGREE},1,{MAX_DEGREE},{MAX_DEGREE + 1}"], None),
    "stabilize-degree-mismatch": (["stabilize", "cp2.json", "member.json", "--increment", "1,1,1"], None),
    "stabilize-usage": (["stabilize", "h1.json", "member.json"], None),
    "subfans": (["subfans", "h1.json"], None),
    "subfans-classify": (["subfans", "cp2.json", "--classify"], None),
    "subfans-unnamed": (["subfans", "h1_unnamed.json", "--classify"], None),
    "subfans-invalid": (["subfans", "invalid.json"], None),
    "subfans-invalid-unnamed": (["subfans", "invalid_unnamed.json", "--classify"], None),
    "subfans-bad-version": (["subfans", "bad_version.json"], None),
    "subfans-usage": (["subfans", "cp2.json", "--bogus"], None),
    "subfans-above-count-cap": (["subfans", "cp9.json"], None),
    "subfans-above-cone-cap": (["subfans", "cp1_7.json"], None),
    "no-subcommand": ([], None),
}
OUTPUTS = ("json", "text")


def write_documents(directory: Path) -> None:
    for name, obj in DOCUMENTS.items():
        (directory / name).write_text(json.dumps(obj))
    (directory / "malformed.json").write_text(MALFORMED)


def run_case(name: str, output: str, directory: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one case run in `directory`."""
    argv, max_r = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, saved = os.getcwd(), os.environ.pop("TORICKIT_MAX_R", None)
    if max_r is not None:
        os.environ["TORICKIT_MAX_R"] = max_r
    try:
        os.chdir(directory)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--output", output, *argv])
    finally:
        os.chdir(cwd)
        os.environ.pop("TORICKIT_MAX_R", None)
        if saved is not None:
            os.environ["TORICKIT_MAX_R"] = saved
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
    assert sorted(golden) == sorted(f"{name} {output}" for name in CASES for output in OUTPUTS)


def test_every_exit_code_on_every_subcommand(golden):
    codes = {}
    for key, expected in golden.items():
        command = (CASES[key.split()[0]][0] or ["none"])[0]
        codes.setdefault(command, set()).add(expected["exit"])
    # analyze raises no computation error on a valid fan; subfans raises
    # only the subfan-count cap.
    assert codes == {
        "none": {1},
        "analyze": {0, 1, 2},
        "subfans": {0, 1, 2, 3},
        "stability": {0, 1, 2, 3},
        "holcheck": {0, 1, 2, 3},
        "stabilize": {0, 1, 2, 3},
    }


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("name", list(CASES))
def test_stdout_and_exit_code(name, output, documents, golden):
    code, stdout, stderr = run_case(name, output, documents)
    expected = golden[f"{name} {output}"]
    assert (code, stdout) == (expected["exit"], expected["stdout"])
    assert stderr == ""


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(Path(tmp))
        results = {}
        for name in CASES:
            for output in OUTPUTS:
                code, stdout, _ = run_case(name, output, Path(tmp))
                results[f"{name} {output}"] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
