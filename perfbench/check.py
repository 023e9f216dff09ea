"""Answer checkers for benchmark jobs.

A job's `expect` block (written by gen.py from the construction) holds:

- `exit`: the required exit code;
- `fields`: required values in the JSON body, keyed by dotted path;
- `violations` (optional): the exact set of violated axioms and witnesses;
- `partition` (optional): the subfan classes must partition all indices.

`check` returns None for a correct answer and a one-line reason otherwise.
`tamper` returns a copy of a correct body with its first required field
wrong, so a run can confirm that the checker rejects a wrong verdict.
"""

from __future__ import annotations

import copy
import json

MISSING = object()


def _get(body, path: str):
    for key in path.split("."):
        if not isinstance(body, dict) or key not in body:
            return MISSING
        body = body[key]
    return body


def _violation_set(violations) -> set:
    return {
        (v["axiom"], frozenset(tuple(w) for w in v["witness"])) for v in violations
    }


def check_body(expect: dict, body) -> str | None:
    for path, want in expect["fields"].items():
        got = _get(body, path)
        if got is MISSING:
            return f"missing {path}"
        if got != want:
            return f"{path} = {json.dumps(got)[:80]}, expected {json.dumps(want)[:80]}"
    if "violations" in expect:
        if _violation_set(body.get("violations", [])) != _violation_set(expect["violations"]):
            return f"violations {json.dumps(body.get('violations'))[:120]}"
    if expect.get("partition"):
        classes = body.get("classes", {})
        members = classes.get("members", [])
        flat = sorted(i for group in members for i in group)
        if flat != list(range(body["count"])):
            return "subfan classes do not partition the subfans"
        if classes.get("count") != len(members):
            return "class count differs from the number of classes"
        if classes.get("collisions") != [g for g in members if len(g) > 1]:
            return "collisions differ from the classes with several members"
    return None


def check(expect: dict, exit_code: int, stdout: bytes) -> str | None:
    if exit_code != expect["exit"]:
        return f"exit code {exit_code}, expected {expect['exit']}"
    try:
        body = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(body, dict):
        return "stdout is not a JSON object"
    return check_body(expect, body)


def tamper(expect: dict, body: dict) -> dict:
    """The body with its first required field given a wrong value."""
    bad = copy.deepcopy(body)
    path, want = next(iter(expect["fields"].items()))
    *parents, leaf = path.split(".")
    target = bad
    for key in parents:
        target = target[key]
    if isinstance(want, bool):
        target[leaf] = not want
    elif isinstance(want, int):
        target[leaf] = want + 1
    elif isinstance(want, str):
        target[leaf] = want + "_TAMPERED"
    else:
        target[leaf] = [want]
    return bad
