"""The worst-case corpus table and its runner, without the slow rows.

CI runs every row (`python tests/worst_cases.py ci-out`). Here the table
is checked for shape, every input is rebuilt against its pinned digest,
and the runner is shown to fail a broken row.
"""

import hashlib
import json
import os
import subprocess

import pytest

import worst_cases
from torickit.cli import _COMMANDS

CHEAP = next(row for row in worst_cases.ROWS if row.name == "cp20-analyze")


def test_rows_have_unique_names_and_name_a_subcommand():
    names = [row.name for row in worst_cases.ROWS]
    assert len(set(names)) == len(names)
    assert all(row.argv[0] in _COMMANDS for row in worst_cases.ROWS)


def test_fan_documents_match_their_digests():
    files = {}
    for row in worst_cases.ROWS:
        files.update(row.build())
    assert set(files) == set(worst_cases.DIGESTS)
    for name, obj in files.items():
        digest = hashlib.sha256(json.dumps(obj).encode()).hexdigest()
        assert digest == worst_cases.DIGESTS[name], name


@pytest.mark.parametrize(
    "row, passed",
    [
        (CHEAP, True),
        (CHEAP._replace(exit=0), False),
        (CHEAP._replace(check=lambda r: False), False),
    ],
    ids=["as-is", "wrong-exit", "wrong-check"],
)
def test_the_runner_fails_a_row_whose_expectation_breaks(row, passed, tmp_path, capsys):
    assert worst_cases.run(tmp_path, [row]) is passed
    assert capsys.readouterr().out.startswith(("FAIL", "ok  ")[passed] + " cp20-analyze: ")


def test_a_row_past_the_budget_fails_and_leaves_no_process(tmp_path, capsys, monkeypatch):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(worst_cases, "BUDGET_S", 0.001)
    assert worst_cases.run(tmp_path, [CHEAP]) is False
    assert capsys.readouterr().out == "FAIL cp20-analyze: no exit within 0.001 s\n"
    (child,) = started
    with pytest.raises(ChildProcessError):
        os.waitpid(child.pid, os.WNOHANG)


def test_the_smaller_census_row_passes(tmp_path, capsys):
    # About a second as a fresh process, so tier-1 checks its pinned body
    # too; CI runs the cp1^3 census row beside it.
    row = next(row for row in worst_cases.ROWS if row.name == "cp2xcp1-classes")
    assert worst_cases.run(tmp_path, [row]) is True
    assert capsys.readouterr().out.startswith("ok   cp2xcp1-classes: ")
