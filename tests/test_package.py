"""The lazy package: which modules a subcommand runs, the public names, the
contract `perfbench/tracing.py` relies on, and the oldest grammar CI runs.

Each check that depends on what has been imported runs in a fresh
interpreter, since this test process has imported every module already.
"""

import ast
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import torickit
from worst_cases import CLI, fresh_env
from torickit.catalog import hirzebruch_fan

LAZY = {
    "lattice", "smith", "cones", "fans", "census", "cox", "gaussian", "holmap", "configurations", "document",
    "stability", "catalog",
}
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def run_fresh(*args):
    """Run `python -W error args...` with this checkout's torickit first on the path."""
    return subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True, text=True, env=fresh_env(), timeout=60
    )


# The stdlib modules that only argparse loads, and `fractions` with what it
# loads.
ARGPARSE = {"argparse", "gettext", "locale"}
FRACTIONS = {"fractions", "decimal", "numbers"}

# Runs one CLI job, then prints the exit code, which lazily registered
# modules are still unexecuted, which of ARGPARSE | FRACTIONS the job
# loaded (a module that start-up loaded before the job does not count),
# and the names defined in the package and the torickit modules that ran.
RAN_SCRIPT = """
import sys
before = set(sys.modules)
import contextlib, io, json, types
import torickit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = torickit.cli.main(sys.argv[1:])
modules = {name[len("torickit."):]: m for name, m in sys.modules.items() if name.startswith("torickit.")}
print(json.dumps({
    "code": code,
    "ran": sorted(name for name, m in modules.items() if type(m) is types.ModuleType),
    "lazy": sorted(name for name, m in modules.items() if type(m) is not types.ModuleType),
    "stdlib": sorted(name for name in %r if name in sys.modules and name not in before),
    "names": sorted({name for m in [torickit, *modules.values()] if type(m) is types.ModuleType for name in vars(m)}),
}))
""" % sorted(ARGPARSE | FRACTIONS)


@pytest.fixture
def h1_files(write_fan, write_tuple):
    """Hirzebruch 1 and a member tuple of degrees (1, 1, 1, 2)."""
    tup = {"schema_version": 1, "polynomials": [[["1", "0"]], [["2", "0"]], [["3", "0"]], [["4", "0"], ["5", "0"]]]}
    return write_fan(hirzebruch_fan(1), "h1"), write_tuple(tup)


@pytest.fixture
def invalid_fan(write_tuple):
    """Rays 1 and 2 span a cone that contains ray 3: INTERSECTION fails."""
    fan = {"schema_version": 1, "dimension": 2, "generators": [[1, 0], [0, 1], [1, 1]], "maximal_cones": [[1, 2], [3]]}
    return write_tuple(fan, "invalid")


def modules_run(*argv, code=0):
    """A fresh job's run: the torickit modules it ran, the stdlib modules of
    ARGPARSE | FRACTIONS it loaded, and the names its modules define.
    Root configurations stay lazy under every subcommand."""
    proc = run_fresh("-c", RAN_SCRIPT, *argv)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == code
    ran = set(result["ran"])
    assert (ran & LAZY) | set(result["lazy"]) == LAZY  # every module is registered
    assert "configurations" in result["lazy"]
    return ran, set(result["stdlib"]), set(result["names"])


class TestModulesRun:
    @pytest.mark.parametrize("argv", [["analyze"], ["subfans", "--classify"]])
    def test_fan_subcommands(self, argv, h1_files):
        ran, stdlib, _ = modules_run(argv[0], h1_files[0], *argv[1:])
        assert {"fans", "document", "smith"} <= ran
        assert not ran & {"gaussian", "holmap", "stability", "catalog", "cones", "configurations"}
        # Only `subfans` runs the subfan census.
        assert ("census" in ran) == (argv[0] == "subfans")
        assert not stdlib & (ARGPARSE | FRACTIONS)

    def test_stability(self, h1_files):
        ran, stdlib, _ = modules_run("stability", h1_files[0], "--free", "1=3,2=5")
        assert {"cox", "stability"} <= ran
        assert not ran & {"gaussian", "holmap", "catalog", "cones", "census"}
        assert not stdlib & (ARGPARSE | FRACTIONS)

    def test_stability_with_degrees(self, h1_files):
        ran, stdlib, _ = modules_run("stability", h1_files[0], "--degrees", "3,5,3,8")
        assert {"cox", "stability"} <= ran
        assert "census" not in ran
        assert not stdlib & (ARGPARSE | FRACTIONS)

    @pytest.mark.parametrize("extra", [[], ["--increment", "1,1,1,2"]], ids=["holcheck", "stabilize"])
    def test_tuple_subcommands(self, extra, h1_files):
        ran, stdlib, _ = modules_run("stabilize" if extra else "holcheck", *h1_files, *extra)
        assert {"gaussian", "holmap"} <= ran
        assert not ran & {"stability", "catalog", "cox", "cones", "smith", "census"}
        # Gaussian rationals are integer triples: `Fraction`s appear only
        # where a library caller asks for one.
        assert not stdlib & (ARGPARSE | FRACTIONS)

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["stability", "--free", "1=3"], ["holcheck", "t"], ["stabilize", "t", "--increment", "1,1,1"], ["subfans"]],
        ids=lambda argv: argv[0],
    )
    def test_invalid_fan_runs_no_handler(self, argv, invalid_fan):
        # The violations body needs validation only: the module of the
        # subcommand's handler is never read.
        ran, stdlib, _ = modules_run(argv[0], invalid_fan, *argv[1:], code=2)
        assert ran & LAZY == {"document", "fans", "lattice"}
        assert not stdlib & (ARGPARSE | FRACTIONS)

    def test_fan_checks_leave_cones_lazy(self):
        # Validation and smoothness call the LP and the Z-basis test in
        # `lattice`; the cone objects of `cones` stay unexecuted.
        script = (
            "import sys, types; from torickit.catalog import cp_fan; "
            "from torickit.fans import is_smooth, validate_fan; fan = cp_fan(3); "
            "print(validate_fan(fan).valid, is_smooth(fan), "
            "type(sys.modules['torickit.cones']) is types.ModuleType)"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.split() == ["True", "True", "False"]

    def test_run_as_main_without_warnings(self, h1_files):
        # runpy warns when `torickit.cli` is already in sys.modules after the
        # package import, so the package must never register or import it.
        proc = subprocess.run(
            [*CLI, "analyze", h1_files[0]], capture_output=True, text=True, env=fresh_env(), timeout=60
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert json.loads(proc.stdout)["r_min"] == 2


# Per job: names defined only in code that the job's subcommand never runs.
# The handlers of the other subcommands, root configurations, the Cox-side
# kernels and r_min with the non-faces all live outside the modules that
# every job compiles.
NOT_DEFINED = {
    "analyze": {"cmd_holcheck", "cmd_stabilize", "cmd_stability", "cmd_subfans", "Configuration"},
    "stability": {"cmd_holcheck", "cmd_stabilize", "cmd_subfans", "Configuration", "scanning_snapshot"},
    "holcheck": {
        "cmd_analyze", "cmd_stability", "cmd_subfans", "Configuration", "scanning_snapshot",
        "positive_kernel_vector", "r_min", "nonface_family", "poly_eval",
    },
    "subfans": {
        "cmd_analyze", "cmd_stability", "cmd_holcheck", "cmd_stabilize", "Configuration",
        "positive_kernel_vector", "r_min", "nonface_family",
    },
}
NOT_DEFINED["stabilize"] = NOT_DEFINED["holcheck"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["stability", "--free", "1=3,2=5"],
        ["holcheck", "TUPLE"],
        ["stabilize", "TUPLE", "--increment", "1,1,1,2"],
        ["subfans", "--classify"],
    ],
    ids=lambda argv: argv[0],
)
def test_job_compiles_no_code_of_other_subcommands(argv, h1_files):
    fan, tup = h1_files
    _, _, names = modules_run(argv[0], fan, *(tup if word == "TUPLE" else word for word in argv[1:]))
    assert f"cmd_{argv[0]}" in names
    assert not names & NOT_DEFINED[argv[0]]


class TestPublicNames:
    def test_names_are_the_defining_modules_objects(self):
        for name in torickit.__all__:
            value = getattr(torickit, name)
            assert value.__module__.startswith("torickit."), name
            assert value is getattr(sys.modules[value.__module__], name), name

    def test_star_import(self):
        namespace = {}
        exec("from torickit import *", namespace)
        assert set(torickit.__all__) <= set(namespace)
        assert namespace["cp_fan"] is torickit.catalog.cp_fan

    def test_dir_and_modules(self):
        assert set(torickit.__all__) | LAZY <= set(dir(torickit))
        for name in LAZY:
            assert isinstance(getattr(torickit, name), types.ModuleType)
            assert getattr(torickit, name) is sys.modules[f"torickit.{name}"]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            torickit.not_a_name


# The names `perfbench/tracing.py` still reads from the modules they left:
# (old module, new module, name). In `cox` the matrix-level
# `complete_degrees` is `_complete_degrees`, beside the fan-level one.
FORWARDED = [
    ("fans", "census", "enumerate_subfans"),
    ("fans", "census", "fan_isomorphism"),
    ("fans", "census", "isomorphism_classes"),
    ("lattice", "smith", "smith_normal_form"),
    ("lattice", "smith", "kernel_basis"),
    ("lattice", "cox", "positive_kernel_vector"),
    ("lattice", "cox", "complete_degrees"),
]
NEW_NAME = {("cox", "complete_degrees"): "_complete_degrees"}


class TestForwarders:
    @pytest.mark.parametrize("old, new, name", FORWARDED, ids=lambda x: x)
    def test_first_read_is_the_defining_modules_object(self, old, new, name):
        # Reading the name is the first touch of either module.
        new_name = NEW_NAME.get((new, name), name)
        script = (
            f"import sys, torickit; value = torickit.{old}.{name}; "
            f"print(value is getattr(sys.modules['torickit.{new}'], {new_name!r}), "
            f"{name!r} in vars(torickit.{old}))"
        )
        proc = run_fresh("-c", script)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    def test_no_other_name_is_forwarded(self):
        with pytest.raises(AttributeError) as info:
            torickit.fans.not_a_name
        assert str(info.value) == "module 'torickit.fans' has no attribute 'not_a_name'"
        with pytest.raises(AttributeError):
            torickit.fans.MAX_SUBFANS
        with pytest.raises(AttributeError):
            torickit.lattice.SmithDecomposition
        for name in ("_complete_degrees", "cox_report", "cmd_analyze"):
            with pytest.raises(AttributeError):
                getattr(torickit.lattice, name)
        with pytest.raises(ImportError):
            from torickit.lattice import not_a_name  # noqa: F401


# Four threads per module, released together by a barrier right after
# `import torickit`, each read every public name of a module whose code has
# not run yet: two as attributes, two by `from ... import`.
THREADS_SCRIPT = """
import importlib, sys, threading
import torickit
sys.setswitchinterval(1e-6)
errors = []

def read(module, names, by_import, barrier):
    barrier.wait()
    try:
        if by_import:
            exec(f"from torickit.{module} import {', '.join(names)}", {})
        else:
            lazy = getattr(torickit, module)
            for name in names:
                getattr(lazy, name)
    except Exception as exc:
        errors.append(f"{module}: {exc!r}")

for module, names in torickit._EXPORTS.items():
    barrier = threading.Barrier(4)
    threads = [threading.Thread(target=read, args=(module, names, i % 2, barrier)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
print("\\n".join(errors))
"""


def test_threads_first_reading_a_module_see_it_whole():
    proc = run_fresh("-c", THREADS_SCRIPT)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.strip() == ""


def test_running_code_reading_its_own_unbound_name_is_refused():
    # As in a circular import: the module's own code reads a name of the
    # module before binding it, and must not run the module a second time.
    class Loader:
        def create_module(self, spec):
            return None

        def exec_module(self, module):
            module.early = 1
            with pytest.raises(AttributeError) as info:
                module.late
            module.late = str(info.value)

    module = importlib.util.module_from_spec(importlib.util.spec_from_loader("probe", Loader()))
    module.__class__ = torickit._LazyModule
    assert module.early == 1 and type(module) is types.ModuleType
    assert module.late == "partially initialized module 'probe' has no attribute 'late'"


def test_vars_and_dir_run_the_module():
    # The benchmark tracer finds the bindings to patch through `vars()`.
    script = "import torickit; print('is_member' in vars(torickit.holmap), 'cox_report' in dir(torickit.cox))"
    proc = run_fresh("-c", script)
    assert proc.returncode == 0 and proc.stdout.strip() == "True True", proc.stderr


def test_package_binds_a_public_name_on_first_read():
    proc = run_fresh("-c", "import torickit; torickit.cox_report; print('cox_report' in vars(torickit))")
    assert proc.returncode == 0 and proc.stdout.strip() == "True", proc.stderr


# Installs the benchmark tracer after `import torickit, torickit.cli`, which
# leaves the subcommand modules unexecuted, and prints calls per function.
TRACE_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import torickit, torickit.cli
import tracing
tracer = tracing.Tracer()
tracer.install()
tracer.current_job = 0
with contextlib.redirect_stdout(io.StringIO()):
    codes = [torickit.cli.main(argv) for argv in json.loads(sys.argv[2])]
tracer.uninstall()
calls = {name: entry["calls"] for name, entry in tracer.summary().items()}
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_tracer_sees_lazily_loaded_modules(h1_files):
    fan, tup = h1_files
    jobs = [["stability", fan, "--free", "1=3,2=5"], ["holcheck", fan, tup]]
    proc = run_fresh("-c", TRACE_SCRIPT, str(PERFBENCH), json.dumps(jobs))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    calls = result["calls"]
    assert calls["cli.main"] == 2
    assert calls["cox.cox_report"] == 1
    assert calls["holmap.violating_collections"] == 1
    assert calls["document.load_poly_tuple_file"] == 1


def test_tracer_counts_the_forwarded_names(h1_files):
    # The census, Smith and Cox-side kernel functions are traced under the
    # names of the modules they left; the tracer must still count their calls.
    fan = h1_files[0]
    jobs = [["subfans", fan, "--classify"], ["analyze", fan], ["stability", fan, "--free", "1=3,2=5"]]
    proc = run_fresh("-c", TRACE_SCRIPT, str(PERFBENCH), json.dumps(jobs))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    calls = result["calls"]
    assert calls["fans.enumerate_subfans"] == 1
    assert calls["fans.isomorphism_classes"] == 1
    assert calls["lattice.smith_normal_form"] >= 1
    assert calls["lattice.positive_kernel_vector"] >= 1
    assert calls["lattice.complete_degrees"] >= 1


def starred_beyond_3_10(tree):
    """The PEP 646 starred nodes in a tree: a `*args` annotation, and a
    starred subscript, as the slice or an element of a tuple slice. They
    are 3.11 syntax that `feature_version=(3, 10)` accepts. `a[(*b,)]`,
    legal in 3.10, has the same tree as `a[*b,]` and is refused too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments) and node.vararg is not None:
            found.append(node.vararg.annotation)
        elif isinstance(node, ast.Subscript):
            found.append(node.slice)
            if isinstance(node.slice, ast.Tuple):
                found.extend(node.slice.elts)
    return [node for node in found if isinstance(node, ast.Starred)]


@pytest.mark.parametrize(
    "source,refused",
    [
        ("def g(*args: *Ts): pass", True),
        ("x: tuple[*Ts]", True),
        ("def f() -> tuple[*Ts]: pass", True),
        ("a[*b]", True),
        ("a[1, *b]", True),
        ("f(*b)", False),
        ("[*a]", False),
        ("a, *b = c", False),
        ("def g(*args: int): pass", False),
        ("a[[*b]]", False),
    ],
)
def test_starred_beyond_3_10(source, refused):
    assert bool(starred_beyond_3_10(ast.parse(source, feature_version=(3, 10)))) is refused


def test_sources_parse_under_the_python_3_10_grammar():
    """CI also runs CPython 3.10. This guards syntax only: `feature_version`
    is best effort, and library calls or behaviour that differ between
    versions pass it unseen. The walk refuses the PEP 646 starred forms it
    lets through."""
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        assert not starred_beyond_3_10(tree), path
