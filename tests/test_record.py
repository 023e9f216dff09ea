"""torickit's records against `dataclasses.dataclass(frozen=True)`.

Every record class is compared with a frozen dataclass twin built here
from the same annotations and `__post_init__`; the dataclass is the
reference for repr, equality, hashing, construction and immutability. A
static check parses every record class in the package, so none declares
what `record` would silently replace or not support.
"""

import ast
import copy
import dataclasses
import functools
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from worst_cases import fresh_env
from torickit import _record
from torickit.catalog import cp_fan, hirzebruch_fan, load_catalog
from torickit.cones import SimplicialCone
from torickit.cox import DegreeVector, cox_report, degree_of
from torickit.document import FanDocument, document_from_fan
from torickit.errors import NonPositiveError
from torickit.fans import Fan, validate_fan
from torickit.gaussian import gaussian
from torickit.configurations import Configuration, config_to_polytuple, evaluate
from torickit.holmap import stabilize
from torickit.lattice import IntegerMatrix
from torickit.smith import smith_normal_form
from torickit.stability import discriminant_dims, replay, stability_report


def record_classes():
    """Every class that `record` built, over all torickit modules."""
    found = set()
    for name, module in sorted(sys.modules.items()):
        if name == "torickit" or name.startswith("torickit."):
            for value in vars(module).values():
                if isinstance(value, type) and value.__setattr__ is _record._frozen_setattr:
                    found.add(value)
    return found


def samples():
    """Instances of every record class, from the public API."""
    cp2, h1 = cp_fan(2), hirzebruch_fan(1)
    overlapping = Fan.from_maximal([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)])
    report = validate_fan(overlapping)
    assert report.violations
    entry = load_catalog()[0]
    assert entry.expected
    snf = smith_normal_form(cp2.generator_matrix())
    config = Configuration.from_points(
        [[gaussian(-1)], [gaussian(Fraction(1, 2), 3)], [(gaussian(2), 2)], [gaussian(0, -1)]]
    )
    tup = config_to_polytuple(config)
    degrees = degree_of(h1, (1, 1, 1, 2))
    return [
        cp2,
        h1,
        report,
        *report.violations,
        validate_fan(cp2),
        entry,
        next(iter(entry.expected.values())),
        snf,
        snf.U,
        IntegerMatrix(0, 0, ()),
        SimplicialCone.from_generators(2, [(1, 0), (0, 1)]),
        cox_report(cp2),
        cox_report(h1).witness_degree,
        document_from_fan(cp2, "cp2"),
        document_from_fan(cp2),
        gaussian(Fraction(-3, 4), 5),
        config,
        tup,
        evaluate(tup, h1, gaussian(1, 1)),
        stabilize(tup, (1, 1, 1, 2), h1),
        stability_report(h1, degrees),
        discriminant_dims(h1, degrees, 1),
        replay(3, 4),
    ]


SAMPLES = samples()


def fields(cls):
    return tuple(cls.__dict__["__annotations__"])


@functools.cache
def twin(cls):
    """A frozen dataclass with the record's name, fields and checks."""
    namespace = {
        "__annotations__": dict(cls.__dict__["__annotations__"]),
        "__qualname__": cls.__qualname__,
        "__module__": __name__,
    }
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def as_twin(obj):
    return twin(type(obj))(*(getattr(obj, name) for name in fields(type(obj))))


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_samples_cover_every_record_class():
    classes = record_classes()
    assert len(classes) == 19
    assert {type(obj) for obj in SAMPLES} == classes


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
class TestAgainstDataclass:
    def test_repr(self, obj):
        assert repr(obj) == repr(as_twin(obj))

    def test_eq_and_hash(self, obj):
        for other in SAMPLES:
            assert (obj == other) == (as_twin(obj) == as_twin(other))
            assert (obj != other) == (as_twin(obj) != as_twin(other))
            if type(other) is not type(obj):
                assert obj != other
        copied = type(obj)(*(getattr(obj, name) for name in fields(type(obj))))
        assert copied == obj and copied is not obj
        assert hash_or_error(obj) == hash_or_error(as_twin(obj))
        assert hash_or_error(copied) == hash_or_error(obj)
        # Never equal to an instance of another class with the same fields.
        assert obj != as_twin(obj) and as_twin(obj) != obj

    def test_frozen(self, obj):
        name = fields(type(obj))[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(as_twin(obj), name, None)

    def test_construction(self, obj):
        cls = type(obj)
        values = {name: getattr(obj, name) for name in fields(cls)}
        assert cls(*values.values()) == obj
        assert cls(**values) == obj
        first, *rest = values
        assert cls(values[first], **{name: values[name] for name in rest}) == obj
        with pytest.raises(TypeError):
            cls(*values.values(), None)
        with pytest.raises(TypeError):
            cls(**values, not_a_field=None)

    def test_match_args(self, obj):
        cls = type(obj)
        assert cls.__match_args__ == twin(cls).__match_args__ == fields(cls)
        match obj:
            case cls(value):
                assert value is getattr(obj, fields(cls)[0])
            case _:
                pytest.fail("positional pattern did not match")

    def test_pickle_and_deepcopy(self, obj):
        for restored in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(restored) is type(obj)
            assert restored == obj
            assert repr(restored) == repr(obj)
            assert hash_or_error(restored) == hash_or_error(obj)


def test_not_a_dataclass():
    assert not any(dataclasses.is_dataclass(obj) for obj in SAMPLES)


def test_every_field_is_required():
    doc = FanDocument(1, 2, ((1, 0),), ((0,),), None)
    assert doc == FanDocument(1, 2, ((1, 0),), ((0,),), name=None)
    assert repr(doc) == repr(twin(FanDocument)(1, 2, ((1, 0),), ((0,),), None))
    for cls in (FanDocument, twin(FanDocument)):
        with pytest.raises(TypeError):
            cls(1, 2, ((1, 0),), ((0,),))


def test_post_init_still_rejects():
    for cls in (DegreeVector, twin(DegreeVector)):
        with pytest.raises(NonPositiveError):
            cls((0,))
    for cls in (IntegerMatrix, twin(IntegerMatrix)):
        with pytest.raises(ValueError, match="entry row length"):
            cls(2, 2, ((1, 0), (1,)))


def test_different_record_classes_never_equal():
    @_record.record
    class Twin:
        entries: tuple

    assert Twin((1, 2)) == Twin((1, 2))
    assert Twin((1, 2)) != DegreeVector((1, 2))
    assert DegreeVector((1, 2)) != Twin((1, 2))
    assert hash(Twin((1, 2))) == hash(DegreeVector((1, 2)))


def record_class_bodies():
    """(module, class name, class body) for every `@record` class in the
    torickit sources, read from their syntax trees."""
    found = []
    for path in sorted(Path(_record.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
            ):
                found.append((path.stem, node.name, node.body))
    return found


def test_record_classes_declare_only_what_record_builds():
    # `record` gives fields no defaults and replaces every name in
    # `_GENERATED`, so a default or an override would be silently lost.
    bodies = record_class_bodies()
    assert {(module, name) for module, name, _ in bodies} == {
        (cls.__module__.rpartition(".")[2], cls.__qualname__) for cls in record_classes()
    }
    for module, name, body in bodies:
        annotated = [s for s in body if isinstance(s, ast.AnnAssign)]
        assert annotated, f"{module}.{name} declares no field"
        assert all(s.value is None for s in annotated), f"{module}.{name} has a field default"
        field_names = {s.target.id for s in annotated}
        defined = set()
        for s in body:
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(s.name)
            elif isinstance(s, ast.Assign):
                defined.update(t.id for t in s.targets if isinstance(t, ast.Name))
        assert not defined & field_names, f"{module}.{name} assigns a field in its body"
        overridden = defined & set(_record._GENERATED)
        assert not overridden, f"{module}.{name} defines {sorted(overridden)}"


def test_cli_import_skips_heavy_stdlib_modules():
    # -S keeps site .pth files from loading modules on their own. argparse
    # brings gettext and locale; fractions brings decimal and numbers.
    heavy = (
        "dataclasses",
        "inspect",
        "typing",
        "importlib.resources",
        "argparse",
        "gettext",
        "locale",
        "fractions",
        "decimal",
        "numbers",
    )
    code = (
        "import sys, torickit.cli\n"
        f"print(sorted(name for name in {heavy!r} if name in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=fresh_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
