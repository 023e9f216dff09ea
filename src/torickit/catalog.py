"""Named fan constructors and bundled fixtures with golden expectations.

The fixture file stores each fan in the CLI's document format together
with an "expected" block whose values carry provenance tags, so the
fixture tests double as a conformance report.
"""

from __future__ import annotations

import json

from ._record import record
from .document import fan_document_from_obj, fan_from_document
from .fans import Fan


def cp_fan(n: int) -> Fan:
    """Fan of complex projective n-space.

    Generators are the standard basis followed by minus their sum; every
    proper subset of the n+1 rays spans a cone.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    extra = tuple(-1 for _ in range(n))
    generators = basis + [extra]
    maximal = [tuple(i for i in range(n + 1) if i != skip) for skip in range(n + 1)]
    return Fan.from_maximal(generators, maximal)


def hirzebruch_fan(k: int) -> Fan:
    """Fan of the k-th Hirzebruch surface: four rays, four 2-cones."""
    if k < 1:
        raise ValueError("k must be at least 1")
    generators = [(1, 0), (0, 1), (-1, k), (0, -1)]
    maximal = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return Fan.from_maximal(generators, maximal)


def c2_fan() -> Fan:
    """The affine-plane fan: two coordinate rays and no 2-cone.

    The standard negative control: the span condition holds but no
    strictly positive degree vector exists, so the only holomorphic maps
    from the sphere are constant.
    """
    return Fan.from_maximal([(1, 0), (0, 1)], [(0,), (1,)])


@record
class ExpectedValue:
    value: object
    source: str


@record
class CatalogEntry:
    name: str
    fan: Fan
    expected: dict


def load_catalog() -> list[CatalogEntry]:
    """Parse the bundled fixture file."""
    from importlib import resources

    raw = resources.files("torickit.data").joinpath("catalog.json").read_text("utf-8")
    entries = []
    for obj in json.loads(raw):
        expected_block = obj.pop("expected", {})
        doc = fan_document_from_obj(obj)
        expected = {
            key: ExpectedValue(value=item["value"], source=item["source"])
            for key, item in expected_block.items()
        }
        entries.append(CatalogEntry(name=doc.name, fan=fan_from_document(doc), expected=expected))
    return entries


def builder_for(name: str) -> Fan:
    """Reconstruct a catalog fan from its name (used to cross-check fixtures)."""
    if name.startswith("cp"):
        return cp_fan(int(name[2:]))
    if name.startswith("hirzebruch"):
        return hirzebruch_fan(int(name[len("hirzebruch"):]))
    if name == "c2":
        return c2_fan()
    raise KeyError(f"unknown catalog fan {name!r}")
