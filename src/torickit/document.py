"""File formats: fan documents and polynomial-tuple documents.

Ray indices are 1-based in files to match the usual index-set convention
[r] = {1,...,r}; everything is 0-based in memory and converted only here.
All numbers cross the boundary exactly (integers, or fraction strings for
polynomial coefficients).
"""

from __future__ import annotations

import json

from ._record import record
from .errors import DocumentError
from .fans import Fan
from .gaussian import ONE, gaussian_from_pair, gaussian_to_pair, poly
from .holmap import PolyTuple

SCHEMA_VERSION = 1


@record
class FanDocument:
    schema_version: int
    dimension: int
    generators: tuple[tuple[int, ...], ...]
    maximal_cones: tuple[tuple[int, ...], ...]
    name: str | None = None


def _require(condition: bool, message: str):
    if not condition:
        raise DocumentError(message)


def fan_document_from_obj(obj) -> FanDocument:
    _require(isinstance(obj, dict), "fan document must be a JSON object")
    # JSON true and false load as bool, a subclass of int equal to 1 and 0.
    version = obj.get("schema_version")
    _require(version == SCHEMA_VERSION and type(version) is not bool, "unsupported schema_version")
    dimension = obj.get("dimension")
    _require(type(dimension) is int and dimension >= 1, "dimension must be a positive integer")

    generators = obj.get("generators")
    _require(isinstance(generators, list) and generators, "generators must be a nonempty list")
    gens = []
    for g in generators:
        _require(
            isinstance(g, list)
            and len(g) == dimension
            and all(type(e) is int for e in g),
            "each generator must be a list of integers of the fan dimension",
        )
        gens.append(tuple(g))

    cones = obj.get("maximal_cones")
    _require(isinstance(cones, list), "maximal_cones must be a list")
    r = len(gens)
    parsed_cones = []
    for cone in cones:
        _require(
            isinstance(cone, list)
            and all(type(i) is int and 1 <= i <= r for i in cone),
            f"cone indices must be integers in [1, {r}]",
        )
        _require(len(set(cone)) == len(cone), "cone indices must be distinct")
        parsed_cones.append(tuple(sorted(cone)))

    name = obj.get("name")
    _require(name is None or isinstance(name, str), "name must be a string")
    return FanDocument(
        schema_version=SCHEMA_VERSION,
        dimension=dimension,
        generators=tuple(gens),
        maximal_cones=tuple(parsed_cones),
        name=name,
    )


def fan_from_document(doc: FanDocument) -> Fan:
    return Fan.from_maximal(
        doc.generators, [tuple(i - 1 for i in cone) for cone in doc.maximal_cones]
    )


def document_from_fan(fan: Fan, name: str | None = None) -> FanDocument:
    return FanDocument(
        schema_version=SCHEMA_VERSION,
        dimension=fan.dim,
        generators=fan.generators,
        maximal_cones=tuple(
            tuple(i + 1 for i in sorted(face)) for face in fan.maximal_faces()
        ),
        name=name,
    )


def document_to_obj(doc: FanDocument) -> dict:
    obj = {
        "schema_version": doc.schema_version,
        "dimension": doc.dimension,
        "generators": [list(g) for g in doc.generators],
        "maximal_cones": [list(c) for c in doc.maximal_cones],
    }
    if doc.name is not None:
        obj["name"] = doc.name
    return obj


def load_fan_file(path) -> tuple[Fan, FanDocument]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read fan document: {exc}") from exc
    doc = fan_document_from_obj(obj)
    return fan_from_document(doc), doc


# -- polynomial tuples -------------------------------------------------------
#
# A monic polynomial of degree d is stored as its d lower coefficients in
# ascending order (the leading 1 is implicit); each coefficient is a
# [real, imaginary] pair of exact fraction strings like "3/4".


def poly_tuple_from_obj(obj) -> PolyTuple:
    _require(isinstance(obj, dict), "tuple document must be a JSON object")
    version = obj.get("schema_version")
    _require(version == SCHEMA_VERSION and type(version) is not bool, "unsupported schema_version")
    polys = obj.get("polynomials")
    _require(isinstance(polys, list) and polys, "polynomials must be a nonempty list")
    parsed = []
    for entry in polys:
        _require(isinstance(entry, list) and entry, "each polynomial needs >= 1 coefficient")
        coeffs = []
        for pair in entry:
            _require(
                isinstance(pair, list) and len(pair) == 2,
                "each coefficient is a [real, imaginary] pair of fraction strings",
            )
            try:
                coeffs.append(gaussian_from_pair(pair))
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f"bad coefficient {pair!r}: {exc}") from exc
        parsed.append(poly(coeffs + [ONE]))
    return PolyTuple.from_polys(parsed)


def poly_tuple_to_obj(tup: PolyTuple) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "polynomials": [
            [gaussian_to_pair(c) for c in p[:-1]] for p in tup.polys
        ],
    }


def load_poly_tuple_file(path) -> PolyTuple:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read tuple document: {exc}") from exc
    return poly_tuple_from_obj(obj)
