"""File formats: fan documents and polynomial-tuple documents.

Ray indices are 1-based in files to match the usual index-set convention
[r] = {1,...,r}; everything is 0-based in memory. Besides the documents
here, the conversion is made for CLI output and pins by `fans._one_based`
and by `_invalid_fan_body` and `_parse_free` in `cli`, and in the messages
of `cox._complete_degrees` (pins) and `holmap` (degree caps).
All numbers cross the boundary exactly (integers, or fraction strings for
polynomial coefficients).
"""

from __future__ import annotations

import json

from . import gaussian, holmap
from ._record import record
from .errors import DocumentError
from .fans import Fan

SCHEMA_VERSION = 1

# Validation checks every pair of maximal cones with one LP, so a document
# may list at most this many; at the cap that takes about 0.4 s on cp1^6.
MAX_MAXIMAL_CONES = 64

# The cap on rays and on the dimension: rays that span the lattice need
# dim <= r, and Smith forms cost O(dim^2) memory.
MAX_RAYS = 20

# The top-level keys of FAN_DOCUMENT_SCHEMA and POLY_TUPLE_SCHEMA.
_FAN_KEYS = frozenset(
    {"schema_version", "dimension", "generators", "maximal_cones", "name", "expected"}
)
_TUPLE_KEYS = frozenset({"schema_version", "polynomials"})


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


def _require_versioned_object(obj, kind: str, keys: frozenset):
    _require(isinstance(obj, dict), f"{kind} document must be a JSON object")
    # JSON true and false load as bool, a subclass of int equal to 1 and 0.
    version = obj.get("schema_version")
    _require(version == SCHEMA_VERSION and type(version) is not bool, "unsupported schema_version")
    unknown = sorted(map(str, obj.keys() - keys))
    _require(not unknown, f"{kind} document has keys outside the schema: {unknown}")


def fan_document_from_obj(obj) -> FanDocument:
    _require_versioned_object(obj, "fan", _FAN_KEYS)
    dimension = obj.get("dimension")
    _require(type(dimension) is int and dimension >= 1, "dimension must be a positive integer")

    generators = obj.get("generators")
    _require(isinstance(generators, list) and generators, "generators must be a nonempty list")
    rays = len(generators)
    _require(rays <= MAX_RAYS, f"fan has {rays} rays, above the cap of {MAX_RAYS}")
    _require(dimension <= MAX_RAYS, f"fan has dimension {dimension}, above the cap of {MAX_RAYS}")
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
    _require(
        len(cones) <= MAX_MAXIMAL_CONES,
        f"fan lists {len(cones)} maximal cones, above the cap of {MAX_MAXIMAL_CONES}",
    )
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

    _require(isinstance(obj.get("name", ""), str), "name must be a string")
    _require(isinstance(obj.get("expected", {}), dict), "expected must be an object")
    return FanDocument(
        schema_version=SCHEMA_VERSION,
        dimension=dimension,
        generators=tuple(gens),
        maximal_cones=tuple(parsed_cones),
        name=obj.get("name"),
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


def _read_json(path, kind: str):
    """The parsed JSON file; every way reading it can fail is a DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError covers JSONDecodeError and UnicodeDecodeError; deep nesting
    # exhausts the decoder's recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise DocumentError(f"cannot read {kind} document: {exc}") from exc


def load_fan_file(path) -> tuple[Fan, FanDocument]:
    doc = fan_document_from_obj(_read_json(path, "fan"))
    return fan_from_document(doc), doc


# -- polynomial tuples -------------------------------------------------------
#
# A monic polynomial of degree d is stored as its d lower coefficients in
# ascending order (the leading 1 is implicit); each coefficient is a
# [real, imaginary] pair of exact fraction strings like "3/4".


def poly_tuple_from_obj(obj) -> holmap.PolyTuple:
    _require_versioned_object(obj, "tuple", _TUPLE_KEYS)
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
                coeffs.append(gaussian.gaussian_from_pair(pair))
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f"bad coefficient {pair!r}: {exc}") from exc
        parsed.append(gaussian.poly(coeffs + [gaussian.ONE]))
    return holmap.PolyTuple.from_polys(parsed)


def poly_tuple_to_obj(tup: holmap.PolyTuple) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "polynomials": [
            [gaussian.gaussian_to_pair(c) for c in p[:-1]] for p in tup.polys
        ],
    }


def load_poly_tuple_file(path) -> holmap.PolyTuple:
    return poly_tuple_from_obj(_read_json(path, "tuple"))
