"""Published JSON schemas for every file format and CLI output.

These are plain JSON Schema (draft 2020-12) documents; the test suite
validates real outputs against them, and downstream consumers may do the
same.
"""

# Coefficients follow the grammar the parser itself checks, anchored, and
# fan documents obey the parser's size caps.
from .document import MAX_MAXIMAL_CONES, MAX_RAYS
from .gaussian import _FRACTION_STRING

_FRACTION = {"type": "string", "pattern": f"^{_FRACTION_STRING.pattern}$"}
_COEFFICIENT = {
    "type": "array",
    "items": _FRACTION,
    "minItems": 2,
    "maxItems": 2,
}
_INDEX_SET = {"type": "array", "items": {"type": "integer", "minimum": 1}}

FAN_DOCUMENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "dimension", "generators", "maximal_cones"],
    "properties": {
        "schema_version": {"const": 1},
        "dimension": {"type": "integer", "minimum": 1, "maximum": MAX_RAYS},
        "generators": {
            "type": "array",
            "minItems": 1,
            "maxItems": MAX_RAYS,
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "maximal_cones": {"type": "array", "maxItems": MAX_MAXIMAL_CONES, "items": _INDEX_SET},
        "name": {"type": "string"},
        "expected": {"type": "object"},
    },
    "additionalProperties": False,
}

POLY_TUPLE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "polynomials"],
    "properties": {
        "schema_version": {"const": 1},
        "polynomials": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": _COEFFICIENT, "minItems": 1},
        },
    },
    "additionalProperties": False,
}

_VIOLATION = {
    "type": "object",
    "required": ["axiom", "witness"],
    "properties": {
        "axiom": {"type": "string"},
        "witness": {"type": "array", "items": _INDEX_SET},
    },
    "additionalProperties": False,
}

_COX_REPORT = {
    "type": "object",
    "required": [
        "free_rank",
        "finite_part",
        "condition_span",
        "condition_positive_degree",
        "witness_degree",
        "pi2_rank",
    ],
    "properties": {
        "free_rank": {"type": "integer"},
        "finite_part": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "condition_span": {"type": "boolean"},
        "condition_positive_degree": {"type": "boolean"},
        "witness_degree": {
            "anyOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer", "minimum": 1}},
            ]
        },
        "pi2_rank": {"anyOf": [{"type": "null"}, {"type": "integer"}]},
    },
    "additionalProperties": False,
}

ANALYZE_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "valid", "violations"],
    "properties": {
        "schema_version": {"const": 1},
        "name": {"anyOf": [{"type": "null"}, {"type": "string"}]},
        "valid": {"type": "boolean"},
        "violations": {"type": "array", "items": _VIOLATION},
        "dimension": {"type": "integer"},
        "ray_count": {"type": "integer"},
        "smooth": {"type": "boolean"},
        "complete": {"type": "boolean"},
        "primitive_collections": {"type": "array", "items": _INDEX_SET},
        "r_min": {"anyOf": [{"type": "null"}, {"type": "integer"}]},
        "cox": _COX_REPORT,
    },
    "additionalProperties": False,
}

STABILITY_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "degrees",
        "r_min",
        "d_min",
        "stability_dim",
        "kind",
        "connectivity",
        "vanishing_line",
        "oracle_dim",
        "primitive_collections",
        "sentence",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "name": {"anyOf": [{"type": "null"}, {"type": "string"}]},
        "degrees": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "r_min": {"type": "integer", "minimum": 2},
        "d_min": {"type": "integer", "minimum": 1},
        "stability_dim": {"type": "integer"},
        "kind": {"enum": ["HOMOTOPY", "HOMOLOGY"]},
        "connectivity": {"type": "integer", "minimum": 0},
        "vanishing_line": {"type": "integer"},
        "oracle_dim": {"type": "integer"},
        "primitive_collections": {"type": "array", "items": _INDEX_SET},
        "sentence": {"type": "string"},
    },
    "additionalProperties": False,
}

HOLCHECK_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "member", "degrees", "violated_collections"],
    "properties": {
        "schema_version": {"const": 1},
        "member": {"type": "boolean"},
        "degrees": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "violated_collections": {"type": "array", "items": _INDEX_SET},
    },
    "additionalProperties": False,
}

STABILIZE_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "degrees_before",
        "increment",
        "degrees_after",
        "member",
        "points",
        "polynomials",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "degrees_before": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "increment": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "degrees_after": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "member": {"type": "boolean"},
        "points": {"type": "array", "items": _COEFFICIENT},
        "polynomials": {
            "type": "array",
            "items": {"type": "array", "items": _COEFFICIENT},
        },
    },
    "additionalProperties": False,
}

SUBFANS_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "count", "subfans"],
    "properties": {
        "schema_version": {"const": 1},
        "name": {"anyOf": [{"type": "null"}, {"type": "string"}]},
        "count": {"type": "integer", "minimum": 0},
        "subfans": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["maximal_cones", "smooth", "complete"],
                "properties": {
                    "maximal_cones": {"type": "array", "items": _INDEX_SET},
                    "smooth": {"type": "boolean"},
                    "complete": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "classes": {
            "type": "object",
            "required": ["count", "members", "collisions"],
            "properties": {
                "count": {"type": "integer", "minimum": 0},
                "members": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
                "collisions": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

ERROR_OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "error", "message"],
    "properties": {
        "schema_version": {"const": 1},
        "error": {"type": "string"},
        "message": {"type": "string"},
    },
    "additionalProperties": False,
}
