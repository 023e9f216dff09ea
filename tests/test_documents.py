import json

import jsonschema
import pytest

from torickit.catalog import cp_fan, hirzebruch_fan
from torickit.document import (
    MAX_MAXIMAL_CONES,
    MAX_RAYS,
    _FAN_KEYS,
    _TUPLE_KEYS,
    FanDocument,
    document_from_fan,
    document_to_obj,
    fan_document_from_obj,
    fan_from_document,
    load_fan_file,
    poly_tuple_from_obj,
    poly_tuple_to_obj,
)
from torickit.errors import DocumentError
from torickit.gaussian import gaussian, poly_from_roots
from torickit.holmap import PolyTuple
from torickit.schemas import FAN_DOCUMENT_SCHEMA, POLY_TUPLE_SCHEMA


class TestFanDocuments:
    def test_roundtrip(self):
        fan = hirzebruch_fan(2)
        doc = document_from_fan(fan, "h2")
        obj = document_to_obj(doc)
        jsonschema.validate(obj, FAN_DOCUMENT_SCHEMA)
        assert fan_from_document(fan_document_from_obj(obj)) == fan
        assert fan_document_from_obj(obj) == doc

    def test_one_based_indices(self):
        doc = document_from_fan(hirzebruch_fan(1))
        assert sorted(doc.maximal_cones) == [(1, 2), (1, 4), (2, 3), (3, 4)]

    def test_rejects_bad_documents(self):
        good = document_to_obj(document_from_fan(cp_fan(2)))
        for mutate in [
            lambda o: o.pop("dimension"),
            lambda o: o.update(schema_version=99),
            lambda o: o.update(generators=[]),
            lambda o: o.update(generators=[[1], [0, 1], [-1, -1]]),
            lambda o: o.update(maximal_cones=[[0, 1]]),
            lambda o: o.update(maximal_cones=[[1, 1]]),
            lambda o: o.update(maximal_cones=[[1, 99]]),
            lambda o: o.update(name=17),
        ]:
            broken = json.loads(json.dumps(good))
            mutate(broken)
            with pytest.raises(DocumentError):
                fan_document_from_obj(broken)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("schema_version", True),
            ("dimension", True),
            ("generators", [[True], [-1]]),
            ("maximal_cones", [[True], [2]]),
        ],
    )
    def test_rejects_booleans_as_integers(self, field, value):
        # JSON true loads as a bool, which is an int equal to 1.
        obj = {"schema_version": 1, "dimension": 1, "generators": [[1], [-1]], "maximal_cones": [[1], [2]]}
        fan_document_from_obj(obj)
        obj[field] = value
        with pytest.raises(DocumentError):
            fan_document_from_obj(obj)

    def test_maximal_cone_cap(self):
        # Every listed cone counts, repeated ones too.
        obj = {"schema_version": 1, "dimension": 1, "generators": [[1], [-1]]}
        obj["maximal_cones"] = [[1], [2]] * (MAX_MAXIMAL_CONES // 2)
        assert len(fan_document_from_obj(obj).maximal_cones) == MAX_MAXIMAL_CONES
        obj["maximal_cones"].append([1])
        message = f"fan lists {MAX_MAXIMAL_CONES + 1} maximal cones, above the cap of {MAX_MAXIMAL_CONES}"
        with pytest.raises(DocumentError, match=message):
            fan_document_from_obj(obj)

    def test_ray_and_dimension_caps(self):
        at_cap = {
            "schema_version": 1,
            "dimension": MAX_RAYS,
            "generators": [[int(i == j) for j in range(MAX_RAYS)] for i in range(MAX_RAYS)],
            "maximal_cones": [list(range(1, MAX_RAYS + 1))],
        }
        assert len(fan_document_from_obj(at_cap).generators) == MAX_RAYS
        # Both caps are checked before any generator entry is read, rays first.
        for dimension, count, message in [
            (1, MAX_RAYS + 1, f"fan has {MAX_RAYS + 1} rays, above the cap of {MAX_RAYS}"),
            (3000, MAX_RAYS + 1, f"fan has {MAX_RAYS + 1} rays, above the cap of {MAX_RAYS}"),
            (3000, 1, f"fan has dimension 3000, above the cap of {MAX_RAYS}"),
        ]:
            obj = {"schema_version": 1, "dimension": dimension, "generators": ["x"] * count}
            with pytest.raises(DocumentError, match=f"^{message}$"):
                fan_document_from_obj(obj)

    def test_schema_and_parser_refuse_the_same_near_misses(self):
        good = document_to_obj(document_from_fan(cp_fan(2), "cp2"))
        good["expected"] = {}
        # The parser allows exactly the schema's keys.
        assert set(good) == _FAN_KEYS == set(FAN_DOCUMENT_SCHEMA["properties"])
        assert _TUPLE_KEYS == set(POLY_TUPLE_SCHEMA["properties"])
        jsonschema.validate(good, FAN_DOCUMENT_SCHEMA)
        fan_document_from_obj(good)
        one_ray = [1] + [0] * (MAX_RAYS - 1)
        for mutate in [
            lambda o: o.update(colour="red"),
            lambda o: o.update(Name="cp2"),
            lambda o: o.update(generators=[[1, 0]] * (MAX_RAYS + 1)),
            lambda o: o.update(dimension=MAX_RAYS + 1, generators=[one_ray + [0]]),
            lambda o: o.update(maximal_cones=[[1]] * (MAX_MAXIMAL_CONES + 1)),
            lambda o: o.update(name=None),
            lambda o: o.update(expected=3),
            lambda o: o.update(expected=[]),
        ]:
            broken = json.loads(json.dumps(good))
            mutate(broken)
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(broken, FAN_DOCUMENT_SCHEMA)
            with pytest.raises(DocumentError):
                fan_document_from_obj(broken)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_fan_file(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            load_fan_file(path)


class TestPolyTupleDocuments:
    def test_roundtrip(self):
        tup = PolyTuple.from_polys(
            [
                poly_from_roots([(gaussian("1/2", "-2/3"), 1), (gaussian(4), 1)]),
                poly_from_roots([(gaussian(-1), 1)]),
            ]
        )
        obj = poly_tuple_to_obj(tup)
        jsonschema.validate(obj, POLY_TUPLE_SCHEMA)
        assert poly_tuple_from_obj(obj) == tup

    def test_leading_one_is_implicit(self):
        obj = {"schema_version": 1, "polynomials": [[["-1", "0"]]]}
        tup = poly_tuple_from_obj(obj)
        assert tup.degrees == (1,)
        assert tup.polys[0] == poly_from_roots([(gaussian(1), 1)])

    def test_rejects_bad_tuples(self):
        for obj in [
            {"schema_version": 1, "polynomials": []},
            {"schema_version": 1, "polynomials": [[]]},
            {"schema_version": 1, "polynomials": [[["x", "0"]]]},
            {"schema_version": 1, "polynomials": [[["1/0", "0"]]]},
            {"schema_version": 1, "polynomials": [[["1", "0", "2"]]]},
            {"schema_version": 2, "polynomials": [[["1", "0"]]]},
            {"schema_version": True, "polynomials": [[["1", "0"]]]},
        ]:
            with pytest.raises(DocumentError):
                poly_tuple_from_obj(obj)
        # Forms that Fraction(str(x)) reads but the schema's fraction pattern
        # does not match. The JSON number 1.0000000000000001 arrives as the
        # float 1.0, already rounded.
        near_misses = [3, 0.5, json.loads("1.0000000000000001")]
        near_misses += ["1e3", " 3/4", "3/4 ", "1_000", "+3", "3.25", "\u0663"]
        for part in near_misses:
            for pair in ([part, "0"], ["0", part]):
                obj = {"schema_version": 1, "polynomials": [[pair]]}
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(obj, POLY_TUPLE_SCHEMA)
                with pytest.raises(DocumentError):
                    poly_tuple_from_obj(obj)
        # A key outside the schema.
        obj = {"schema_version": 1, "polynomials": [[["1", "0"]]], "degrees": [1]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, POLY_TUPLE_SCHEMA)
        with pytest.raises(DocumentError, match="keys outside the schema"):
            poly_tuple_from_obj(obj)
        # Both accept these.
        for part, value in [("3/4", "3/4"), ("-3/4", "-3/4"), ("0", 0), ("007", 7)]:
            obj = {"schema_version": 1, "polynomials": [[[part, "0"]]]}
            jsonschema.validate(obj, POLY_TUPLE_SCHEMA)
            assert poly_tuple_from_obj(obj).polys[0][0] == gaussian(value)

    @pytest.mark.parametrize(
        "part, reason",
        [("1/0", "Fraction(1, 0)"), ("-3/0", "Fraction(-3, 0)"), ("007/0", "Fraction(7, 0)")],
    )
    def test_zero_denominator_message(self, part, reason):
        pair = [part, "0"]
        obj = {"schema_version": 1, "polynomials": [[pair]]}
        with pytest.raises(DocumentError) as caught:
            poly_tuple_from_obj(obj)
        assert str(caught.value) == f"bad coefficient {pair!r}: {reason}"

    def test_digit_limit_message_is_the_interpreter_s(self):
        digits = "1" * 5000
        with pytest.raises(ValueError) as interpreter:
            int(digits)
        pair = [digits, "0"]
        with pytest.raises(DocumentError) as caught:
            poly_tuple_from_obj({"schema_version": 1, "polynomials": [[pair]]})
        assert str(caught.value) == f"bad coefficient {pair!r}: {interpreter.value}"

    def test_coefficients_print_reduced(self):
        obj = {"schema_version": 1, "polynomials": [[["-0", "006/4"]]]}
        assert poly_tuple_to_obj(poly_tuple_from_obj(obj))["polynomials"] == [[["0", "3/2"]]]


class TestBundledCatalogFile:
    def test_every_catalog_entry_validates_against_the_schema(self):
        from importlib import resources

        raw = json.loads(
            resources.files("torickit.data").joinpath("catalog.json").read_text("utf-8")
        )
        assert isinstance(raw, list) and raw
        for obj in raw:
            jsonschema.validate(obj, FAN_DOCUMENT_SCHEMA)
            for item in obj["expected"].values():
                assert set(item) == {"value", "source"}
