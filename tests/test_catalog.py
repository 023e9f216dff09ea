"""Fixture conformance: every expected value in the catalog must match the
corresponding computation, making this module double as a conformance
report against the source material."""

import pytest

from torickit.catalog import builder_for, load_catalog
from torickit.census import enumerate_subfans
from torickit.cox import cox_report
from torickit.fans import is_complete, is_smooth, primitive_collections, validate_fan
from torickit.stability import r_min
from torickit.smith import kernel_basis

CATALOG = load_catalog()


def compute_property(fan, key):
    if key == "valid":
        return validate_fan(fan).valid
    if key == "smooth":
        return is_smooth(fan)
    if key == "complete":
        return is_complete(fan)
    if key == "r_min":
        return r_min(fan)
    if key == "primitive_collections":
        return sorted(sorted(i + 1 for i in c) for c in primitive_collections(fan))
    if key == "condition_span":
        return cox_report(fan).condition_span
    if key == "condition_positive_degree":
        return cox_report(fan).condition_positive_degree
    if key == "kernel_rank":
        return len(kernel_basis(fan.generator_matrix()))
    if key == "witness_degree":
        witness = cox_report(fan).witness_degree
        return list(witness.entries) if witness else None
    if key == "pi2_rank":
        return cox_report(fan).pi2_rank
    if key == "subfan_count":
        return len(enumerate_subfans(fan))
    raise KeyError(f"unknown expected property {key!r}")


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_fixture_fan_is_valid(entry):
    assert validate_fan(entry.fan).valid


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_fixture_matches_builder(entry):
    assert entry.fan == builder_for(entry.name)


@pytest.mark.parametrize(
    "entry,key",
    [(entry, key) for entry in CATALOG for key in sorted(entry.expected)],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_expected_property(entry, key):
    expectation = entry.expected[key]
    assert expectation.source in {"PAPER", "DERIVED", "TRIVIAL"}
    assert compute_property(entry.fan, key) == expectation.value


def test_catalog_covers_the_required_families():
    names = {entry.name for entry in CATALOG}
    assert {"cp1", "cp2", "cp3", "cp4", "hirzebruch1", "hirzebruch2", "hirzebruch3", "c2"} <= names


def test_builders_reject_bad_parameters():
    from torickit.catalog import cp_fan, hirzebruch_fan

    with pytest.raises(ValueError):
        cp_fan(0)
    with pytest.raises(ValueError):
        hirzebruch_fan(0)
