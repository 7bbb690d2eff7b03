"""Tests for the package's public names."""

import objentropy

REMOVED = ("LocationStats", "location_stats", "LocationCodes",
           "PairedSeries", "FittedObjective", "Transform")


def test_all_has_no_duplicates():
    assert len(set(objentropy.__all__)) == len(objentropy.__all__)


def test_every_exported_name_resolves():
    missing = [n for n in objentropy.__all__ if not hasattr(objentropy, n)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in objentropy.__all__
        assert not hasattr(objentropy, name)
