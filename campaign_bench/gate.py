"""Correctness gate: a timed run's stored results against the reference.

The reference is the set of results the in-process traced pass stored
for the same seed.  A unit fails when its result is missing, altered,
or stored under an id the grid does not have; every duplicate delivery
the store swallowed (live ``duplicate_appends`` or ``replayed_rows`` on
load, from :meth:`RunStore.dedup_stats`) is one more failure.  A
campaign never counts more failures than it has units.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Mapping


def canonical_results(store) -> dict[str, str]:
    """Canonical text of each stored unit result, keyed by unit id.

    ``json.dumps`` writes floats with ``repr`` (exact) and NaN as
    ``NaN``, so equal text means bit-equal results, NaN metrics included.
    """
    return {
        unit_id: json.dumps(dataclasses.asdict(result), sort_keys=True)
        for unit_id, result in store.results().items()
    }


def failed_units(
    reference: Mapping[str, str], stored: Mapping[str, str], duplicates: int
) -> int:
    """Units missing, extra or altered in ``stored``, plus ``duplicates``,
    at most the number of units in ``reference``."""
    missing = reference.keys() - stored.keys()
    extra = stored.keys() - reference.keys()
    altered = sum(
        1 for unit_id in reference.keys() & stored.keys()
        if reference[unit_id] != stored[unit_id]
    )
    return min(len(reference), len(missing) + len(extra) + altered + duplicates)


def store_duplicates(store) -> int:
    """Every duplicate delivery a store swallowed (live and on load)."""
    stats = store.dedup_stats()
    return stats["duplicate_appends"] + stats["replayed_rows"]
