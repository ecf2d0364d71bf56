"""Every walk over a listing agrees with ``try_prefix``, the reference read.

Iteration, ``shift_spec``, ``interleave`` and the ``shift`` test helper all
walk listings; each is checked here against prefixes read with
``try_prefix`` from fresh, independent listings of the same specs. A walk
yields keys, read here as the values they stand for.
"""

from itertools import islice

import pytest

from enumorder.listings import interleave, shift_spec

from helpers import as_values, shift, spec_factories

FACTORIES = spec_factories()
LENGTHS = (0, 1, 7, 40)
SHIFTS = (0, 1, 3, 12)


def round_robin_without_repeats(prefixes):
    """Round-robin merge of the lists, keeping each value's first occurrence."""
    merged, seen = [], set()
    for rank in range(max(map(len, prefixes))):
        for values in prefixes:
            if rank < len(values) and values[rank] not in seen:
                seen.add(values[rank])
                merged.append(values[rank])
    return merged


@pytest.mark.parametrize("factory", FACTORIES)
def test_iteration_of_fresh_listing_equals_prefix(factory):
    spec = factory()
    for length in LENGTHS:
        expected = spec.listing().try_prefix(length)
        assert as_values(islice(spec.listing(), length)) == expected, (spec.name, length)


@pytest.mark.parametrize("factory", FACTORIES)
def test_iteration_of_partly_read_listing_equals_prefix(factory):
    spec = factory()
    expected = spec.listing().try_prefix(40)
    for already_read in (1, 5, 60):
        ls = spec.listing()
        ls.try_prefix(already_read)
        assert as_values(islice(ls, 40)) == expected, (spec.name, already_read)
        # A second walk over the same listing replays from index 0.
        assert as_values(islice(ls, 7)) == expected[:7], spec.name


@pytest.mark.parametrize("factory", FACTORIES)
def test_iteration_stops_where_a_finite_listing_ends(factory):
    spec = factory()
    expected = spec.listing().try_prefix(300)
    if len(expected) < 300:
        assert as_values(spec.listing()) == expected, spec.name


@pytest.mark.parametrize("factory", FACTORIES)
def test_shift_reads_past_the_dropped_prefix(factory):
    spec = factory()
    for m in SHIFTS:
        for length in LENGTHS:
            expected = spec.listing().try_prefix(length + m)[m:]
            assert shift(spec.listing(), m).try_prefix(length) == expected, (spec.name, m)
            assert shift_spec(spec, m).listing().try_prefix(length) == expected, (spec.name, m)


@pytest.mark.parametrize("start", range(len(FACTORIES)))
def test_interleave_is_round_robin_without_repeats(start):
    picks = [FACTORIES[(start + step) % len(FACTORIES)]() for step in (0, 1, 5)]
    for width in (1, 2, 3):
        specs = picks[:width]
        for length in (1, 9, 25):
            # The first `length` rounds are fixed by each input's first
            # `length` values, so the merge is an exact prefix of the union.
            expected = round_robin_without_repeats(
                [s.listing().try_prefix(length) for s in specs]
            )
            got = interleave(specs).listing().try_prefix(len(expected))
            assert got == expected, ([s.name for s in specs], length)
