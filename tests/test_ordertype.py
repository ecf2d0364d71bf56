"""Descriptor algebra: builders' shapes, signatures, refutation."""

from fractions import Fraction

import pytest

from enumorder.listings import (
    add_finite,
    build_A,
    build_T,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from enumorder.ordertype import block_signature, fin, refute_type2


def test_block_signature_examples():
    assert block_signature(build_A(1).descriptor) == ["ASC"]
    assert block_signature(build_A(3).descriptor) == ["ASC", "DESC", "ASC"]
    assert block_signature(build_T(2).descriptor) == ["DESC"]


def test_block_signature_rejects_unsupported_shapes():
    assert block_signature(fin(3)) is None
    assert block_signature(rationals_in_interval(Fraction(0), Fraction(1)).descriptor) is None
    assert block_signature(None) is None


def test_refute_by_signature():
    verdict = refute_type2(build_A(2), build_A(5))
    assert verdict == "signature [ASC,DESC] != [ASC,DESC,ASC,DESC,ASC]"


def test_equal_signatures_refute_nothing():
    assert refute_type2(build_A(3), build_A(3)) is None


def test_dense_shape_is_out_of_signature_scope():
    assert refute_type2(builtin_harmonic(), rationals_in_interval(Fraction(0), Fraction(1))) is None


def test_refuted_pairs_from_fixtures():
    assert refute_type2(builtin_harmonic(), builtin_thirds()) == "signature [DESC] != [ASC]"
    assert refute_type2(build_A(1), build_A(2)) == "signature [ASC] != [ASC,DESC]"


# --- descriptors through the finite-edit modifiers ------------------------------


def _small_edits(modifier, spec):
    """Shifts by 1..5; drops of two listed values and an absent one; adds of
    one new value."""
    for m in range(1, 6):
        if modifier == "shift":
            yield shift_spec(spec, m)
        elif modifier == "drop":
            listed = spec.listing().prefix(m + 2)
            yield remove_finite(spec, [listed[m - 1], listed[m + 1], Fraction(-m)])
        else:
            yield add_finite(spec, [Fraction(-m)])


def _finite_edits(modifier, spec, size):
    """Every shift from 0 to size + 1; every drop of listed values, with and
    without an absent one; adds of zero to two new values."""
    if modifier == "shift":
        return [shift_spec(spec, m) for m in range(size + 2)]
    if modifier == "drop":
        candidates = [*spec.listing().try_prefix(size), Fraction(99)]
        return [
            remove_finite(spec, [v for bit, v in enumerate(candidates) if mask >> bit & 1])
            for mask in range(2 ** len(candidates))
        ]
    return [add_finite(spec, [Fraction(-k) for k in range(1, n + 1)]) for n in range(3)]


@pytest.mark.parametrize("modifier", ["shift", "drop", "add"])
def test_each_modifier_keeps_the_descriptor_rule(modifier):
    # +shift and +drop remove finitely many values: the W/W* signature, and
    # with it the verdict of the unmodified pair, survives. +add keeps no
    # infinite descriptor, so its verdicts are unknown.
    for i in range(1, 5):
        for edited in _small_edits(modifier, build_A(i)):
            if modifier == "add":
                assert edited.descriptor is None, edited.name
            for j in range(1, 5):
                expected = None if modifier == "add" else refute_type2(build_A(i), build_A(j))
                assert refute_type2(edited, build_A(j)) == expected, (edited.name, j)
    # On finite listings the listing itself is the oracle.
    for values in ([], [Fraction(7)], [Fraction(3), Fraction(1, 2), Fraction(5)]):
        size = len(values)
        for edited in _finite_edits(modifier, finite_listing(values), size):
            listed = edited.listing().try_prefix(size + 5)
            assert edited.descriptor == fin(len(listed)), edited.name
    # A base longer than EDIT_SCAN_PREFIX: +add=550 clashes beyond the
    # scanned prefix, so the listing skips the duplicate and holds 600 values.
    long = add_finite(finite_listing([Fraction(k) for k in range(600)]), [Fraction(550)])
    for edited in [long, *_small_edits(modifier, long)]:
        listed = edited.listing().try_prefix(605)
        assert edited.descriptor == fin(len(listed)), edited.name


def test_descriptor_text_examples():
    # Each builder states its shape directly; the text is read off as given.
    examples = [
        (build_A(1), "W"),
        (build_A(3), "W + W* + W"),
        (rationals_in_interval(Fraction(0), Fraction(1)), "Q[]"),
        (finite_listing([Fraction(3), Fraction(1, 2), Fraction(5)]), "FIN(3)"),
        (shift_spec(build_A(2), 3), "W + W*"),
    ]
    for spec, text in examples:
        assert spec.descriptor == text, spec.name
    assert add_finite(builtin_thirds(), [Fraction(-1)]).descriptor is None


# --- declared descriptors are consistent with observed prefixes -------------


def _strictly_monotone(values, ascending):
    pairs = zip(values, values[1:])
    return all(a < b for a, b in pairs) if ascending else all(a > b for a, b in pairs)


def test_harmonic_prefix_matches_descending_descriptor():
    values = builtin_harmonic().listing().prefix(200)
    assert _strictly_monotone(values, ascending=False)


def test_thirds_prefix_matches_ascending_descriptor():
    values = builtin_thirds().listing().prefix(200)
    assert _strictly_monotone(values, ascending=True)


def test_union_family_blocks_respect_declared_intervals():
    # Block s of A:i stays inside [s-1, s]; interiors are disjoint, only the
    # even/odd boundary value is shared between neighbours.
    for i in (2, 3, 4):
        spec = build_A(i)
        signature = block_signature(spec.descriptor)
        assert len(signature) == i
        for s in range(1, i + 1):
            block_values = build_T(s).listing().prefix(80)
            assert all(s - 1 <= v <= s for v in block_values)
            assert _strictly_monotone(block_values, ascending=(s % 2 == 1))


def test_interval_values_stay_inside_bounds():
    a, b = Fraction(-1, 2), Fraction(3, 4)
    values = rationals_in_interval(a, b).listing().prefix(300)
    assert all(a <= v <= b for v in values)


def test_finite_descriptor_counts_values():
    spec = finite_listing([Fraction(3), Fraction(1, 2), Fraction(5)])
    assert spec.descriptor == fin(3)
    assert len(spec.listing().try_prefix(10)) == 3
