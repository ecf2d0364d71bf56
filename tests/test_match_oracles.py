"""The lazy, rank-based matcher and the direct interval enumeration against
their predecessors: the eager matcher, which draws the whole fuel before its
first pick and checks every gap of every candidate, and the filter of the
canonical enumeration of all rationals.

The lazy matcher may draw fewer values on success, and nothing else may
differ: not the picks, not the refutation's gap, not the draw count of an
inconclusive outcome.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import count, islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder.coorder import MatchSuccess, match_listing
from enumorder.listings import (
    DEDUP_RUN_LIMIT,
    SetSpec,
    finite_listing,
    rationals_in_interval,
)

from helpers import (
    WIDE,
    match_listing_eager,
    rationals_in_interval_filtered,
    spec_factories,
)

oracle_settings = settings(max_examples=300, deadline=None, derandomize=True)

small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
distinct_values = st.lists(small_fractions, unique=True, max_size=14)


def cut_off_spec(head):
    """The head values, a duplicate run that cuts the listing off, then
    infinitely many values the listing never reaches."""

    def stream():
        yield from head
        yield from [head[0]] * DEDUP_RUN_LIMIT
        yield from (Fraction(n, 7) for n in count(1000))

    return SetSpec("cut-off", stream)


def interval_between(a, width):
    return lambda: rationals_in_interval(a, a + width)


inputs = st.one_of(
    st.sampled_from(spec_factories()),
    distinct_values.map(lambda vs: lambda: finite_listing(vs)),
)
targets = st.one_of(
    st.sampled_from(spec_factories()),
    st.builds(interval_between, small_fractions, small_fractions.filter(lambda w: w > 0)),
    distinct_values.map(lambda vs: lambda: finite_listing(vs)),
    st.lists(small_fractions, unique=True, min_size=1, max_size=6).map(
        lambda vs: lambda: cut_off_spec(vs)
    ),
)


def assert_same_outcome(h, target, prefix_len, fuel):
    lazy = match_listing(h(), target(), prefix_len, fuel)
    eager = match_listing_eager(h(), target(), prefix_len, fuel)
    if isinstance(eager, MatchSuccess) and isinstance(lazy, MatchSuccess):
        assert lazy.drawn <= eager.drawn
        lazy = replace(lazy, drawn=eager.drawn)
    assert lazy == eager
    return lazy


@oracle_settings
@given(inputs, targets, st.integers(0, 12), st.integers(0, 300))
# Pattern (1, 3, 0, 2): gaps open above, open below, then bounded on both
# sides. The last pick is the sixth value drawn, the fuel, so the target's
# end is never reached and every pick comes from the scan.
@example(
    lambda: finite_listing([WIDE[1], WIDE[3], WIDE[0], WIDE[2]]),
    lambda: finite_listing([WIDE[i] for i in (2, 0, 4, 5, 1, 3, 6)]),
    4,
    6,
)
def test_lazy_match_equals_eager_match(h, target, prefix_len, fuel):
    assert_same_outcome(h, target, prefix_len, fuel)


@oracle_settings
@given(distinct_values, distinct_values)
def test_exact_match_equals_eager_match(input_values, target_values):
    # Finite targets within fuel: every pick goes through the rank window.
    outcome = assert_same_outcome(
        lambda: finite_listing(input_values),
        lambda: finite_listing(target_values),
        len(input_values),
        100,
    )
    # Any N distinct values realize any N-pattern, so the match fails only
    # for a target smaller than the input, and then at step 0.
    if len(target_values) >= len(input_values):
        assert isinstance(outcome, MatchSuccess)
    else:
        assert (outcome.step, outcome.lo, outcome.hi, outcome.refutes) == (0, None, None, True)


@st.composite
def intervals(draw):
    """Bounds that straddle 0, end at 0, or lie on one side of it, with
    widths from 1/1000 to 3.

    The filter's cost per kept value grows as the interval narrows near a
    rational of small height, 0 above all (the nearest values of height h
    are about 1/h away), so intervals touching 0 are at least 1/100 wide
    and one-sided ones start inside (0, 2) at an endpoint of height 1009.
    """
    width = Fraction(draw(st.integers(1, 3000)), 1000)
    side = draw(st.sampled_from(["straddle", "from 0", "to 0", "negative", "positive"]))
    if side in ("straddle", "from 0", "to 0"):
        width = max(width, Fraction(1, 100))
    if side == "straddle":
        a = -width * Fraction(draw(st.integers(1, 99)), 100)
    elif side == "from 0":
        a = Fraction(0)
    elif side == "to 0":
        a = -width
    else:
        offset = Fraction(draw(st.integers(1, 2017).filter(lambda n: n != 1009)), 1009)
        a = offset if side == "positive" else -offset - width
    return a, a + width


@settings(max_examples=120, deadline=None, derandomize=True)
@given(intervals(), st.integers(0, 30))
@example((Fraction(-1, 100), Fraction(1, 100)), 30)
@example((Fraction(0), Fraction(1, 100)), 30)
@example((Fraction(-1, 100), Fraction(0)), 30)
@example((Fraction(-1, 3), Fraction(-1, 3) + Fraction(1, 1000)), 30)
@example((Fraction(1, 3), Fraction(1003, 3000)), 30)
def test_direct_interval_stream_equals_filter(bounds, length):
    a, b = bounds
    direct = rationals_in_interval(a, b).listing().prefix(length)
    assert direct == list(islice(rationals_in_interval_filtered(a, b), length))
