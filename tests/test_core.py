import random
from fractions import Fraction as Q
from math import lcm

import pytest

from mitlplan.core import (INFINITY, InputError, LassoTimedWord,
                           TimeInterval, format_rational, parse_rational)
from oracles import lasso_refusal


def word(prefix, cycle, period):
    return LassoTimedWord(prefix=tuple(prefix), cycle=tuple(cycle), period=Q(period))


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("7/10") == Q(7, 10)
        assert parse_rational("0.7") == Q(7, 10)
        assert parse_rational(3) == Q(3)
        with pytest.raises(ValueError):
            parse_rational("abc")

    def test_format_round_trip(self):
        for value in [Q(5, 2), Q(3), Q(0), Q(7, 10)]:
            assert parse_rational(format_rational(value)) == value

    def test_exact_associativity_sample(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (Q(rng.randrange(-50, 50), rng.randrange(1, 20))
                       for _ in range(3))
            assert (a + b) + c == a + (b + c)
            stored = Q(a.numerator, a.denominator)
            assert stored == a and stored.denominator > 0


class TestInfinity:
    def test_ordering(self):
        assert INFINITY == INFINITY


class TestTimeInterval:
    def test_membership(self):
        half_open = TimeInterval(Q(1), Q(3), True, False)
        assert half_open.contains(Q(1))
        assert half_open.contains(Q(2))
        assert not half_open.contains(Q(3))
        unbounded = TimeInterval(Q(2), INFINITY, False, False)
        assert not unbounded.contains(Q(2))
        assert unbounded.contains(Q(10**6))

    def test_punctual_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(Q(2), Q(2), True, True)
        with pytest.raises(ValueError):
            TimeInterval(Q(3), Q(2), True, True)

    def test_infinite_upper_is_open(self):
        interval = TimeInterval(Q(0), INFINITY, True, True)
        assert not interval.upper_closed


class TestLassoTimedWord:
    def test_unroll_shifts_cycle(self):
        w = word([({"p"}, Q(0))], [({"q"}, Q(1))], 1)
        assert w.unroll(2) == (
            (frozenset({"p"}), Q(0)),
            (frozenset({"q"}), Q(1)),
            (frozenset({"q"}), Q(2)),
        )

    def test_unroll_zero_is_prefix(self):
        w = word([({"p"}, Q(0)), (set(), Q(1))], [({"q"}, Q(2))], 3)
        assert w.unroll(0) == w.prefix

    def test_unroll_collective_word_of_worked_example(self):
        # the merged two-agent word: six-position prefix, six-position cycle,
        # repetition shifts by 5; shifts recomputed by hand
        prefix = [({"green"}, Q(0)), (set(), Q(1)), (set(), Q(2)),
                  ({"red"}, Q(5, 2)), ({"red"}, Q(3)), (set(), Q(9, 2))]
        cycle = [({"green", "red"}, Q(5)), ({"red"}, Q(6)), (set(), Q(7)),
                 ({"red"}, Q(15, 2)), ({"red"}, Q(8)), (set(), Q(19, 2))]
        w = word(prefix, cycle, 5)
        got = w.unroll(2)
        stamps = [t for _, t in got]
        assert stamps == [Q(0), Q(1), Q(2), Q(5, 2), Q(3), Q(9, 2),
                          Q(5), Q(6), Q(7), Q(15, 2), Q(8), Q(19, 2),
                          Q(10), Q(11), Q(12), Q(25, 2), Q(13), Q(29, 2)]
        assert got[6][0] == frozenset({"green", "red"})
        assert got[12][0] == frozenset({"green", "red"})

    def test_unroll_extension_is_prefix(self):
        rng = random.Random(11)
        w = word([({"a"}, Q(0))], [(set(), Q(1, 2)), ({"b"}, Q(2))], Q(5, 2))
        for k in range(4):
            shorter, longer = w.unroll(k), w.unroll(k + 1)
            assert longer[:len(shorter)] == shorter
            assert len(longer) > len(shorter)

    def test_validation(self):
        with pytest.raises(ValueError):
            word([({"p"}, Q(1)), ({"q"}, Q(1))], [(set(), Q(2))], 1)
        with pytest.raises(ValueError):
            word([], [({"p"}, Q(0))], 0)
        with pytest.raises(ValueError):
            LassoTimedWord(prefix=(), cycle=(), period=Q(1))
        with pytest.raises(ValueError):  # wraparound would not advance time
            word([], [(set(), Q(0)), (set(), Q(3))], 2)

    def test_stamps_are_kept_as_fractions(self):
        stamp = Q(1, 2)
        w = LassoTimedWord(prefix=((set(), 0),), cycle=((set(), stamp),),
                           period=Q(1))
        assert type(w.prefix[0][1]) is Q and w.prefix[0][1] == 0
        assert type(w.cycle[0][1]) is Q and w.cycle[0][1] == stamp

    def test_indexing_matches_unroll(self):
        w = word([({"a"}, Q(0))], [({"b"}, Q(1)), (set(), Q(5, 2))], 3)
        flat = w.unroll(4)
        for i, item in enumerate(flat):
            assert w.item_at(i) == item


STAMP_UNITS = (Q(1), Q(1, 3), Q(1, 7))


def random_pairs(rng, unit):
    """The prefix, cycle and period of a random lasso whose stamps are
    multiples of ``unit``, not always starting at zero."""
    stamps = [unit * rng.randrange(0, 3)]
    size = rng.randrange(1, 7)
    for _ in range(size - 1):
        stamps.append(stamps[-1] + unit * rng.randrange(1, 5))
    loop = rng.randrange(0, size)
    events = [(frozenset(rng.sample("pqr", rng.randrange(0, 3))), t)
              for t in stamps]
    period = stamps[-1] - stamps[loop] + unit * rng.randrange(1, 5)
    return events[:loop], events[loop:], period


def broken(rng, prefix, cycle, period, unit):
    """The lasso with one of its checks made to fail, or left valid."""
    prefix, cycle = list(prefix), list(cycle)
    kind = rng.randrange(5)
    if kind == 0:
        cycle = []
    elif kind == 1:
        period = -unit * rng.randrange(0, 3)
    elif kind == 2:
        events = prefix + cycle
        if len(events) > 1:
            j = rng.randrange(1, len(events))
            later = events[j - 1][1] + unit * rng.randrange(-1, 1)
            events[j] = (events[j][0], later)
        prefix, cycle = events[:len(prefix)], events[len(prefix):]
    elif kind == 3:
        period = cycle[-1][1] - cycle[0][1] - unit * rng.randrange(0, 2)
    return prefix, cycle, period


class TestIntegerTimeline:
    """A lasso keeps its time as ints under its least common denominator
    and reads exact Fractions back."""

    def test_stamps_read_back_as_given(self):
        rng = random.Random(15)
        for trial in range(300):
            unit = STAMP_UNITS[trial % 3]
            prefix, cycle, period = random_pairs(rng, unit)
            w = LassoTimedWord(prefix=prefix, cycle=cycle, period=period)
            assert w.prefix == tuple(prefix) and w.cycle == tuple(cycle)
            assert w.period == period
            assert all(type(t) is Q for _, t in w.unroll(2))
            assert w.unit == lcm(*(t.denominator for _, t in
                                   prefix + cycle + [(None, period)]))
            flat = w.unroll(3)
            assert [w.item_at(i) for i in range(len(flat))] == list(flat)
            assert [w.stamp_at(i) for i in range(len(flat))] == \
                [t for _, t in flat]

    def test_equal_lassos_have_equal_fields(self):
        rng = random.Random(16)
        for trial in range(150):
            unit = STAMP_UNITS[trial % 3]
            w = LassoTimedWord(*random_pairs(rng, unit))
            # the same time counted under six times the unit
            again = LassoTimedWord.from_ticks(
                w.payloads, w.loop, [6 * t for t in w.ticks],
                6 * w.period_ticks, 6 * w.unit)
            assert again == w and hash(again) == hash(w)
            assert (again.ticks, again.unit) == (w.ticks, w.unit)
            shifted = LassoTimedWord(prefix=w.prefix, cycle=w.cycle,
                                     period=w.period + unit)
            assert shifted != w

    def test_refusals_keep_their_messages(self):
        rng = random.Random(17)
        refused = 0
        for trial in range(600):
            unit = STAMP_UNITS[trial % 3]
            prefix, cycle, period = broken(rng, *random_pairs(rng, unit), unit)
            expected = lasso_refusal(prefix, cycle, period)
            if expected is None:
                LassoTimedWord(prefix=prefix, cycle=cycle, period=period)
                continue
            refused += 1
            with pytest.raises(InputError) as caught:
                LassoTimedWord(prefix=prefix, cycle=cycle, period=period)
            assert str(caught.value) == expected, trial
        assert refused > 300
