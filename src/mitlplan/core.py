"""Exact time arithmetic, intervals, lasso-shaped timed sequences, and the
one error for malformed input.

Every quantity of time in this package is exact.  Where it is read or
printed it is a ``fractions.Fraction``, or the :data:`INFINITY` sentinel as
the upper end of an unbounded interval.  Everywhere else it is an ``int``.
A lasso word or run (:class:`LassoSequence`) holds its stamps once, as
``int`` ticks under the least common denominator of its time, and reads
them back as ``Fraction``s only when asked.  The merge of runs, the
evaluator, membership and the products count in ``int``s under one factor:
the lcm of a word's unit and the :func:`denominator_lcm` of the durations
and constants they read.  Floats never enter the pipeline; they appear
only in presentation code (SVG coordinates).

Every check that input can reach raises :class:`InputError`; a plain
``ValueError`` is a check that only a bug can fail.  Input is checked once,
by the reader that takes it into the program: the loaders of
:mod:`mitlplan.cli`, :func:`~mitlplan.tba.tba_from_dict`, and the checks of
a lasso sequence and of a run against its system.  The constructors of
the automaton and system models only build.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Iterable


class InputError(ValueError):
    """The input is malformed; the message names the field.  The command
    line exits with ``exit_code``: 3, or 4 for a formula outside the
    supported fragment."""

    exit_code = 3


@contextmanager
def naming(where: str):
    """Puts ``where: `` before the message of an input error raised inside;
    its class, which decides the exit code, stays."""
    try:
        yield
    except InputError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


class Infinite:
    """Sentinel for an unbounded time value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = Infinite()


def parse_rational(text) -> Fraction:
    """Parse an exact rational from ``"7/10"``, ``"0.7"`` or ``7``.

    Any sign is accepted (``"-1"`` gives ``Fraction(-1)``); the callers
    check it: ``cli._duration``, :class:`TimeInterval` and the run checks
    (``TimedRun`` starts at time zero and strictly increases)."""
    if isinstance(text, int):
        value = Fraction(text)
    elif isinstance(text, Fraction):
        value = text
    elif isinstance(text, str):
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {text!r}") from exc
    else:
        raise InputError(f"not a rational number: {text!r}")
    return value


def format_rational(value) -> str:
    if value is INFINITY:
        return "inf"
    return str(value)


def format_interval(lower, upper, lower_closed: bool, upper_closed: bool) -> str:
    """An interval as it is written, as in ``[0,5/2)`` or ``(1,inf)``."""
    return (f"{'[' if lower_closed else '('}{format_rational(lower)},"
            f"{format_rational(upper)}{']' if upper_closed else ')'}")


def denominator_lcm(values: Iterable) -> int:
    """The least factor that makes every one of ``values`` an integer: the
    lcm of their denominators, 1 for no values.

    Code that counts time in integers multiplies every duration and
    constant it reads by such a factor, and divides back with
    ``Fraction(t, factor)``.
    """
    return lcm(*(value.denominator for value in values))


def ticks_of(value, unit: int) -> int:
    """``value``, an ``int`` or a ``Fraction`` whose denominator divides
    ``unit``, counted in units of ``1 / unit``."""
    return value.numerator * (unit // value.denominator)


def _exact(value):
    """``value`` as an exact rational: an ``int`` or a ``Fraction`` as it
    is, anything else through ``Fraction``."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


@dataclass(frozen=True)
class TimeInterval:
    """A non-punctual interval over nonnegative time.

    ``upper`` may be :data:`INFINITY`; an unbounded interval is always open
    at the top.  Punctual intervals ``[c, c]`` are rejected: the logic this
    package implements excludes them.
    """

    lower: Fraction
    upper: object  # Fraction | Infinite
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        if self.lower < 0:
            raise InputError(f"interval lower bound must be nonnegative: {self}")
        if self.upper is INFINITY:
            if self.upper_closed:
                object.__setattr__(self, "upper_closed", False)
        elif self.lower >= self.upper:
            raise InputError(
                f"interval requires lower < upper (punctual intervals are "
                f"not allowed): {self.text()}"
            )

    def text(self) -> str:
        return format_interval(self.lower, self.upper, self.lower_closed,
                               self.upper_closed)

    def __repr__(self):
        return f"TimeInterval{self.text()}"

    def contains(self, value: Fraction) -> bool:
        if self.lower_closed:
            if value < self.lower:
                return False
        elif value <= self.lower:
            return False
        if self.upper is INFINITY:
            return True
        if self.upper_closed:
            return value <= self.upper
        return value < self.upper

    @property
    def unbounded(self) -> bool:
        return self.upper is INFINITY

    @property
    def zero_based(self) -> bool:
        """Whether the interval starts at 0, included."""
        return self.lower == 0 and self.lower_closed

    @property
    def untimed(self) -> bool:
        """Whether the interval is ``[0, inf)``, which constrains nothing."""
        return self.zero_based and self.unbounded


UNIT_INTERVAL = TimeInterval(Fraction(0), INFINITY, True, False)  # [0, inf)


def freeze_atoms(atoms: Iterable[str]) -> frozenset[str]:
    return frozenset(str(a) for a in atoms)


@dataclass(frozen=True, init=False)
class LassoSequence:
    """An ultimately periodic infinite sequence of (payload, timestamp) pairs.

    The infinite sequence is ``prefix`` followed by ``cycle`` repeated
    forever, with the k-th repetition's timestamps shifted by
    ``k * period``.  Timestamps are strictly increasing and diverge because
    ``period > 0``.

    Time is held once, in integers.  ``payloads`` lists the payload of each
    position of prefix + cycle and ``loop`` is the prefix length; position
    ``j`` is stamped ``ticks[j] / unit`` and the period is
    ``period_ticks / unit``, where ``unit`` is the least common denominator
    of the stamps and the period, so equal sequences have equal fields.
    :attr:`prefix`, :attr:`cycle`, :attr:`period`, :meth:`item_at`,
    :meth:`stamp_at` and :meth:`unroll` build exact ``Fraction`` stamps on
    read.
    """

    payloads: tuple
    loop: int
    ticks: tuple
    period_ticks: int
    unit: int

    @staticmethod
    def payload(value):
        """The payload kept for ``value``; a subclass converts it here."""
        return value

    def __init__(self, prefix, cycle, period):
        """From (payload, stamp) pairs and the period: each payload is kept
        as :meth:`payload` converts it, each stamp read once as an exact
        rational."""
        prefix = tuple(prefix)
        events = prefix + tuple(cycle)
        stamps = [_exact(t) for _, t in events]
        period = _exact(period)
        unit = lcm(period.denominator, *(t.denominator for t in stamps))
        self._hold(tuple(self.payload(value) for value, _ in events),
                   len(prefix),
                   tuple(ticks_of(t, unit) for t in stamps),
                   ticks_of(period, unit), unit)

    @classmethod
    def from_ticks(cls, payloads, loop: int, ticks, period_ticks: int,
                   unit: int):
        """The sequence whose position ``j`` of prefix + cycle carries
        ``payloads[j]``, already as :meth:`payload` keeps it, stamped
        ``ticks[j] / unit``, for code that counts time in ``int``s; the
        ticks are reduced to the least common denominator."""
        common = gcd(unit, period_ticks, *ticks)
        if common > 1:
            ticks = [t // common for t in ticks]
            period_ticks //= common
            unit //= common
        sequence = cls.__new__(cls)
        sequence._hold(tuple(payloads), loop, tuple(ticks), period_ticks,
                       unit)
        return sequence

    def _hold(self, payloads, loop, ticks, period_ticks, unit) -> None:
        for name, value in (("payloads", payloads), ("loop", loop),
                            ("ticks", ticks), ("period_ticks", period_ticks),
                            ("unit", unit)):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raises :class:`InputError` unless the sequence is a lasso whose
        time strictly increases; a subclass adds its own checks."""
        ticks = self.ticks
        if len(ticks) == self.loop:
            raise InputError("lasso cycle must be nonempty")
        if self.period_ticks <= 0:
            raise InputError(f"lasso period must be positive: {self.period}")
        if not all(map(lt, ticks, ticks[1:])):
            j = next(j for j in range(len(ticks)) if ticks[j] >= ticks[j + 1])
            raise InputError("timestamps must strictly increase: "
                             f"{self.stamp_at(j)} then {self.stamp_at(j + 1)}")
        if ticks[self.loop] + self.period_ticks <= ticks[-1]:
            raise InputError(
                "cycle repetition would not advance time: "
                f"period {self.period} too small for the cycle span"
            )

    @property
    def prefix(self) -> tuple:
        return self._items(0, self.loop)

    @property
    def cycle(self) -> tuple:
        return self._items(self.loop, len(self.ticks))

    @property
    def period(self) -> Fraction:
        return Fraction(self.period_ticks, self.unit)

    @property
    def prefix_length(self) -> int:
        return self.loop

    @property
    def cycle_length(self) -> int:
        return len(self.ticks) - self.loop

    def _items(self, start: int, stop: int, shift: int = 0) -> tuple:
        """The (payload, stamp) pairs of positions ``start`` to ``stop`` of
        prefix + cycle, ``shift`` ticks later."""
        payloads, ticks, unit = self.payloads, self.ticks, self.unit
        return tuple((payloads[j], Fraction(ticks[j] + shift, unit))
                     for j in range(start, stop))

    def _locate(self, index: int) -> tuple[int, int]:
        """The position of prefix + cycle that position ``index`` of the
        infinite sequence repeats, and the cycle turns between them."""
        if index < 0:
            raise IndexError(index)
        if index < len(self.ticks):
            return index, 0
        turns, slot = divmod(index - self.loop, self.cycle_length)
        return self.loop + slot, turns

    def item_at(self, index: int) -> tuple:
        """The (payload, timestamp) pair at any position of the infinite sequence."""
        j, turns = self._locate(index)
        return self.payloads[j], Fraction(
            self.ticks[j] + turns * self.period_ticks, self.unit)

    def payload_at(self, index: int):
        return self.payloads[self._locate(index)[0]]

    def stamp_at(self, index: int) -> Fraction:
        return self.item_at(index)[1]

    def integer_timeline(self, factor: int) -> tuple[tuple, int]:
        """The stamps of prefix + cycle and the period in units of
        ``1 / factor``, a multiple of ``unit``: :attr:`ticks` and
        :attr:`period_ticks` themselves when ``factor`` is ``unit``."""
        scale = factor // self.unit
        if scale == 1:
            return self.ticks, self.period_ticks
        return tuple(t * scale for t in self.ticks), self.period_ticks * scale

    def unroll(self, count: int) -> tuple:
        """Prefix followed by ``count`` shifted copies of the cycle."""
        if count < 0:
            raise ValueError("unroll count must be nonnegative")
        out = self.prefix
        for turn in range(count):
            out += self._items(self.loop, len(self.ticks),
                               turn * self.period_ticks)
        return out


class LassoTimedWord(LassoSequence):
    """A lasso-shaped timed word: payloads are sets of atomic propositions."""

    payload = staticmethod(freeze_atoms)

    def all_atoms(self) -> frozenset[str]:
        return frozenset().union(*self.payloads)
