"""Exact time arithmetic, intervals, lasso-shaped timed sequences, and the
one error for malformed input.

Every quantity of time in this package is exact.  Where it is read or
printed it is a ``fractions.Fraction``, or the :data:`INFINITY` sentinel as
the upper end of an unbounded interval.  Inside the products, the evaluator
and the merge it is an ``int``: those multiply every value they read by the
:func:`denominator_lcm` of all of them.  Floats never enter the pipeline;
they appear only in presentation code (SVG coordinates).

Every check that input can reach raises :class:`InputError`; a plain
``ValueError`` is a check that only a bug can fail.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    """Parse an exact nonnegative rational from ``"7/10"``, ``"0.7"`` or ``7``."""
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


def denominator_lcm(values: Iterable) -> int:
    """The least factor that makes every one of ``values`` an integer: the
    lcm of their denominators, 1 for no values.

    Code that counts time in integers multiplies every stamp, duration and
    constant it reads by such a factor, and divides back with
    ``Fraction(t, factor)``.
    """
    return lcm(*(value.denominator for value in values))


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
        lo = "[" if self.lower_closed else "("
        hi = "]" if self.upper_closed else ")"
        return f"{lo}{format_rational(self.lower)},{format_rational(self.upper)}{hi}"

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


@dataclass(frozen=True)
class LassoSequence:
    """An ultimately periodic infinite sequence of (payload, timestamp) pairs.

    The infinite sequence is ``prefix`` followed by ``cycle`` repeated
    forever, with the k-th repetition's timestamps shifted by
    ``k * period``.  Timestamps are strictly increasing and diverge because
    ``period > 0``.  Each payload is kept as :meth:`payload` converts it,
    and each stamp as a ``Fraction``.
    """

    prefix: tuple
    cycle: tuple
    period: Fraction

    @staticmethod
    def payload(value):
        """The payload kept for ``value``; a subclass converts it here."""
        return value

    def __post_init__(self):
        for name in ("prefix", "cycle"):
            object.__setattr__(self, name, tuple(
                (self.payload(value),
                 stamp if isinstance(stamp, Fraction) else Fraction(stamp))
                for value, stamp in getattr(self, name)))
        if not self.cycle:
            raise InputError("lasso cycle must be nonempty")
        if self.period <= 0:
            raise InputError(f"lasso period must be positive: {self.period}")
        stamps = [t for _, t in self.prefix] + [t for _, t in self.cycle]
        for a, b in zip(stamps, stamps[1:]):
            if a >= b:
                raise InputError(f"timestamps must strictly increase: {a} then {b}")
        wrap_gap = self.cycle[0][1] + self.period - self.cycle[-1][1]
        if wrap_gap <= 0:
            raise InputError(
                "cycle repetition would not advance time: "
                f"period {self.period} too small for the cycle span"
            )

    @property
    def prefix_length(self) -> int:
        return len(self.prefix)

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)

    def item_at(self, index: int) -> tuple:
        """The (payload, timestamp) pair at any position of the infinite sequence."""
        if index < 0:
            raise IndexError(index)
        if index < len(self.prefix):
            return self.prefix[index]
        offset = index - len(self.prefix)
        turns, slot = divmod(offset, len(self.cycle))
        payload, stamp = self.cycle[slot]
        return payload, stamp + turns * self.period

    def payload_at(self, index: int):
        return self.item_at(index)[0]

    def stamp_at(self, index: int) -> Fraction:
        return self.item_at(index)[1]

    def time_values(self) -> list:
        """The stamps of prefix + cycle and the period: the values whose
        :func:`denominator_lcm` makes this sequence's time integral."""
        return [t for _, t in self.prefix + self.cycle] + [self.period]

    def integer_timeline(self, factor: int) -> tuple[list[int], int]:
        """The stamps of prefix + cycle and the period, multiplied by
        ``factor`` into ``int``s; ``factor`` must be a multiple of every
        denominator among them."""
        *stamps, period = [value.numerator * (factor // value.denominator)
                           for value in self.time_values()]
        return stamps, period

    def integer_steps(self, factor: int) -> list[tuple[int, int]]:
        """Per position of prefix + cycle: the time to the next position in
        :meth:`integer_timeline`'s units, and that position reduced into
        prefix + cycle."""
        stamps, period = self.integer_timeline(factor)
        loop = len(self.prefix)
        stamps.append(stamps[loop] + period)
        following = list(range(1, len(stamps) - 1)) + [loop]
        return [(stamps[i + 1] - stamps[i], j) for i, j in enumerate(following)]

    def unroll(self, count: int) -> tuple:
        """Prefix followed by ``count`` shifted copies of the cycle."""
        if count < 0:
            raise ValueError("unroll count must be nonnegative")
        out = list(self.prefix)
        for turn in range(count):
            shift = turn * self.period
            out.extend((payload, stamp + shift) for payload, stamp in self.cycle)
        return tuple(out)


class LassoTimedWord(LassoSequence):
    """A lasso-shaped timed word: payloads are sets of atomic propositions."""

    payload = staticmethod(freeze_atoms)

    def all_atoms(self) -> frozenset[str]:
        out: set[str] = set()
        for atoms, _ in self.prefix + self.cycle:
            out |= atoms
        return frozenset(out)
