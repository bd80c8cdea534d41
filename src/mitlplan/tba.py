"""Timed Buchi automata: clock constraints, the automaton model, translation
of a fragment of the formula language, intersection, and membership of
lasso timed words.

Automata here are state-labeled: every location carries the exact letter
(a set of atomic propositions) that is read when the run sits there.  A
run over a timed word starts in an initial location whose label matches
position 0, and each step elapses the gap to the next position, checks the
source invariant and the edge guard on the elapsed valuation, applies the
resets, and checks the target invariant; the target's label must match the
next letter.  :meth:`TimedBuchiAutomaton.step` is that step, for every
product built on an automaton.  A clock above the automaton's largest
constant ``cmax`` is kept at ``cmax + 1``: such a clock satisfies exactly
the constraints any larger value does, so the products stay finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .core import (INFINITY, LassoTimedWord, TimeInterval, denominator_lcm,
                   format_rational, int_if_integral, parse_rational)
from .mitl import (Always, And, Eventually, FalseFormula, Formula, Next,
                   Not, TrueFormula, Until, atoms_of,
                   evaluate_propositional, format_formula, is_propositional,
                   normalize)


class UnsupportedFragmentError(Exception):
    """The formula lies outside the automaton-translatable fragment."""

    def __init__(self, path: str, subterm):
        self.path = path
        self.subterm = subterm
        super().__init__(
            f"cannot translate subformula at {path}: {format_formula(subterm)} "
            f"(supply a hand-written automaton file instead)")


# --- clock constraints ---------------------------------------------------

class ClockConstraint:
    pass


@dataclass(frozen=True)
class TrueConstraint(ClockConstraint):
    pass


@dataclass(frozen=True)
class NotConstraint(ClockConstraint):
    operand: ClockConstraint


@dataclass(frozen=True)
class AndConstraint(ClockConstraint):
    left: ClockConstraint
    right: ClockConstraint


@dataclass(frozen=True)
class Compare(ClockConstraint):
    clock: str
    relation: str  # one of < <= > >= =
    constant: Fraction  # stored as an int when integral

    def __post_init__(self):
        if self.relation not in ("<", "<=", ">", ">=", "="):
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.constant < 0:
            raise ValueError("clock constants are nonnegative")
        object.__setattr__(self, "constant", int_if_integral(self.constant))


TRUE = TrueConstraint()


def constraint_and(*parts: ClockConstraint) -> ClockConstraint:
    out = None
    for part in parts:
        if isinstance(part, TrueConstraint):
            continue
        out = part if out is None else AndConstraint(out, part)
    return out if out is not None else TRUE


def comparisons(constraint: ClockConstraint):
    """The clock comparisons of ``constraint``, left to right."""
    match constraint:
        case TrueConstraint():
            return
        case NotConstraint(operand):
            yield from comparisons(operand)
        case AndConstraint(left, right):
            yield from comparisons(left)
            yield from comparisons(right)
        case Compare():
            yield constraint
        case _:
            raise TypeError(constraint)


def map_comparisons(constraint: ClockConstraint, change) -> ClockConstraint:
    """``constraint`` with every comparison ``c`` replaced by ``change(c)``."""
    match constraint:
        case NotConstraint(operand):
            return NotConstraint(map_comparisons(operand, change))
        case AndConstraint(left, right):
            return AndConstraint(map_comparisons(left, change),
                                 map_comparisons(right, change))
        case Compare():
            return change(constraint)
    return constraint


def constraint_constants(constraint: ClockConstraint) -> set[Fraction]:
    return {c.constant for c in comparisons(constraint)}


def scale_constraint(constraint: ClockConstraint, factor: int) -> ClockConstraint:
    return map_comparisons(constraint, lambda c: Compare(
        c.clock, c.relation, c.constant * factor))


def interval_guard(clock: str, interval: TimeInterval) -> ClockConstraint:
    """The constraint "clock value lies in the interval"."""
    parts = []
    if interval.lower > 0 or not interval.lower_closed:
        parts.append(Compare(clock, ">=" if interval.lower_closed else ">",
                             interval.lower))
    if interval.upper is not INFINITY:
        parts.append(Compare(clock, "<=" if interval.upper_closed else "<",
                             interval.upper))
    return constraint_and(*parts)


def outside_interval_guard(clock: str, interval: TimeInterval) -> ClockConstraint:
    guard = interval_guard(clock, interval)
    if isinstance(guard, TrueConstraint):
        return NotConstraint(TRUE)
    return NotConstraint(guard)


def parse_constraint(text: str) -> ClockConstraint:
    tokens = _constraint_tokens(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(kind=None):
        token = tokens[pos[0]]
        if kind is not None and token[0] != kind:
            raise ValueError(f"constraint syntax: expected {kind!r} at {token[1]!r}")
        pos[0] += 1
        return token

    def conjunction():
        left = unary()
        while peek()[0] == "&":
            take()
            left = AndConstraint(left, unary())
        return left

    def unary():
        kind, value = peek()
        if kind == "!":
            take()
            return NotConstraint(unary())
        if kind == "(":
            take()
            inner = conjunction()
            take(")")
            return inner
        if kind == "true":
            take()
            return TRUE
        if kind == "name":
            clock = take()[1]
            relation = take("rel")[1]
            constant = parse_rational(take("number")[1])
            if relation == "==":
                relation = "="
            return Compare(clock, relation, constant)
        raise ValueError(f"constraint syntax: unexpected {value!r}")

    out = conjunction()
    if peek()[0] != "end":
        raise ValueError(f"constraint syntax: trailing {peek()[1]!r}")
    return out


def _constraint_tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith(("<=", ">=", "=="), i):
            out.append(("rel", text[i:i + 2]))
            i += 2
        elif ch in "<>=":
            out.append(("rel", ch))
            i += 1
        elif ch in "!&()":
            out.append((ch, ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in "./"):
                j += 1
            out.append(("number", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("true" if word == "true" else "name", word))
            i = j
        else:
            raise ValueError(f"constraint syntax: unknown character {ch!r}")
    out.append(("end", ""))
    return out


def format_constraint(constraint: ClockConstraint) -> str:
    match constraint:
        case TrueConstraint():
            return "true"
        case NotConstraint(operand):
            return f"!({format_constraint(operand)})"
        case AndConstraint(left, right):
            return f"{format_constraint(left)} & {format_constraint(right)}"
        case Compare(clock, relation, constant):
            return f"{clock} {relation} {format_rational(constant)}"
    raise TypeError(constraint)


# --- the automaton model -------------------------------------------------

@dataclass(frozen=True, slots=True)  # automata hold thousands of edges
class Edge:
    source: str
    guard: ClockConstraint
    resets: frozenset[str]
    target: str


_OPERATORS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=="}


def compile_constraint(constraint: ClockConstraint,
                       clocks: tuple[str, ...]) -> Optional[Callable]:
    """A function deciding ``constraint`` on a valuation tuple ordered as
    ``clocks``, or ``None`` for a constraint that always holds: one Python
    expression over the tuple's slots, whose text holds only slot indices,
    operators and the names the constants are bound to."""
    if isinstance(constraint, TrueConstraint):
        return None
    slot = {clock: i for i, clock in enumerate(clocks)}
    names: dict = {}  # constant -> its name in the expression

    def source(part: ClockConstraint) -> str:
        match part:
            case TrueConstraint():
                return "True"
            case NotConstraint(operand):
                return f"not ({source(operand)})"
            case AndConstraint(left, right):
                return f"({source(left)}) and ({source(right)})"
            case Compare(clock, relation, constant):
                name = names.setdefault(constant, f"c{len(names)}")
                return f"v[{slot[clock]}] {_OPERATORS[relation]} {name}"
        raise TypeError(f"not a clock constraint: {part!r}")

    body = source(constraint)
    return eval(f"lambda v: {body}",
                {name: constant for constant, name in names.items()})


@dataclass
class TimedBuchiAutomaton:
    locations: tuple[str, ...]
    initial: frozenset[str]
    clocks: tuple[str, ...]
    invariants: dict  # location -> ClockConstraint
    edges: tuple[Edge, ...]
    accepting: frozenset[str]
    atoms: frozenset[str]
    labels: dict  # location -> frozenset of atoms
    _edges_from: dict = field(default_factory=dict, repr=False)
    # filled by the first step out of a location, see step()
    _step_tables: dict = field(default_factory=dict, repr=False, compare=False)
    _checks: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.locations = tuple(sorted(self.locations))
        self.clocks = tuple(sorted(self.clocks))
        self.initial = frozenset(self.initial)
        self.accepting = frozenset(self.accepting)
        self.atoms = frozenset(self.atoms)
        known = set(self.locations)
        if not self.initial:
            raise ValueError("automaton needs at least one initial location")
        if not self.initial <= known:
            raise ValueError("initial locations must be declared")
        if not self.accepting <= known:
            raise ValueError("accepting locations must be declared")
        clock_set = set(self.clocks)
        for loc in self.locations:
            self.invariants.setdefault(loc, TRUE)
            if loc not in self.labels:
                raise ValueError(f"location {loc} has no label")
            if not frozenset(self.labels[loc]) <= self.atoms:
                raise ValueError(f"label of {loc} uses undeclared atoms")
            self.labels[loc] = frozenset(self.labels[loc])
            if not {c.clock for c in comparisons(self.invariants[loc])} <= clock_set:
                raise ValueError(f"invariant of {loc} uses undeclared clocks")
        for edge in self.edges:
            if edge.source not in known or edge.target not in known:
                raise ValueError(f"edge endpoints must be declared: {edge}")
            clocks = {c.clock for c in comparisons(edge.guard)} | set(edge.resets)
            if not clocks <= clock_set:
                raise ValueError(f"edge uses undeclared clocks: {edge}")
        self.edges = tuple(sorted(
            self.edges, key=lambda e: (e.source, e.target, format_constraint(e.guard),
                                       tuple(sorted(e.resets)))))
        by_source: dict[str, list[Edge]] = {loc: [] for loc in self.locations}
        for edge in self.edges:
            by_source[edge.source].append(edge)
        self._edges_from = {loc: tuple(edges) for loc, edges in by_source.items()}

    def label_of(self, location: str) -> frozenset[str]:
        return self.labels[location]

    def edges_from(self, location: str) -> tuple[Edge, ...]:
        return self._edges_from[location]

    def constants(self) -> set:
        """Every constant of a guard or an invariant."""
        constraints = [edge.guard for edge in self.edges]
        constraints.extend(self.invariants.values())
        return {c.constant for constraint in constraints
                for c in comparisons(constraint)}

    def cmax(self):
        return max(self.constants(), default=0)

    def zero_valuation(self) -> tuple:
        return (0,) * len(self.clocks)

    def scaled(self, factor: int) -> "TimedBuchiAutomaton":
        if factor == 1:
            return self
        return TimedBuchiAutomaton(
            locations=self.locations,
            initial=self.initial,
            clocks=self.clocks,
            invariants={loc: scale_constraint(inv, factor)
                        for loc, inv in self.invariants.items()},
            edges=tuple(Edge(e.source, scale_constraint(e.guard, factor),
                             e.resets, e.target) for e in self.edges),
            accepting=self.accepting,
            atoms=self.atoms,
            labels=dict(self.labels),
        )

    def initial_locations(self, letter: frozenset[str]) -> tuple[str, ...]:
        """The initial locations labelled ``letter`` whose invariant admits
        the zero valuation, in name order."""
        zero = self.zero_valuation()
        out = []
        for location in sorted(self.initial):
            if self.labels[location] != letter:
                continue
            check = self._check(self.invariants[location])
            if check is None or check(zero):
                out.append(location)
        return tuple(out)

    def step(self, location: str, valuation: tuple, elapse, letter: frozenset[str],
             cmax) -> list:
        """The ``(target, landed valuation)`` pairs, in edge order, of the
        step out of ``location`` into a location labelled ``letter`` after
        ``elapse`` time units, as the module describes it; ``cmax`` is at
        least :meth:`cmax`."""
        table = self._step_tables.get(location)
        if table is None:
            table = self._step_tables[location] = self._step_table(location)
        invariant, by_letter = table
        edges = by_letter.get(letter)
        if edges is None:
            return []
        elapsed = tuple([value + elapse for value in valuation])
        if invariant is not None and not invariant(elapsed):
            return []
        cap = cmax + 1
        saturated = tuple([value if value <= cmax else cap for value in elapsed])
        out = []
        for target, guard, resets, target_invariant in edges:
            if guard is not None and not guard(elapsed):
                continue
            landed = saturated
            if resets:
                landed = tuple([0 if slot in resets else value
                                for slot, value in enumerate(saturated)])
            if target_invariant is None or target_invariant(landed):
                out.append((target, landed))
        return out

    def _step_table(self, location: str):
        """The compiled invariant of ``location`` and, per target letter,
        its edges as (target, guard, reset slots, target invariant)."""
        slot = {clock: i for i, clock in enumerate(self.clocks)}
        by_letter: dict = {}
        for edge in self._edges_from[location]:
            by_letter.setdefault(self.labels[edge.target], []).append((
                edge.target, self._check(edge.guard),
                frozenset(slot[clock] for clock in edge.resets),
                self._check(self.invariants[edge.target])))
        return (self._check(self.invariants[location]),
                {letter: tuple(edges) for letter, edges in by_letter.items()})

    def _check(self, constraint: ClockConstraint) -> Optional[Callable]:
        if constraint not in self._checks:
            self._checks[constraint] = compile_constraint(constraint, self.clocks)
        return self._checks[constraint]


# --- JSON external format -------------------------------------------------

def tba_to_dict(automaton: TimedBuchiAutomaton) -> dict:
    return {
        "clocks": list(automaton.clocks),
        "locations": [
            {
                "name": loc,
                "label": sorted(automaton.labels[loc]),
                "invariant": format_constraint(automaton.invariants[loc]),
                "accepting": loc in automaton.accepting,
                "initial": loc in automaton.initial,
            }
            for loc in automaton.locations
        ],
        "edges": [
            {
                "from": edge.source,
                "to": edge.target,
                "guard": format_constraint(edge.guard),
                "resets": sorted(edge.resets),
            }
            for edge in automaton.edges
        ],
    }


def tba_from_dict(data: dict) -> TimedBuchiAutomaton:
    def constraint(entry: dict, key: str, where: str) -> ClockConstraint:
        try:
            return parse_constraint(entry.get(key, "true"))
        except ValueError as exc:
            raise ValueError(f"{where}.{key}: {exc}") from exc

    locations = []
    labels = {}
    invariants = {}
    initial = set()
    accepting = set()
    atoms: set[str] = set()
    for i, entry in enumerate(data["locations"]):
        name = entry["name"]
        locations.append(name)
        labels[name] = frozenset(entry.get("label", []))
        atoms |= labels[name]
        invariants[name] = constraint(entry, "invariant", f"locations[{i}]")
        if entry.get("initial"):
            initial.add(name)
        if entry.get("accepting"):
            accepting.add(name)
    edges = tuple(
        Edge(source=entry["from"],
             guard=constraint(entry, "guard", f"edges[{i}]"),
             resets=frozenset(entry.get("resets", [])),
             target=entry["to"])
        for i, entry in enumerate(data["edges"])
    )
    return TimedBuchiAutomaton(
        locations=tuple(locations),
        initial=frozenset(initial),
        clocks=tuple(data.get("clocks", [])),
        invariants=invariants,
        edges=edges,
        accepting=frozenset(accepting),
        atoms=frozenset(data.get("atoms", sorted(atoms))),
        labels=labels,
    )


# --- translation of the supported fragment --------------------------------

def _letters(atoms: frozenset[str]):
    """All subsets of the alphabet, in a fixed order."""
    ordered = sorted(atoms)
    out = []
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            out.append(frozenset(combo))
    return out


def _letter_name(letter: frozenset[str]) -> str:
    return "+".join(sorted(letter)) if letter else "none"


def _satisfying_letters(beta: Formula, letters):
    return [s for s in letters if evaluate_propositional(beta, s)]


class _Builder:
    def __init__(self, atoms: frozenset[str]):
        self.atoms = frozenset(atoms)
        self.letters = _letters(self.atoms)
        self.locations: list[str] = []
        self.labels: dict[str, frozenset[str]] = {}
        self.invariants: dict = {}
        self.initial: set[str] = set()
        self.accepting: set[str] = set()
        self.edges: list[Edge] = []
        self.clocks: list[str] = []

    def location(self, control: str, letter: frozenset[str], *, initial=False,
                 accepting=False, invariant=TRUE) -> str:
        name = f"{control}[{_letter_name(letter)}]"
        if name not in self.labels:
            self.locations.append(name)
            self.labels[name] = letter
            self.invariants[name] = invariant
        if initial:
            self.initial.add(name)
        if accepting:
            self.accepting.add(name)
        return name

    def connect(self, sources, targets, guard=TRUE, resets=()):
        for src in sources:
            for dst in targets:
                self.edges.append(Edge(src, guard, frozenset(resets), dst))

    def build(self) -> TimedBuchiAutomaton:
        return TimedBuchiAutomaton(
            locations=tuple(self.locations),
            initial=frozenset(self.initial),
            clocks=tuple(self.clocks),
            invariants=self.invariants,
            edges=tuple(self.edges),
            accepting=frozenset(self.accepting),
            atoms=self.atoms,
            labels=self.labels,
        )


def universal_tba(atoms) -> TimedBuchiAutomaton:
    """Accepts every timed word over the alphabet."""
    b = _Builder(frozenset(atoms))
    locs = [b.location("any", s, initial=True, accepting=True) for s in b.letters]
    b.connect(locs, locs)
    return b.build()


def empty_tba(atoms) -> TimedBuchiAutomaton:
    """Accepts no timed word: complete but with an empty accepting set."""
    b = _Builder(frozenset(atoms))
    locs = [b.location("dead", s, initial=True) for s in b.letters]
    b.connect(locs, locs)
    return b.build()


def _translate_propositional(beta: Formula, b: _Builder) -> None:
    good = _satisfying_letters(beta, b.letters)
    rest = [b.location("rest", s, accepting=True) for s in b.letters]
    starts = []
    for s in b.letters:
        loc = b.location("start", s, initial=True)
        if s in good:
            b.accepting.add(loc)
            starts.append(loc)
    b.connect(starts, rest)
    b.connect(rest, rest)


def _translate_eventually(interval, beta, b: _Builder) -> None:
    b.clocks.append("x")
    good = _satisfying_letters(beta, b.letters)
    wait = [b.location("wait", s, initial=True) for s in b.letters]
    done = [b.location("done", s, accepting=True) for s in b.letters]
    hits = [b.location("done", s) for s in good]
    b.connect(wait, wait)
    b.connect(wait, hits, guard=interval_guard("x", interval))
    b.connect(done, done)
    if interval.contains(Fraction(0)):
        for s in good:
            b.initial.add(b.location("done", s))


def _translate_always(interval, beta, b: _Builder) -> None:
    b.clocks.append("x")
    good = set(_satisfying_letters(beta, b.letters))
    locs = [b.location("hold", s, accepting=True) for s in b.letters]
    inside = interval_guard("x", interval)
    outside = outside_interval_guard("x", interval)
    good_locs = [b.location("hold", s) for s in b.letters if s in good]
    b.connect(locs, good_locs, guard=inside)
    b.connect(locs, locs, guard=outside)
    for s in b.letters:
        if s in good or not interval.contains(Fraction(0)):
            b.initial.add(b.location("hold", s))


def _translate_next(interval, beta, b: _Builder) -> None:
    b.clocks.append("x")
    good = _satisfying_letters(beta, b.letters)
    first = [b.location("first", s, initial=True) for s in b.letters]
    second = [b.location("second", s, accepting=True) for s in good]
    rest = [b.location("rest", s, accepting=True) for s in b.letters]
    b.connect(first, second, guard=interval_guard("x", interval))
    b.connect(second, rest)
    b.connect(rest, rest)


def _translate_until(interval, left, right, b: _Builder) -> None:
    b.clocks.append("x")
    holds = _satisfying_letters(left, b.letters)
    goals = _satisfying_letters(right, b.letters)
    wait = [b.location("wait", s) for s in holds]
    done = [b.location("done", s, accepting=True) for s in b.letters]
    for s in holds:
        b.initial.add(b.location("wait", s))
    b.connect(wait, wait)
    b.connect(wait, [b.location("done", s) for s in goals],
              guard=interval_guard("x", interval))
    b.connect(done, done)
    if interval.contains(Fraction(0)):
        for s in goals:
            b.initial.add(b.location("done", s))


def _translate_recurrence(interval, beta, b: _Builder) -> None:
    """G F[I] beta with the window starting at 0.

    The clock measures time since the first position after the last
    beta-position (everything before then is already discharged); waiting
    locations may only be entered while a beta could still arrive in time.
    """
    b.clocks.append("x")
    good = set(_satisfying_letters(beta, b.letters))
    upper_ok = (interval_guard("x", TimeInterval(Fraction(0), interval.upper,
                                                 True, interval.upper_closed))
                if interval.upper is not INFINITY else TRUE)
    wait_inv = upper_ok
    wait = [b.location("wait", s, initial=True, invariant=wait_inv)
            for s in b.letters if s not in good]
    hit = [b.location("hit", s, initial=True, accepting=True)
           for s in b.letters if s in good]
    b.connect(wait, wait)
    b.connect(wait, hit, guard=upper_ok)
    b.connect(hit, wait, resets=("x",))
    b.connect(hit, hit, resets=("x",))


def _translate_response(window, beta, b: _Builder) -> None:
    """G(beta -> X G[0,c] !beta): once beta holds, it may not hold again
    until the window measured from that position has passed."""
    b.clocks.append("x")
    good = set(_satisfying_letters(beta, b.letters))
    quiet = [b.location("quiet", s, initial=True, accepting=True)
             for s in b.letters if s not in good]
    seen_trigger = [b.location("windowed", s, accepting=True)
                    for s in b.letters if s in good]
    seen_quiet = [b.location("windowed", s, accepting=True)
                  for s in b.letters if s not in good]
    for s in b.letters:
        if s in good:
            b.initial.add(b.location("windowed", s))
    allow = outside_interval_guard("x", window)
    b.connect(quiet, quiet)
    b.connect(quiet, seen_trigger, resets=("x",))
    b.connect(seen_quiet + seen_trigger, seen_quiet)
    b.connect(seen_quiet + seen_trigger, seen_trigger, guard=allow, resets=("x",))


def _is_zero_based(interval: TimeInterval) -> bool:
    return interval.lower == 0 and interval.lower_closed


def _is_untimed(interval: TimeInterval) -> bool:
    return _is_zero_based(interval) and interval.upper is INFINITY


def translate_mitl(formula: Formula, alphabet=None) -> TimedBuchiAutomaton:
    """Build an automaton accepting exactly the lasso words satisfying the
    formula, for the supported fragment:

    - propositional formulas;
    - ``F[I] b``, ``G[I] b``, ``b1 U[I] b2``, ``X[I] b`` with propositional
      operands;
    - the recurrence pattern ``G F[I] b`` and the response pattern
      ``G(b -> X G[I] !b)``, both with I starting at 0;
    - conjunctions of supported formulas.

    Anything else raises :class:`UnsupportedFragmentError` naming the
    offending subterm.
    """
    atoms = frozenset(alphabet) if alphabet is not None else atoms_of(formula)
    if not atoms_of(formula) <= atoms:
        raise ValueError("formula uses atoms outside the declared alphabet")
    root = normalize(formula)
    return _translate(root, atoms, "formula")


def _translate(formula: Formula, atoms: frozenset[str], path: str) -> TimedBuchiAutomaton:
    if isinstance(formula, TrueFormula):
        return universal_tba(atoms)
    if isinstance(formula, FalseFormula):
        return empty_tba(atoms)
    if is_propositional(formula):
        b = _Builder(atoms)
        _translate_propositional(formula, b)
        return b.build()
    match formula:
        case And(left, right):
            return intersect(_translate(left, atoms, path + ".left"),
                             _translate(right, atoms, path + ".right"))
        case Eventually(interval, operand) if is_propositional(operand):
            b = _Builder(atoms)
            _translate_eventually(interval, operand, b)
            return b.build()
        case Always(outer, Eventually(inner, operand)) if (
                _is_untimed(outer) and is_propositional(operand)
                and _is_zero_based(inner)):
            b = _Builder(atoms)
            _translate_recurrence(inner, operand, b)
            return b.build()
        case Always(outer, Not(And(beta, Not(Next(step, Always(window, Not(beta2))))))) if (
                _is_untimed(outer) and _is_untimed(step)
                and is_propositional(beta) and beta == beta2
                and _is_zero_based(window) and window.upper is not INFINITY):
            # normalized form of G(beta -> X G[0,c] !beta)
            b = _Builder(atoms)
            _translate_response(window, beta, b)
            return b.build()
        case Always(interval, operand) if is_propositional(operand):
            b = _Builder(atoms)
            _translate_always(interval, operand, b)
            return b.build()
        case Next(interval, operand) if is_propositional(operand):
            b = _Builder(atoms)
            _translate_next(interval, operand, b)
            return b.build()
        case Until(interval, left, right) if (is_propositional(left)
                                              and is_propositional(right)):
            b = _Builder(atoms)
            _translate_until(interval, left, right, b)
            return b.build()
    raise UnsupportedFragmentError(path, formula)


# --- intersection ----------------------------------------------------------

def intersect(a: TimedBuchiAutomaton, b: TimedBuchiAutomaton) -> TimedBuchiAutomaton:
    """Accepts exactly the words accepted by both automata.

    Combined locations are (location of a, location of b, flag); the flag
    alternates between waiting for an accepting visit of ``a`` (flag 1) and
    of ``b`` (flag 2), and acceptance is flag 1 at an accepting location of
    ``a``.  Labels are compared on the union alphabet, so the two labels of
    a compatible pair must agree on shared atoms.
    """
    atoms = a.atoms | b.atoms

    def compatible(la: str, lb: str) -> bool:
        return a.labels[la] & b.atoms == b.labels[lb] & a.atoms

    def clock_a(name: str) -> str:
        return f"a_{name}"

    def clock_b(name: str) -> str:
        return f"b_{name}"

    def rename(constraint: ClockConstraint, prefix) -> ClockConstraint:
        return map_comparisons(constraint, lambda c: Compare(
            prefix(c.clock), c.relation, c.constant))

    def name(la: str, lb: str, flag: int) -> str:
        return f"{la}|{lb}|{flag}"

    locations = []
    labels = {}
    invariants = {}
    initial = set()
    accepting = set()
    pairs = [(la, lb) for la in a.locations for lb in b.locations
             if compatible(la, lb)]
    for la, lb in pairs:
        for flag in (1, 2):
            loc = name(la, lb, flag)
            locations.append(loc)
            labels[loc] = a.labels[la] | b.labels[lb]
            invariants[loc] = constraint_and(rename(a.invariants[la], clock_a),
                                             rename(b.invariants[lb], clock_b))
            if la in a.initial and lb in b.initial and flag == 1:
                initial.add(loc)
            if flag == 1 and la in a.accepting:
                accepting.add(loc)

    def next_flag(flag: int, la: str, lb: str) -> int:
        if flag == 1:
            return 2 if la in a.accepting else 1
        return 1 if lb in b.accepting else 2

    edges = []
    for la, lb in pairs:
        for ea in a.edges_from(la):
            for eb in b.edges_from(lb):
                if not compatible(ea.target, eb.target):
                    continue
                guard = constraint_and(rename(ea.guard, clock_a),
                                       rename(eb.guard, clock_b))
                resets = frozenset(clock_a(c) for c in ea.resets) | frozenset(
                    clock_b(c) for c in eb.resets)
                for flag in (1, 2):
                    edges.append(Edge(name(la, lb, flag), guard, resets,
                                      name(ea.target, eb.target,
                                           next_flag(flag, la, lb))))
    return TimedBuchiAutomaton(
        locations=tuple(locations),
        initial=frozenset(initial),
        clocks=tuple(clock_a(c) for c in a.clocks) + tuple(clock_b(c)
                                                           for c in b.clocks),
        invariants=invariants,
        edges=tuple(edges),
        accepting=frozenset(accepting),
        atoms=atoms,
        labels=labels,
    )


# --- lasso membership -------------------------------------------------------

class WordAutomatonProduct:
    """The synchronous product of a lasso word with an automaton, exposed as
    a lazily generated Buchi graph.  States are (word position, location,
    valuation) with the position reduced into prefix + one cycle; the
    language is nonempty exactly when the automaton accepts the word.

    Time is counted in integers: the word's stamps and the automaton's
    constants are multiplied by the lcm of all their denominators.
    """

    def __init__(self, automaton: TimedBuchiAutomaton, word: LassoTimedWord):
        if not word.all_atoms() <= automaton.atoms:
            raise ValueError("word uses atoms outside the automaton alphabet")
        constants = automaton.constants()
        factor = denominator_lcm(word.time_values() + list(constants))
        self.automaton = automaton.scaled(factor)
        self.cmax = int(max(constants, default=0) * factor)
        events = word.prefix + word.cycle
        # per reduced position: the gap to the next position, that
        # position reduced, and the letter read there
        self._moves = tuple((gap, j, events[j][0])
                            for gap, j in word.integer_steps(factor))
        self._first = events[0][0]

    def initial_states(self):
        zero = self.automaton.zero_valuation()
        return tuple((0, location, zero) for location in
                     self.automaton.initial_locations(self._first))

    def successors(self, state):
        position, location, valuation = state
        gap, next_position, letter = self._moves[position]
        return tuple(
            (gap, (next_position, target, landed)) for target, landed in
            self.automaton.step(location, valuation, gap, letter, self.cmax))

    def is_accepting(self, state):
        return state[1] in self.automaton.accepting


def accepts_lasso(automaton: TimedBuchiAutomaton, word: LassoTimedWord) -> bool:
    from .search import find_accepting_lasso

    product = WordAutomatonProduct(automaton, word)
    return find_accepting_lasso(product) is not None
