"""Timed Buchi automata: the automaton model, translation of a fragment of
the formula language, intersection, and membership of lasso timed words.

Labels, guards and invariants are all formulas of :mod:`mitlplan.mitl`.  A
label is propositional over the automaton's atoms; a guard or an
invariant is a clock constraint, built from ``true``, ``!`` and ``&`` over
:class:`~mitlplan.mitl.Compare` leaves, read by
:func:`~mitlplan.mitl.parse_constraint` and printed by
:func:`~mitlplan.mitl.format_formula` like every other formula.  An
automaton decides each distinct one with the predicate that
:func:`~mitlplan.mitl.compile_formula` builds, on its first use.

Automata here are transition-labelled: every edge carries a propositional
formula over the automaton's atoms, which the letter read on taking the
edge must satisfy, and each initial location carries the formula that the
letter at position 0 must satisfy.  A location is one control state of the
construction, whatever letter is read there.  A run over a timed word
starts in an initial location whose label holds at position 0, and each
step elapses the gap to the next position, checks the source invariant,
the edge's label on the next letter and its guard on the elapsed
valuation, applies the resets, and checks the target invariant.  A run
accepts when it visits each acceptance set of locations infinitely
often (generalized Büchi acceptance).
:meth:`TimedBuchiAutomaton.step` is that step.  Its one caller is
:class:`~mitlplan.product.AutomatonProduct`, which the planner's products
and membership of a lasso word share; it yields each move once, in the
order of the sorted edges, so the products never sort or deduplicate its
moves.  A clock above the automaton's largest constant ``cmax`` is kept at
``cmax + 1``: such a clock satisfies exactly the constraints any larger
value does, so the products stay finite.

A step reads only its location, letter, valuation and elapse, and the
automaton's fixed edges, formulas and ``cmax``, so an automaton memoizes
its moves in one map from ``(location, letter, valuation, elapse)`` to one
immutable tuple that every later call returns.  Saturation keeps the
valuations few, so a product of thousands of states asks a few dozen or a
few hundred distinct questions.  The memo, the compiled formulas and
``cmax`` are attributes, not fields, as are each location's acceptance
``marks`` and ``all_marks``: the constructor takes only the model, and
``==`` compares only the model.

The constructor normalizes, sorts and indexes, and checks nothing.  An
automaton from outside the program is checked once, where it is read,
by :func:`tba_from_dict`; the translations, the intersections and the
:meth:`~TimedBuchiAutomaton.scaled` copies that the program builds are
well formed by construction.

Membership of a lasso word (:func:`accepts_lasso`) follows Markey &
Schnoebelen, "Model checking a path" (CONCUR 2003): every cycle of the
word's product with an automaton passes the word's loop head, its first
cycle position, so acceptance depends only on what one turn of the cycle
does to the product's configurations there.  The SCC pass of
:mod:`mitlplan.search` runs on a small graph of those configurations,
:class:`_CycleProfile`.  It builds the word's prefix steps and cycle
steps, the time to each next position and its letter, once from the
word's integer timeline, and no graph of the word's positions.  One sweep
of the product over the prefix steps gives its initial configurations,
and one sweep over the cycle steps from a configuration, when the pass
first asks for it, gives that configuration's successors; a sweep stops
as soon as no configuration survives, and builds no product state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, sub
from typing import Optional

from .core import (InputError, LassoTimedWord, TimeInterval, denominator_lcm,
                   naming)
from .mitl import (Always, And, Atom, Compare, Eventually, FalseFormula,
                   Formula, Next, Not, TrueFormula, Until, atoms_of,
                   check_atom_names, compile_formula, format_formula,
                   is_propositional, normalize, parse_constraint,
                   parse_formula)


class UnsupportedFragmentError(InputError):
    """The formula lies outside the automaton-translatable fragment."""

    exit_code = 4

    def __init__(self, path: str, subterm):
        self.path = path
        self.subterm = subterm
        super().__init__(
            f"cannot translate subformula at {path}: {format_formula(subterm)} "
            f"(supply a hand-written automaton file instead)")


# --- labels and clock constraints ----------------------------------------

TRUE = TrueFormula()


def label_and(left: Formula, right: Formula) -> Formula:
    """The conjunction of two labels or two clock constraints, leaving out
    a side that is true."""
    if isinstance(left, TrueFormula):
        return right
    if isinstance(right, TrueFormula):
        return left
    return And(left, right)


def comparisons(constraint: Formula):
    """The clock comparisons of ``constraint``, left to right."""
    match constraint:
        case TrueFormula():
            return
        case Not(operand):
            yield from comparisons(operand)
        case And(left, right):
            yield from comparisons(left)
            yield from comparisons(right)
        case Compare():
            yield constraint
        case _:
            raise TypeError(f"not a clock constraint: {constraint!r}")


def map_comparisons(constraint: Formula, change) -> Formula:
    """``constraint`` with every comparison ``c`` replaced by ``change(c)``."""
    match constraint:
        case Not(operand):
            return Not(map_comparisons(operand, change))
        case And(left, right):
            return And(map_comparisons(left, change),
                       map_comparisons(right, change))
        case Compare():
            return change(constraint)
    return constraint


def scale_constraint(constraint: Formula, factor: int) -> Formula:
    """``constraint`` with every constant multiplied by ``factor`` into an
    ``int``; ``factor`` must be a multiple of every denominator."""
    return map_comparisons(constraint, lambda c: Compare(
        c.clock, c.relation, int(c.constant * factor)))


def deadline(clock: str, interval: TimeInterval) -> Formula:
    """The constraint "clock value is within the interval's upper bound",
    ``true`` when the interval is unbounded."""
    if interval.unbounded:
        return TRUE
    return Compare(clock, "<=" if interval.upper_closed else "<",
                   interval.upper)


def interval_guard(clock: str, interval: TimeInterval) -> Formula:
    """The constraint "clock value lies in the interval"."""
    lower = TRUE
    if interval.lower > 0 or not interval.lower_closed:
        lower = Compare(clock, ">=" if interval.lower_closed else ">",
                        interval.lower)
    return label_and(lower, deadline(clock, interval))


# --- the automaton model -------------------------------------------------

@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    guard: Formula  # a clock constraint
    resets: frozenset[str]
    target: str
    label: Formula = TRUE  # propositional, read at the target


@dataclass
class TimedBuchiAutomaton:
    locations: tuple[str, ...]
    initial: dict  # location -> propositional label read at position 0
    clocks: tuple[str, ...]
    invariants: dict  # location -> clock constraint
    edges: tuple[Edge, ...]
    accepting: tuple[frozenset[str], ...]  # the locations of each set
    atoms: frozenset[str]

    def __post_init__(self):
        self.clocks = tuple(sorted(self.clocks))
        self.initial = dict(self.initial)
        self.invariants = dict.fromkeys(self.locations, TRUE) | self.invariants
        self.accepting = tuple(map(frozenset, self.accepting))
        self.atoms = frozenset(self.atoms)
        self.locations = tuple(sorted(self.locations))
        # location -> the bitmask of the acceptance sets holding it
        self.marks = {loc: sum(1 << i for i, held in enumerate(self.accepting)
                               if loc in held) for loc in self.locations}
        self.all_marks = (1 << len(self.accepting)) - 1
        # one text per distinct formula and one sorted tuple per distinct
        # resets set, for the edge order and for tba_to_dict; an
        # intersection shares one object per distinct guard and label, so
        # each is found again by identity
        texts = self._texts = {formula: format_formula(formula) for formula in {
            *self.initial.values(), *self.invariants.values(),
            *(e.guard for e in self.edges), *(e.label for e in self.edges)}}
        resets = self._resets = {clocks: tuple(sorted(clocks))
                                 for clocks in {e.resets for e in self.edges}}
        self.edges = tuple(sorted(self.edges, key=lambda e: (
            e.source, e.target, texts[e.guard], resets[e.resets],
            texts[e.label])))
        by_source: dict[str, list[Edge]] = {loc: [] for loc in self.locations}
        for edge in self.edges:
            by_source[edge.source].append(edge)
        self._edges_from = {loc: tuple(edges) for loc, edges in by_source.items()}
        # filled on use, see step(), _holds() and cmax()
        self._memo: dict = {}  # (location, letter, valuation, elapse) -> moves
        self._checks: dict = {}  # formula -> its predicate
        self._cmax = None

    def edges_from(self, location: str) -> tuple[Edge, ...]:
        return self._edges_from[location]

    def constants(self) -> set:
        """Every constant of a guard or an invariant."""
        constraints = [edge.guard for edge in self.edges]
        constraints.extend(self.invariants.values())
        return {c.constant for constraint in constraints
                for c in comparisons(constraint)}

    def cmax(self):
        """The largest constant, computed on the first call."""
        if self._cmax is None:
            self._cmax = max(self.constants(), default=0)
        return self._cmax

    def zero_valuation(self) -> tuple:
        return (0,) * len(self.clocks)

    def scaled(self, factor: int) -> "TimedBuchiAutomaton":
        """A copy whose constants are multiplied by ``factor`` into
        ``int``s; ``factor`` is :func:`~mitlplan.core.denominator_lcm` over
        :meth:`constants`, or a multiple of it."""
        return TimedBuchiAutomaton(
            locations=self.locations,
            initial=self.initial,
            clocks=self.clocks,
            invariants={loc: scale_constraint(inv, factor)
                        for loc, inv in self.invariants.items()},
            edges=tuple(Edge(e.source, scale_constraint(e.guard, factor),
                             e.resets, e.target, e.label) for e in self.edges),
            accepting=self.accepting,
            atoms=self.atoms,
        )

    def initial_locations(self, letter: frozenset[str]) -> tuple[str, ...]:
        """The initial locations whose label holds on ``letter`` and whose
        invariant admits the zero valuation, in name order."""
        zero = self.zero_valuation()
        return tuple(location for location in sorted(self.initial)
                     if self._holds(self.initial[location], letter)
                     and self._holds(self.invariants[location], zero))

    def step(self, location: str, valuation: tuple, elapse,
             letter: frozenset[str]) -> tuple:
        """The distinct ``(target, landed valuation)`` pairs of the step out
        of ``location`` on edges whose label holds on ``letter`` after
        ``elapse`` time units, as the module describes it, each at its first
        edge in edge order, with clocks saturated at :meth:`cmax` ``+ 1``.
        One memo maps ``(location, letter, valuation, elapse)`` to the
        moves: the tuple is computed on the first call and returned again
        on every later one."""
        key = (location, letter, valuation, elapse)
        moves = self._memo.get(key)
        if moves is None:
            moves = self._memo[key] = self._moves(*key)
        return moves

    def _moves(self, location: str, letter: frozenset[str], valuation: tuple,
               elapse) -> tuple:
        """The moves of :meth:`step`, computed."""
        holds = self._holds
        edges = [edge for edge in self._edges_from[location]
                 if holds(edge.label, letter)]
        if not edges:
            return ()
        elapsed = tuple([value + elapse for value in valuation])
        if not holds(self.invariants[location], elapsed):
            return ()
        cmax = self.cmax()
        cap = cmax + 1
        saturated = tuple([value if value <= cmax else cap for value in elapsed])
        out = []
        for edge in edges:
            if not holds(edge.guard, elapsed):
                continue
            landed = saturated
            if edge.resets:
                landed = tuple([0 if clock in edge.resets else value
                                for clock, value in zip(self.clocks, saturated)])
            move = (edge.target, landed)
            if holds(self.invariants[edge.target], landed) and move not in out:
                out.append(move)
        return tuple(out)

    def _holds(self, formula: Formula, value) -> bool:
        """Whether a label holds on a letter, or a guard or an invariant
        on a valuation tuple; each formula is compiled once per automaton,
        on its first use."""
        try:
            check = self._checks[formula]
        except KeyError:
            check = self._checks[formula] = compile_formula(formula,
                                                            self.clocks)
        return check(value)


# --- JSON external format -------------------------------------------------

def tba_to_dict(automaton: TimedBuchiAutomaton) -> dict:
    """The JSON form of ``automaton``, as :func:`tba_from_dict` reads it.
    Each formula's text and each sorted resets set are those that the
    automaton's constructor made once for its edge order."""
    text = automaton._texts
    resets = automaton._resets
    count = len(automaton.accepting)

    def location(loc: str) -> dict:
        marks = automaton.marks[loc]
        entry = {"name": loc,
                 "invariant": text[automaton.invariants[loc]],
                 "accepting": bool(marks) if count == 1 else
                 [i for i in range(count) if marks >> i & 1]}
        if loc in automaton.initial:
            entry["initial"] = text[automaton.initial[loc]]
        return entry

    return {
        "clocks": list(automaton.clocks),
        "atoms": sorted(automaton.atoms),
        **({} if count == 1 else {"acceptanceSets": count}),
        "locations": [location(loc) for loc in automaton.locations],
        "edges": [
            {
                "from": edge.source,
                "to": edge.target,
                "label": text[edge.label],
                "guard": text[edge.guard],
                "resets": list(resets[edge.resets]),
            }
            for edge in automaton.edges
        ],
    }


def tba_from_dict(data: dict) -> TimedBuchiAutomaton:
    """An automaton from its JSON form; an error names the field.

    A location's ``initial`` is the label read at position 0.  Without
    ``atoms`` the alphabet is every atom the labels name.  With one
    acceptance set, ``accepting`` is true or false; with ``acceptanceSets``
    sets, given because a set may be empty, it lists the sets' indices.

    Refused: a location's ``label`` list (the old format's exact letter);
    a location or a clock listed twice; an ``acceptanceSets`` below 1 or
    an ``accepting`` index not below it; an entry of ``atoms`` that names
    no atom; a label that does not
    parse, is not propositional or names an atom outside ``atoms``; a
    guard or an invariant that is no clock constraint; a file with no
    initial location; an edge whose ``from`` or ``to`` is no declared
    location; and an invariant, a guard or a reset that names an
    undeclared clock.  Each refusal of one kind comes in file order:
    locations before edges, ``from`` before ``to``, the guard before the
    resets."""
    def constraint(entry: dict, key: str, where: str) -> Formula:
        with naming(f"{where}.{key}: constraint syntax"):
            return parse_constraint(entry.get(key, "true"))

    named = {}  # field -> the atoms its label names

    def label(entry: dict, key: str, where: str) -> Formula:
        text = entry.get(key, "true")
        if text is True:
            return TRUE
        try:
            formula = parse_formula(text)
        except InputError as exc:  # a punctual interval too exits 3 here
            raise InputError(f"{where}.{key}: {exc}") from exc
        if not is_propositional(formula):
            raise InputError(f"{where}.{key}: {text!r} is not propositional")
        named[f"{where}.{key}"] = atoms_of(formula)
        return formula

    def unique(names: list, where: str) -> None:
        seen = set()
        for i, name in enumerate(names):
            if name in seen:
                raise InputError(f"{where.format(i)}: {name!r} is listed "
                                 f"before")
            seen.add(name)

    unique([entry["name"] for entry in data["locations"]], "locations[{}].name")
    unique(data.get("clocks", []), "clocks[{}]")
    count = data.get("acceptanceSets", 1)
    if count < 1:
        raise InputError(f"acceptanceSets: must be a positive integer, got "
                         f"{count}")
    accepting = [set() for _ in range(count)]
    for i, entry in enumerate(data["locations"]):
        if "label" in entry:
            raise InputError(f"locations[{i}].label: a location reads no "
                             f"letter; label the edges into it instead")
        held = entry.get("accepting", False)
        for j, index in enumerate([0] if held is True else held or []):
            if not 0 <= index < count:
                raise InputError(f"locations[{i}].accepting[{j}]: {index} is "
                                 f"no set index below acceptanceSets {count}")
            accepting[index].add(entry["name"])
    check_atom_names({"atoms": data.get("atoms", [])})
    initial = {entry["name"]: label(entry, "initial", f"locations[{i}]")
               for i, entry in enumerate(data["locations"])
               if entry.get("initial")}
    invariants = {entry["name"]: constraint(entry, "invariant", f"locations[{i}]")
                  for i, entry in enumerate(data["locations"])}
    edges = tuple(
        Edge(source=entry["from"],
             guard=constraint(entry, "guard", f"edges[{i}]"),
             resets=frozenset(entry.get("resets", [])),
             target=entry["to"],
             label=label(entry, "label", f"edges[{i}]"))
        for i, entry in enumerate(data["edges"]))
    atoms = frozenset(data["atoms"] if "atoms" in data
                      else frozenset().union(*named.values()))
    for where, used in named.items():
        if not used <= atoms:
            raise InputError(f"{where}: atoms {sorted(used - atoms)} are not "
                             f"in the file's atoms")
    if not initial:
        raise InputError("locations: no location is initial")
    clocks = set(data.get("clocks", []))

    def declared(used: set, where: str) -> None:
        if not used <= clocks:
            raise InputError(f"{where}: clock {min(used - clocks)!r} is not "
                             f"declared")

    for i, invariant in enumerate(invariants.values()):
        declared({c.clock for c in comparisons(invariant)},
                 f"locations[{i}].invariant")
    for i, edge in enumerate(edges):
        for field, end in (("from", edge.source), ("to", edge.target)):
            if end not in invariants:
                raise InputError(f"edges[{i}].{field}: {end!r} is not a "
                                 f"declared location")
        declared({c.clock for c in comparisons(edge.guard)}, f"edges[{i}].guard")
        declared(edge.resets, f"edges[{i}].resets")
    return TimedBuchiAutomaton(
        locations=tuple(invariants),
        initial=initial,
        clocks=tuple(data.get("clocks", [])),
        invariants=invariants,
        edges=edges,
        accepting=accepting,
        atoms=atoms,
    )


# --- translation of the supported fragment --------------------------------

class _Builder:
    def __init__(self, atoms: frozenset[str]):
        self.atoms = frozenset(atoms)
        self.invariants: dict = {}  # location -> invariant, in order
        self.initial: dict = {}
        self.accepting: set[str] = set()
        self.edges: list[Edge] = []
        self.clocks: list[str] = []

    def location(self, name: str, *, initial: Optional[Formula] = None,
                 accepting=False, invariant=TRUE) -> str:
        """A control state; ``initial`` is its label at position 0."""
        self.invariants[name] = invariant
        if initial is not None:
            self.initial[name] = initial
        if accepting:
            self.accepting.add(name)
        return name

    def connect(self, source: str, target: str, label=TRUE, guard=TRUE,
                resets=()):
        self.edges.append(Edge(source, guard, frozenset(resets), target, label))

    def build(self) -> TimedBuchiAutomaton:
        return TimedBuchiAutomaton(
            locations=tuple(self.invariants),
            initial=self.initial,
            clocks=tuple(self.clocks),
            invariants=self.invariants,
            edges=tuple(self.edges),
            accepting=(self.accepting,),
            atoms=self.atoms,
        )


def universal_tba(atoms) -> TimedBuchiAutomaton:
    """Accepts every timed word over the alphabet."""
    b = _Builder(frozenset(atoms))
    any_ = b.location("any", initial=TRUE, accepting=True)
    b.connect(any_, any_)
    return b.build()


def empty_tba(atoms) -> TimedBuchiAutomaton:
    """Accepts no timed word: complete but with an empty acceptance set."""
    b = _Builder(frozenset(atoms))
    dead = b.location("dead", initial=TRUE)
    b.connect(dead, dead)
    return b.build()


def _translate_propositional(beta: Formula, b: _Builder) -> None:
    """beta: read at position 0, after which every word is accepted."""
    start = b.location("start", initial=beta, accepting=True)
    rest = b.location("rest", accepting=True)
    b.connect(start, rest)
    b.connect(rest, rest)


def _translate_always(interval, beta, b: _Builder) -> None:
    """G[I] beta: every position inside the window reads beta."""
    b.clocks.append("x")
    hold = b.location("hold", accepting=True, initial=(
        beta if interval.contains(Fraction(0)) else TRUE))
    b.connect(hold, hold, beta, guard=interval_guard("x", interval))
    b.connect(hold, hold, guard=Not(interval_guard("x", interval)))


def _translate_next(interval, beta, b: _Builder) -> None:
    """X[I] beta: position 1 reads beta, inside the window.

    ``first``, the location of position 0, carries the deadline as its
    invariant, which its one exit guard implies."""
    b.clocks.append("x")
    first = b.location("first", initial=TRUE, invariant=deadline("x", interval))
    second = b.location("second", accepting=True)
    rest = b.location("rest", accepting=True)
    b.connect(first, second, beta, guard=interval_guard("x", interval))
    b.connect(second, rest)
    b.connect(rest, rest)


def _translate_until(interval, left, right, b: _Builder) -> None:
    """left U[I] right: left holds at each position until a right-position
    inside the window; ``F[I] right`` is ``true U[I] right``.

    The clock is never reset, so it reads the time since position 0.
    ``wait`` carries the deadline as its invariant: once the window has
    passed, no right-position can arrive in time and the run stops there,
    rather than wait forever without accepting.  The exit guard implies the
    invariant, so the language is the same."""
    b.clocks.append("x")
    wait = b.location("wait", initial=left, invariant=deadline("x", interval))
    done = b.location("done", accepting=True,
                      initial=right if interval.contains(Fraction(0)) else None)
    b.connect(wait, wait, left)
    b.connect(wait, done, right, guard=interval_guard("x", interval))
    b.connect(done, done)


def _translate_recurrence(interval, beta, b: _Builder) -> None:
    """G F[I] beta with the window starting at 0.

    The clock measures time since the first position after the last
    beta-position (everything before then is already discharged); waiting
    locations may only be entered while a beta could still arrive in time,
    so ``wait`` carries the deadline as its invariant and its exit guard.
    """
    b.clocks.append("x")
    upper_ok = deadline("x", interval)
    wait = b.location("wait", initial=Not(beta), invariant=upper_ok)
    hit = b.location("hit", initial=beta, accepting=True)
    b.connect(wait, wait, Not(beta))
    b.connect(wait, hit, beta, guard=upper_ok)
    b.connect(hit, wait, Not(beta), resets=("x",))
    b.connect(hit, hit, beta, resets=("x",))


def _translate_response(window, beta, b: _Builder) -> None:
    """G(beta -> X G[0,c] !beta): once beta holds, it may not hold again
    until the window measured from that position has passed."""
    b.clocks.append("x")
    quiet = b.location("quiet", initial=Not(beta), accepting=True)
    windowed = b.location("windowed", initial=beta, accepting=True)
    b.connect(quiet, quiet, Not(beta))
    b.connect(quiet, windowed, beta, resets=("x",))
    b.connect(windowed, windowed, Not(beta))
    b.connect(windowed, windowed, beta, guard=Not(interval_guard("x", window)),
              resets=("x",))


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
        raise InputError("formula uses atoms outside the declared alphabet")
    root = normalize(formula)
    return _translate(root, atoms, "formula")


def _translate(formula: Formula, atoms: frozenset[str], path: str) -> TimedBuchiAutomaton:
    if isinstance(formula, TrueFormula):
        return universal_tba(atoms)
    if isinstance(formula, FalseFormula):
        return empty_tba(atoms)
    b = _Builder(atoms)
    match formula:
        case _ if is_propositional(formula):
            _translate_propositional(formula, b)
        case And(left, right):
            return intersect(_translate(left, atoms, path + ".left"),
                             _translate(right, atoms, path + ".right"))
        case Eventually(interval, operand) if is_propositional(operand):
            _translate_until(interval, TRUE, operand, b)
        case Always(outer, Eventually(inner, operand)) if (
                outer.untimed and is_propositional(operand)
                and inner.zero_based):
            _translate_recurrence(inner, operand, b)
        case Always(outer, Not(And(beta, Not(Next(step, Always(window, Not(beta2))))))) if (
                outer.untimed and step.untimed
                and is_propositional(beta) and beta == beta2
                and window.zero_based and not window.unbounded):
            # normalized form of G(beta -> X G[0,c] !beta)
            _translate_response(window, beta, b)
        case Always(interval, operand) if is_propositional(operand):
            _translate_always(interval, operand, b)
        case Next(interval, operand) if is_propositional(operand):
            _translate_next(interval, operand, b)
        case Until(interval, left, right) if (is_propositional(left)
                                              and is_propositional(right)):
            _translate_until(interval, left, right, b)
        case _:
            raise UnsupportedFragmentError(path, formula)
    return b.build()


# --- intersection ----------------------------------------------------------

def intersect(a: TimedBuchiAutomaton, b: TimedBuchiAutomaton) -> TimedBuchiAutomaton:
    """Accepts exactly the words accepted by both automata.

    A combined location ``la|lb`` pairs a location of each, and a combined
    edge an edge of each out of them; it reads the conjunction of the two
    labels and of the two guards, and applies both resets.  The acceptance
    sets are those of ``a`` followed by those of ``b``, so a run accepts
    exactly when its runs of ``a`` and of ``b`` both do.  A nested
    conjunction has the locations ``la|lb|lc`` and the sets of the product
    of all its conjuncts.

    Each part is built once per call.  The clocks of a source location's
    invariant and of a source edge's guard and resets are renamed once,
    per location and per edge.  Each distinct conjunction is kept once,
    so equal conjunctions are one object, and the sort, the printer and the
    compiled checks of the result meet each distinct formula once.
    """
    kept: dict = {}  # conjunction -> its one object

    def both(left: Formula, right: Formula) -> Formula:
        formula = label_and(left, right)
        return kept.setdefault(formula, formula)

    def renamed(automaton: TimedBuchiAutomaton, prefix: str):
        def rename(constraint: Formula) -> Formula:
            return map_comparisons(constraint, lambda c: Compare(
                prefix + c.clock, c.relation, c.constant))

        invariants = {loc: rename(automaton.invariants[loc])
                      for loc in automaton.locations}
        edges = {loc: [(edge, rename(edge.guard),
                        frozenset(prefix + c for c in edge.resets))
                       for edge in automaton.edges_from(loc)]
                 for loc in automaton.locations}
        return invariants, edges

    invariants_a, edges_a = renamed(a, "a_")
    invariants_b, edges_b = renamed(b, "b_")
    names = {(la, lb): f"{la}|{lb}"
             for la in a.locations for lb in b.locations}
    invariants = {}
    initial = {}
    edges = []
    for (la, lb), name in names.items():
        invariants[name] = both(invariants_a[la], invariants_b[lb])
        if la in a.initial and lb in b.initial:
            initial[name] = both(a.initial[la], b.initial[lb])
        for ea, guard_a, resets_a in edges_a[la]:
            for eb, guard_b, resets_b in edges_b[lb]:
                edges.append(Edge(name, both(guard_a, guard_b),
                                  resets_a | resets_b,
                                  names[ea.target, eb.target],
                                  both(ea.label, eb.label)))
    return TimedBuchiAutomaton(
        locations=tuple(invariants),
        initial=initial,
        clocks=tuple("a_" + c for c in a.clocks) + tuple("b_" + c
                                                         for c in b.clocks),
        invariants=invariants,
        edges=tuple(edges),
        accepting=tuple({names[la, lb] for la in held for lb in b.locations}
                        for held in a.accepting) + tuple(
            {names[la, lb] for la in a.locations for lb in held}
            for held in b.accepting),
        atoms=a.atoms | b.atoms,
    )


# --- lasso membership -------------------------------------------------------

class _CycleProfile:
    """The cycle-profile graph of a lasso word's product with an automaton,
    a graph in the sense of :mod:`mitlplan.search`.  A state is a *head*,
    a configuration ``(location, valuation)`` of the product at the loop
    head (the word's first cycle position), with a mask, which is its
    marks.  The initial states are the heads that one sweep over the
    prefix reaches, with mask 0.  The successors of a head are the heads
    one turn of the cycle later, each with the marks of every location
    that a turn into it arrives at, the head it ends at included and the
    one it starts from not; a turn elapses the word's period.

    The word's steps, the time to each next position and its letter, are
    built once from its integer timeline under ``factor``.  The successors
    of a head come from one sweep of :meth:`AutomatonProduct.advance`
    over one turn, from that head alone, on the first request for any
    mask; every mask shares them."""

    marks = staticmethod(itemgetter(1))

    def __init__(self, product, word: LassoTimedWord, factor: int):
        stamps, self._period = word.integer_timeline(factor)
        loop, letters = word.loop, word.payloads
        steps = list(zip(
            map(sub, stamps[1:] + (stamps[loop] + self._period,), stamps),
            letters[1:] + letters[loop:loop + 1]))
        self._prefix, self._cycle = steps[:loop], steps[loop:]
        self._product, self._first = product, letters[0]
        self.all_marks = product.all_marks
        self._turns: dict = {}  # swept head -> its successors

    def initial_states(self):
        automaton = self._product.automaton
        zero = automaton.zero_valuation()
        start = {(location, zero): 0 for location in
                 automaton.initial_locations(self._first)}
        heads = self._product.advance(start, self._prefix)
        return tuple((head, 0) for head in heads)

    def successors(self, state):
        head = state[0]
        turns = self._turns.get(head)
        if turns is None:
            turns = self._turns[head] = tuple(
                (self._period, pair) for pair in
                self._product.advance({head: 0}, self._cycle).items())
        return turns


def accepts_lasso(automaton: TimedBuchiAutomaton, word: LassoTimedWord) -> bool:
    """Whether the product of ``word``'s positions with ``automaton`` has
    an accepting lasso, in integer time under the lcm of the word's unit
    and every denominator of the automaton's constants.

    The pass runs on the word's :class:`_CycleProfile`, not on the
    product.  Every position of the word has one successor, and the last
    one leads back to the loop head, so every cycle of the product passes
    the loop head and splits into whole turns of the cycle between heads.
    A reachable cycle of the product that visits every acceptance set is
    a reachable cycle of heads whose turns visit them all, every state
    counted on arrival once: a cycle of the profile graph whose masks
    cover ``all_marks``.  Conversely, in a component of the profile graph
    whose masks cover ``all_marks``, each mark comes from a turn between
    two heads that reach one another in the product, so one component of
    the product holds every set; a head's successors do not depend on its
    mask."""
    # both modules import this one
    from .product import AutomatonProduct
    from .search import has_accepting_run

    if not word.all_atoms() <= automaton.atoms:
        raise ValueError("word uses atoms outside the automaton alphabet")
    factor = lcm(word.unit, denominator_lcm(automaton.constants()))
    product = AutomatonProduct(None, automaton.scaled(factor))
    return has_accepting_run(_CycleProfile(product, word, factor))
