"""The product of a labelled weighted graph with a timed automaton, and the
three layered products of the planner.

A labelled weighted graph gives ``initial_states()``, ``successors(node)``
as ``(weight, node)`` pairs and ``label_of(node)``: a transition system
or the team graph.  :class:`AutomatonProduct` pairs one with an
automaton; each step follows an edge of weight ``w`` and moves the
automaton with :meth:`TimedBuchiAutomaton.step`, elapsing ``w`` and
reading the letter of the edge's target.  The planner's layers build its
states one at a time, as a graph for the search.  Membership of a lasso
word (``accepts_lasso``) reads no graph: it sweeps the automaton's
configurations ``(location, valuation)`` breadth first over a sequence
of ``(elapse, letter)`` steps, from the configurations at the start of
the prefix or at the loop head, a whole position of the word at a time
(:meth:`AutomatonProduct.advance`), stops when none is left, and builds
no state object.  Layer 1
pairs one agent's transition system with its
specification automaton.  Layer 2 interleaves the per-agent layer-1
graphs, trimmed to the live states it is given (``solve`` finds them with
:func:`search.live_states`): each step advances time by the smallest time
remaining on the agents' moves, and agents finishing exactly then complete
their moves.  Layer 3 pairs the team graph with the team specification
automaton.

The global layer drops every state that can no longer meet a deadline of
the team automaton, initial or successor.  The rule is read in one place,
:func:`_deadlines`.  A deadline of location ``l`` is a conjunct of its
invariant that bounds a clock ``x`` from above, written ``x <= u`` or
``!(x > u)``, or strictly, ``x < u`` or ``!(x >= u)``; time is an
``int``, so the latest value of ``x`` it admits is ``u``, or ``u - 1``
for a strict bound.  Its exits are the edges that leave ``l`` or reset
``x``.  Every step elapses time, so a run that stays in ``l`` must take an
exit before ``x`` passes its latest value, and the exit reads a team
letter satisfying its label.  A lower bound on the time until the team
letter carries an atom comes from one backward Dijkstra per agent and atom
over the agent's system (:meth:`WeightedTransitionSystem.distances_to`):
0 when the agent's component region carries the atom, ``remaining +
dist(target)`` while the agent is committed to a move (the letter shows
the source region until the move completes), ``dist(component)``
otherwise, and the least over the agents that own the atom.  An exit
label is normalized first, so that a disjunction written with ``|`` (or
``->``) reads as ``!(!a & !b)``, as a translated one does.  Its bound goes
by polarity: a negated atom costs 0, a conjunction takes the larger side
and a disjunction the smaller, ``true`` costs 0 and ``false`` is never
reached.  A state ``(team state, l, v)`` is dead when, for one deadline of
``l``, every exit's bound exceeds the latest value less ``v(x)``.  The
least exit bound is cached per team state and location.

The global layer orders its kept successors by urgency: construction
order, stably sorted by the least exit bound over the deadlines of the
successor's location, 0 for a location without one, so the search tries
first the successor nearest its deadline's exit (directed model checking,
Edelkamp, Leue & Lluch-Lafuente, SPIN 2001).  The emptiness check is
correct under any successor order.  A dead state has no accepting
continuation, and neither has any state reachable from it, so pruning
keeps the first lasso of that order: the one found in the unpruned
product whose successors, dead ones included, are sorted the same way.

Acceptance is generalized Büchi: every searched graph gives
``marks(state)``, a bitmask of the acceptance sets the state belongs to,
and ``all_marks``, the mask of every set; a run accepts when it visits
each set infinitely often.  A product with an automaton has the
automaton's sets, the marks of its location.  The team layer holds the
agents' sets side by side, each agent's shifted above those of the agents
before it, and the global layer adds the team automaton's sets above the
team's.

Time is an ``int`` in every layer, durations, clock values and the time
remaining on a move alike: the caller builds the products on the
``scaled`` copies of the systems and automata, as ``solve`` does, and
:class:`AutomatonProduct` refuses an automaton with another constant, as
:class:`LocalProduct` refuses a system with another weight.

Only the local layer memoizes successor lists: each is read by every team
state that holds its state.  The team and global layers build them on each
expansion and record their number (and how many were dropped), so a state
counts once in ``statistics()``.  State objects are plain value
tuples; a sweep memoizes nothing.  Below every layer,
:meth:`TimedBuchiAutomaton.step` memoizes the automaton's moves per
location, letter, valuation and elapse, so the many states that ask one
question (the positions of a lasso word that read one letter with
saturated clocks, say) share one tuple of moves.  Successors
come in construction order, which is deterministic: a system lists each
region's successors sorted and once, and ``step`` yields each automaton
move once in the order of the sorted edges, so the products keep their
moves as built.  No expansion builds the same successor twice.  The team
layer sorts, for the reason given at :meth:`TeamProduct.successors`, and
the global layer sorts by urgency, stably.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import inf
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .mitl import (And, Atom, Compare, FalseFormula, Formula, Not,
                   TrueFormula, normalize)
from .tba import TimedBuchiAutomaton
from .wts import WeightedTransitionSystem


class ProductState(NamedTuple):
    node: object       # a node of the graph
    location: str
    valuation: tuple   # per clock, at most the automaton's cmax + 1


class TeamState(NamedTuple):
    components: tuple  # ProductState per agent
    targets: tuple     # in-flight ProductState per agent, () without one
    remaining: tuple   # time left on the committed move, 0 without one
    letter: frozenset  # atoms of the components' regions, one object each


class AutomatonProduct:
    """A labelled weighted graph paired with a timed automaton, as the
    module describes it; its acceptance sets are the automaton's.
    Membership's product has no graph, ``None``, and only sweeps."""

    def __init__(self, graph, automaton: TimedBuchiAutomaton):
        others = [c for c in automaton.constants() if type(c) is not int]
        if others:
            raise ValueError(f"automaton constant {min(others)!r} is not an "
                             f"int: build the product on the scaled "
                             f"automaton")
        self.graph = graph
        self.automaton = automaton
        self.all_marks = automaton.all_marks
        # the one step of the automaton, for the successors and the sweep
        self._step = automaton.step

    def initial_states(self):
        zero = self.automaton.zero_valuation()
        return tuple(
            ProductState(node, location, zero)
            for node in self.graph.initial_states()
            for location in self.automaton.initial_locations(
                self.graph.label_of(node)))

    def successors(self, state: ProductState):
        """In the graph's successor order, and in ``step``'s order among
        the automaton's moves on one graph successor."""
        step, label_of = self._step, self.graph.label_of
        out = []
        for weight, node in self.graph.successors(state.node):
            for location, landed in step(state.location, state.valuation,
                                         weight, label_of(node)):
                out.append((weight, ProductState(node, location, landed)))
        return tuple(out)

    def advance(self, sources: dict, steps) -> dict:
        """The configurations after the ``(elapse, letter)`` steps from
        ``sources``, breadth first and memoizing nothing: a dict from each
        ``(location, valuation)`` to the marks of every location that a
        path to it passes, counted on arrival; ``sources`` maps
        configurations to such masks alike.  The configurations of one step
        are merged as they arrive, their masks by ``|``, so the work per
        step is the number of distinct configurations, not of paths; the
        sweep stops when none is left."""
        step, marks = self._step, self.automaton.marks
        for elapse, letter in steps:
            if not sources:
                break
            reached = {}
            for (location, valuation), passed in sources.items():
                for move in step(location, valuation, elapse, letter):
                    reached[move] = (passed | marks[move[0]]
                                     | reached.get(move, 0))
            sources = reached
        return sources

    def marks(self, state: ProductState) -> int:
        return self.automaton.marks[state.location]


class LocalProduct(AutomatonProduct):
    """Layer 1: one agent's transition system paired with its automaton; a
    step moves the system and the automaton synchronously, advancing every
    clock by the transition's duration."""

    def __init__(self, system: WeightedTransitionSystem,
                 automaton: TimedBuchiAutomaton):
        if system.atoms != automaton.atoms:
            raise ValueError(
                f"system alphabet {sorted(system.atoms)} differs from "
                f"automaton alphabet {sorted(automaton.atoms)}")
        weights = system.weights
        others = [pair for pair in weights if type(weights[pair]) is not int]
        if others:
            pair = min(others)
            raise ValueError(f"transition weight {weights[pair]!r} of {pair} "
                             f"is not an int: build the product on the "
                             f"scaled system")
        super().__init__(system, automaton)
        self._memo: dict = {}  # expanded state -> its successors

    def successors(self, state: ProductState):
        out = self._memo.get(state)
        if out is None:
            out = self._memo[state] = super().successors(state)
        return out

    def statistics(self) -> dict:
        return _statistics(self, {s: len(v) for s, v in self._memo.items()})


class TeamProduct:
    """Interleaving of the per-agent products, over their live states only.

    A state fixes each agent's current layer-1 state, the layer-1 state it
    is currently moving toward (``()`` when at a boundary, which sorts
    before every state), and the time remaining on that move, the move's
    weight when the agent commits to it.  Every step advances time by the
    smallest remaining time; exactly the agents with that much left
    complete their moves.  The marks hold agent ``k``'s local marks, of its
    ``k``-th component, shifted above the bits of the agents before it.

    Team acceptance needs every agent to accept infinitely often, and every
    state reachable from a local state that is not live is not live either,
    so no accepting team cycle passes through one: ``live`` holds each local
    product's live states (:func:`search.live_states`, which ``solve`` runs
    once per agent), and components, targets and initial combinations are
    drawn from them alone.
    """

    # a state carries its letter; read without a Python-level call
    label_of = staticmethod(attrgetter("letter"))

    def __init__(self, locals_, live):
        self.locals = tuple(locals_)
        if not self.locals:
            raise ValueError("at least one agent is required")
        self.count = len(self.locals)
        # per agent, the bits of the agents before it, and then of all
        self._shifts = list(itertools.accumulate(
            [local.all_marks.bit_length() for local in self.locals], initial=0))
        self.all_marks = (1 << self._shifts.pop()) - 1
        self.live = tuple(live)
        self._letters: dict = {}  # region vector -> its letter
        self._interned: dict = {}  # letter -> the one object for it
        self._edges: dict = {}  # expanded state -> its number of successors

    def _letter(self, components) -> frozenset[str]:
        regions = tuple([component.node for component in components])
        letter = self._letters.get(regions)
        if letter is None:
            letter = frozenset().union(*(
                local.graph.label_of(region)
                for local, region in zip(self.locals, regions)))
            letter = self._letters[regions] = self._interned.setdefault(
                letter, letter)
        return letter

    def initial_states(self):
        per_agent = [[state for state in local.initial_states()
                      if state in live]
                     for local, live in zip(self.locals, self.live)]
        out = []
        for combo in itertools.product(*per_agent):
            out.append(TeamState(
                components=tuple(combo),
                targets=((),) * self.count,
                remaining=(0,) * self.count,
                letter=self._letter(combo),
            ))
        return tuple(out)

    def successors(self, state: TeamState):
        """Two interleavings never build the same state.  They are sorted
        all the same, because the search returns the first lasso in this
        order and the plan is projected from it: in the order of
        ``itertools.product`` over the agents' moves, the corridor's lasso
        (``two_agent_chain_plan.json``) grows from 10 prefix and 6 cycle
        positions of the collective run to 58 and 22, with 82 global states
        explored instead of 16, and the plans of both fixtures no longer
        match ``fixtures/expected/``.  No two successors share both
        components and targets (an agent's move is its target, or its
        component once complete), so the states sort by those alone."""
        options = []
        for k in range(self.count):
            if state.targets[k]:
                options.append(((state.remaining[k], state.targets[k]),))
            else:
                live = self.live[k]
                options.append([
                    move for move in self.locals[k].successors(
                        state.components[k])
                    if move[1] in live])
        out = []
        for combo in itertools.product(*options):
            step = min([left for left, _ in combo])
            components = []
            targets = []
            remaining = []
            for k, (left, target) in enumerate(combo):
                if left == step:
                    components.append(target)
                    targets.append(())
                    remaining.append(0)
                else:
                    components.append(state.components[k])
                    targets.append(target)
                    remaining.append(left - step)
            out.append((step, TeamState(tuple(components), tuple(targets),
                                        tuple(remaining),
                                        self._letter(components))))
        self._edges[state] = len(out)
        return tuple(sorted(out, key=itemgetter(1)))

    def marks(self, state: TeamState) -> int:
        return sum(local.marks(component) << shift for local, component, shift
                   in zip(self.locals, state.components, self._shifts))

    def statistics(self) -> dict:
        return _statistics(self, self._edges)


class GlobalProduct(AutomatonProduct):
    """Layer 3: the team graph paired with the team automaton; the marks
    are the team's, and above them the location's.

    It never returns a dead state, initial or successor, and it returns
    the successors most urgent first, as the module describes it; its
    ``pruned`` statistic counts the states it dropped."""

    def __init__(self, team: TeamProduct, automaton: TimedBuchiAutomaton):
        team_atoms = frozenset().union(
            *(local.graph.atoms for local in team.locals))
        if automaton.atoms != team_atoms:
            raise ValueError(
                f"team alphabet {sorted(team_atoms)} differs from automaton "
                f"alphabet {sorted(automaton.atoms)}")
        super().__init__(team, automaton)
        self._shift = team.all_marks.bit_length()
        self.all_marks = team.all_marks | automaton.all_marks << self._shift
        self._edges: dict = {}  # expanded state -> its number of successors
        self._dropped: dict = {}  # expanded state -> its dead successors
        # location -> (clock slot, latest value, exit bounds) per deadline
        self._deadlines = _deadlines(automaton)
        # atom -> (agent, region -> time to a region carrying it) per owner
        self._distances = {
            atom: tuple((k, local.graph.distances_to(atom))
                        for k, local in enumerate(team.locals)
                        if atom in local.graph.atoms)
            for atom in automaton.atoms}
        # (team state, location) -> (least exit bound, (clock slot, latest
        # value from which an exit is still in time) per deadline)
        self._latest: dict = {}

    def initial_states(self):
        return tuple(state for state in super().initial_states()
                     if self._urgency(state) is not None)

    def successors(self, state: ProductState):
        """The successors that are not dead, in construction order stably
        sorted by urgency (:meth:`_urgency`)."""
        built = super().successors(state)
        urgency = self._urgency
        keyed = []
        for pair in built:
            key = urgency(pair[1])
            if key is not None:
                keyed.append((key, pair))
        if len(keyed) > 1:
            keyed.sort(key=itemgetter(0))
        out = tuple([pair for _, pair in keyed])
        self._edges[state] = len(out)
        self._dropped[state] = len(built) - len(out)
        return out

    def _urgency(self, state: ProductState):
        """The least exit bound over the deadlines of the state's location,
        0 for a location without one, or ``None`` when the state is dead:
        when every exit of one deadline is further away than its clock has
        left."""
        deadlines = self._deadlines.get(state.location)
        if deadlines is None:
            return 0
        key = (state.node, state.location)
        found = self._latest.get(key)
        if found is None:
            time_to = partial(self._time_to, state.node)
            bounds = [min([reach(time_to) for reach in exits], default=inf)
                      for _, _, exits in deadlines]
            found = self._latest[key] = (min(bounds), tuple(
                (slot, value - bound)
                for (slot, value, _), bound in zip(deadlines, bounds)))
        least, latest = found
        valuation = state.valuation
        for slot, value in latest:
            if valuation[slot] > value:
                return None
        return least

    def _time_to(self, team: TeamState, atom: str):
        """A lower bound on the time until the team letter carries
        ``atom``: the least over the agents that own it.  An agent's letter
        shows its component's region until its move completes."""
        best = inf
        for k, distances in self._distances[atom]:
            time = distances.get(team.components[k].node, inf)
            if time and team.targets[k]:
                time = team.remaining[k] + distances.get(
                    team.targets[k].node, inf)
            best = min(best, time)
        return best

    def marks(self, state: ProductState) -> int:
        return (self.graph.marks(state.node)
                | super().marks(state) << self._shift)

    def statistics(self) -> dict:
        pruned = (len(super().initial_states()) - len(self.initial_states())
                  + sum(self._dropped.values()))
        return {**_statistics(self, self._edges), "pruned": pruned}


def _statistics(layer, edges: dict) -> dict:
    """The states expanded so far, their edges, and how many of them carry
    every acceptance mark, from each expanded state's number of edges."""
    return {"states": len(edges), "edges": sum(edges.values()), "accepting":
            sum(layer.marks(state) == layer.all_marks for state in edges)}


def _deadlines(automaton: TimedBuchiAutomaton) -> dict:
    """Each location whose invariant bounds a clock ``x`` from above in a
    top-level conjunct, with one ``(slot of x, latest, exit bounds)`` per
    such conjunct.  ``latest`` is the largest value of ``x`` the conjunct
    admits in integer time, so ``automaton`` is a scaled one, as
    :class:`AutomatonProduct` checks: ``u`` for ``x <= u`` or
    ``!(x > u)``, and ``u - 1`` for ``x < u`` or ``!(x >= u)``.  The
    exits are the edges that leave the location or reset ``x``: a run that
    stays without resetting ``x`` lets ``x`` grow with the time elapsed, so
    it must take an exit before ``x`` passes ``latest``, and that exit
    reads a letter satisfying its label.  Each exit label is normalized
    and compiled by :func:`_time_bound` here, once."""
    slot = {clock: i for i, clock in enumerate(automaton.clocks)}
    out = {}
    for location in automaton.locations:
        found, parts = [], [automaton.invariants[location]]
        while parts:
            match parts.pop():
                case And(left, right):
                    parts += (right, left)  # left to right
                    continue
                case (Compare(clock, "<=", bound)
                      | Not(Compare(clock, ">", bound))):
                    latest = bound
                case (Compare(clock, "<", bound)
                      | Not(Compare(clock, ">=", bound))):
                    latest = bound - 1
                case _:
                    continue
            found.append((slot[clock], latest, tuple(
                _time_bound(normalize(edge.label))
                for edge in automaton.edges_from(location)
                if edge.target != location or clock in edge.resets)))
        if found:
            out[location] = tuple(found)
    return out


def _time_bound(label: Formula, positive=True):
    """A lower bound on the time until a letter satisfies ``label``, or
    falsifies it when ``positive`` is false, as a function of ``time_to``,
    the bound for one atom.  A negated atom may hold at once; both sides of
    a conjunction must hold together, and either side of a disjunction
    will do.  Any other node gives 0."""
    match label:
        case Atom(name) if positive:
            return lambda time_to: time_to(name)
        case Not(operand):
            return _time_bound(operand, not positive)
        case And(left, right):
            first = _time_bound(left, positive)
            second = _time_bound(right, positive)
            combine = max if positive else min
            return lambda time_to: combine(first(time_to), second(time_to))
        case TrueFormula() if not positive:
            return lambda time_to: inf
        case FalseFormula() if positive:
            return lambda time_to: inf
    return lambda time_to: 0
