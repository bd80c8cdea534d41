"""The product of a labelled weighted graph with a timed automaton, and the
three layered products of the planner.

A labelled weighted graph gives ``initial_states()``, ``successors(node)``
as ``(weight, node)`` pairs and ``label_of(node)``: a transition system,
the team graph, or the positions of a lasso word (``accepts_lasso``).
:class:`AutomatonProduct` pairs one with an automaton; each step follows
an edge of weight ``w`` and moves the automaton with
:meth:`TimedBuchiAutomaton.step`, elapsing ``w`` and reading the letter of
the edge's target.  Layer 1 pairs one agent's transition system with its
specification automaton.  Layer 2 interleaves the per-agent layer-1
graphs, trimmed to their live states (:func:`search.live_states`): each
step advances time by the smallest time remaining on the agents' moves,
agents finishing exactly then complete their moves, and a round-robin
index turns the per-agent acceptance sets into a single one.
Layer 3 pairs the team graph with the team specification automaton using
the two-flag intersection bookkeeping.

Time is an ``int`` in every layer, durations, clock values and the time
remaining on a move alike: the caller builds the products on the
``scaled`` copies of the systems and automata, as ``solve`` does.

Successor lists are memoized per state, and state objects are plain value
tuples.  Successors come in construction order, which is deterministic:
a system lists each region's successors sorted and once, and ``step``
yields each automaton move once in the order of the sorted edges, so the
products keep their moves as built.  No layer builds the same successor
twice.  Only the team layer sorts, for the reason given at
:meth:`TeamProduct._compute_successors`.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import NamedTuple

from .search import live_states
from .tba import TimedBuchiAutomaton
from .wts import WeightedTransitionSystem


class ProductState(NamedTuple):
    node: object       # a node of the graph
    location: str
    valuation: tuple   # per clock, at most the automaton's cmax + 1
    flag: int          # 0 when the graph has no acceptance of its own


class TeamState(NamedTuple):
    components: tuple  # ProductState per agent
    targets: tuple     # committed in-flight ProductState per agent, or None
    remaining: tuple   # time left on the committed move, 0 without one
    turn: int          # round-robin index, 0-based
    letter: frozenset  # atoms of the components' regions, one object each


class _MemoizedGraph:
    """Shared successor memoization and statistics."""

    def __init__(self):
        self._successor_cache: dict = {}

    def successors(self, state):
        cached = self._successor_cache.get(state)
        if cached is None:
            cached = self._compute_successors(state)
            self._successor_cache[state] = cached
        return cached

    def _compute_successors(self, state):
        raise NotImplementedError

    def statistics(self) -> dict:
        """The states expanded so far, their edges, and how many of them
        accept."""
        cache = self._successor_cache
        return {"states": len(cache),
                "edges": sum(len(v) for v in cache.values()),
                "accepting": sum(1 for s in cache if self.is_accepting(s))}


class AutomatonProduct(_MemoizedGraph):
    """A labelled weighted graph paired with a timed automaton, as the
    module describes it; a state accepts at an accepting location."""

    first_flag = 0

    def __init__(self, graph, automaton: TimedBuchiAutomaton):
        super().__init__()
        self.graph = graph
        self.automaton = automaton
        self.cmax = automaton.cmax()

    def initial_states(self):
        zero = self.automaton.zero_valuation()
        return tuple(
            ProductState(node, location, zero, self.first_flag)
            for node in self.graph.initial_states()
            for location in self.automaton.initial_locations(
                self.graph.label_of(node)))

    def flag_after(self, state: ProductState) -> int:
        """The flag of every successor of ``state``."""
        return 0

    def _compute_successors(self, state: ProductState):
        """In the graph's successor order, and in ``step``'s order among
        the automaton's moves on one graph successor."""
        step, label_of = self.automaton.step, self.graph.label_of
        flag = self.flag_after(state)
        out = []
        for weight, node in self.graph.successors(state.node):
            for location, landed in step(state.location, state.valuation,
                                         weight, label_of(node), self.cmax):
                out.append((weight, ProductState(node, location, landed, flag)))
        return tuple(out)

    def is_accepting(self, state: ProductState) -> bool:
        return state.location in self.automaton.accepting


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
        super().__init__(system, automaton)


class TeamProduct(_MemoizedGraph):
    """Interleaving of the per-agent products, over their live states only.

    A state fixes each agent's current layer-1 state, the layer-1 state it
    is currently moving toward (``None`` when at a boundary), and the time
    remaining on that move, the move's weight when the agent commits to
    it.  Every step advances time by the smallest remaining time; exactly
    the agents with that much left complete their moves.  The round-robin
    index makes acceptance single-set: a state accepts when the index rests
    on the last agent and that agent's component is locally accepting.

    Team acceptance needs every agent to accept infinitely often, and every
    state reachable from a local state that is not live is not live either,
    so no accepting team cycle passes through one: the constructor runs
    :func:`search.live_states` on each local product (each pass counts
    against ``state_budget``), and components, targets and initial
    combinations are drawn from the live states alone.  The pruned
    subgraphs hold no accepting cycle, so the nested DFS returns the same
    lasso as on the untrimmed product.
    """

    # a state carries its letter; read without a Python-level call
    label_of = staticmethod(attrgetter("letter"))

    def __init__(self, locals_, state_budget=None):
        super().__init__()
        self.locals = tuple(locals_)
        if not self.locals:
            raise ValueError("at least one agent is required")
        self.count = len(self.locals)
        self.live = tuple(live_states(local, state_budget)
                          for local in self.locals)
        self._letters: dict = {}  # region vector -> its letter
        self._interned: dict = {}  # letter -> the one object for it

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
                targets=(None,) * self.count,
                remaining=(0,) * self.count,
                turn=0,
                letter=self._letter(combo),
            ))
        return tuple(out)

    def _compute_successors(self, state: TeamState):
        """Two interleavings never build the same state.  They are sorted
        all the same, because the nested DFS returns the first lasso in
        this order and the plan is projected from it: in the order of
        ``itertools.product`` over the agents' moves, grid_meet's lasso
        grows from a stem of 110 and a cycle of 40 states to 242 and 106
        (28,077 global states explored instead of 28,002), and the plans
        of both fixtures no longer match ``fixtures/expected/``."""
        options = []
        for k in range(self.count):
            if state.targets[k] is not None:
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
                    targets.append(None)
                    remaining.append(0)
                else:
                    components.append(state.components[k])
                    targets.append(target)
                    remaining.append(left - step)
            turn = state.turn
            if self.locals[turn].is_accepting(state.components[turn]):
                turn = (turn + 1) % self.count
            out.append((step, TeamState(tuple(components), tuple(targets),
                                        tuple(remaining), turn,
                                        self._letter(components))))
        return tuple(sorted(out, key=self._successor_key))

    @staticmethod
    def _successor_key(pair):
        """The components and the targets: each of a state's successors
        has its own, since an agent's move is its target, or its
        component once the move is complete."""
        _, state = pair
        target_key = tuple((0,) if t is None else (1, t) for t in state.targets)
        return (state.components, target_key)

    def is_accepting(self, state: TeamState) -> bool:
        last = self.count - 1
        return (state.turn == last
                and self.locals[last].is_accepting(state.components[last]))


class GlobalProduct(AutomatonProduct):
    """Layer 3: the team graph paired with the team automaton, with two-flag
    intersection bookkeeping: flag 1 waits for a team-accepting state,
    flag 2 waits for an automaton-accepting location, and acceptance is a
    team-accepting state carrying flag 1."""

    first_flag = 1

    def __init__(self, team: TeamProduct, automaton: TimedBuchiAutomaton):
        team_atoms = frozenset().union(
            *(local.graph.atoms for local in team.locals))
        if automaton.atoms != team_atoms:
            raise ValueError(
                f"team alphabet {sorted(team_atoms)} differs from automaton "
                f"alphabet {sorted(automaton.atoms)}")
        super().__init__(team, automaton)

    def flag_after(self, state: ProductState) -> int:
        if state.flag == 1:
            return 2 if self.graph.is_accepting(state.node) else 1
        return 1 if state.location in self.automaton.accepting else 2

    def is_accepting(self, state: ProductState) -> bool:
        return state.flag == 1 and self.graph.is_accepting(state.node)
