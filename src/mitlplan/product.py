"""The three layered product constructions, generated lazily from their
initial states.

Layer 1 pairs one agent's transition system with its specification
automaton, tracking saturated clock valuations.  Layer 2 interleaves the
per-agent layer-1 graphs: each step advances time by the smallest
remaining transition duration among the agents, agents finishing exactly
then complete their moves, and a round-robin index turns the per-agent
acceptance sets into a single one.  Layer 3 pairs the team graph with the
team specification automaton using the two-flag intersection bookkeeping.
Layers 1 and 3 move their automaton with :meth:`TimedBuchiAutomaton.step`,
on integer time when the caller scales durations and clock constants to
integers, as ``solve`` does.

Successor lists are memoized per state, and state objects are plain value
tuples.  Successors come in construction order, which is deterministic:
a system lists each region's successors sorted and once, and ``step``
yields each automaton move once in the order of the sorted edges, so the
local and global layers keep their moves as built.  No layer builds the
same successor twice.  Only the team layer sorts, for the reason given at
:meth:`TeamProduct._compute_successors`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .tba import TimedBuchiAutomaton
from .wts import WeightedTransitionSystem


class LocalState(NamedTuple):
    region: str
    location: str
    valuation: tuple  # per clock, at most the automaton's cmax + 1


class TeamState(NamedTuple):
    components: tuple  # LocalState per agent
    targets: tuple     # committed in-flight LocalState per agent, or None
    offsets: tuple     # time already spent on the current transition
    turn: int          # round-robin index, 0-based
    letter: frozenset  # atoms of the components' regions, one object each


class GlobalState(NamedTuple):
    team: TeamState
    location: str
    valuation: tuple
    flag: int


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

    @property
    def explored_states(self) -> int:
        return len(self._successor_cache)

    @property
    def explored_edges(self) -> int:
        return sum(len(v) for v in self._successor_cache.values())

    def explored_accepting(self) -> int:
        return sum(1 for s in self._successor_cache if self.is_accepting(s))


class LocalProduct(_MemoizedGraph):
    """States are (region, automaton location, clock valuation); a step
    moves the system and the automaton synchronously, advancing every
    clock by the transition's duration."""

    def __init__(self, system: WeightedTransitionSystem,
                 automaton: TimedBuchiAutomaton):
        super().__init__()
        if system.atoms != automaton.atoms:
            raise ValueError(
                f"system alphabet {sorted(system.atoms)} differs from "
                f"automaton alphabet {sorted(automaton.atoms)}")
        self.system = system
        self.automaton = automaton
        self.cmax = automaton.cmax()
        self._initial = self._build_initial()

    def _build_initial(self):
        zero = self.automaton.zero_valuation()
        return tuple(
            LocalState(region, location, zero)
            for region in sorted(self.system.initial)
            for location in self.automaton.initial_locations(
                self.system.label_of(region)))

    @property
    def has_initial_states(self) -> bool:
        return bool(self._initial)

    def initial_states(self):
        return self._initial

    def _compute_successors(self, state: LocalState):
        system, automaton = self.system, self.automaton
        out = []
        for region in system.successors(state.region):
            duration = system.weight_of(state.region, region)
            for location, landed in automaton.step(
                    state.location, state.valuation, duration,
                    system.label_of(region), self.cmax):
                out.append((duration, LocalState(region, location, landed)))
        return tuple(out)

    def is_accepting(self, state: LocalState) -> bool:
        return state.location in self.automaton.accepting

    def duration_of(self, state: LocalState, target: LocalState):
        return self.system.weight_of(state.region, target.region)


class TeamProduct(_MemoizedGraph):
    """Interleaving of the per-agent products.

    A state fixes each agent's current layer-1 state, the layer-1 state it
    is currently moving toward (``None`` when at a boundary), and the time
    already spent on that move.  Every step advances time by the smallest
    remaining duration; exactly the agents whose remaining duration equals
    it complete their moves.  The round-robin index makes acceptance
    single-set: a state accepts when the index rests on the last agent and
    that agent's component is locally accepting.
    """

    def __init__(self, locals_):
        super().__init__()
        self.locals = tuple(locals_)
        if not self.locals:
            raise ValueError("at least one agent is required")
        self.count = len(self.locals)
        self._letters: dict = {}  # region vector -> its letter
        self._interned: dict = {}  # letter -> the one object for it

    def _letter(self, components) -> frozenset[str]:
        regions = tuple([component.region for component in components])
        letter = self._letters.get(regions)
        if letter is None:
            letter = frozenset().union(*(
                local.system.label_of(region)
                for local, region in zip(self.locals, regions)))
            letter = self._letters[regions] = self._interned.setdefault(
                letter, letter)
        return letter

    def initial_states(self):
        per_agent = [local.initial_states() for local in self.locals]
        out = []
        for combo in itertools.product(*per_agent):
            out.append(TeamState(
                components=tuple(combo),
                targets=(None,) * self.count,
                offsets=(0,) * self.count,
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
                duration = self.locals[k].duration_of(state.components[k],
                                                      state.targets[k])
                options.append(((duration, state.targets[k]),))
            else:
                moves = self.locals[k].successors(state.components[k])
                if not moves:
                    return ()  # deadlocked agent: the state is edgeless
                options.append(moves)
        out = []
        for combo in itertools.product(*options):
            step = min(duration - offset
                       for (duration, _), offset in zip(combo, state.offsets))
            components = []
            targets = []
            offsets = []
            for k, ((duration, target), offset) in enumerate(
                    zip(combo, state.offsets)):
                if offset + step == duration:
                    components.append(target)
                    targets.append(None)
                    offsets.append(0)
                else:
                    components.append(state.components[k])
                    targets.append(target)
                    offsets.append(offset + step)
            turn = state.turn
            if self.locals[turn].is_accepting(state.components[turn]):
                turn = (turn + 1) % self.count
            out.append((step, TeamState(tuple(components), tuple(targets),
                                        tuple(offsets), turn,
                                        self._letter(components))))
        return tuple(sorted(out, key=self._successor_key))

    @staticmethod
    def _successor_key(pair):
        step, state = pair
        target_key = tuple((0,) if t is None else (1, t) for t in state.targets)
        return (state.components, target_key, state.offsets, state.turn, step)

    def is_accepting(self, state: TeamState) -> bool:
        last = self.count - 1
        return (state.turn == last
                and self.locals[last].is_accepting(state.components[last]))


class GlobalProduct(_MemoizedGraph):
    """The team graph paired with the team automaton, with two-flag
    intersection bookkeeping: flag 1 waits for a team-accepting state,
    flag 2 waits for an automaton-accepting location, and acceptance is a
    team-accepting state carrying flag 1."""

    def __init__(self, team: TeamProduct, automaton: TimedBuchiAutomaton):
        super().__init__()
        team_atoms = frozenset().union(
            *(local.system.atoms for local in team.locals))
        if automaton.atoms != team_atoms:
            raise ValueError(
                f"team alphabet {sorted(team_atoms)} differs from automaton "
                f"alphabet {sorted(automaton.atoms)}")
        self.team = team
        self.automaton = automaton
        self.cmax = automaton.cmax()

    def initial_states(self):
        zero = self.automaton.zero_valuation()
        return tuple(
            GlobalState(team_state, location, zero, 1)
            for team_state in self.team.initial_states()
            for location in self.automaton.initial_locations(team_state.letter))

    def _compute_successors(self, state: GlobalState):
        """In the team's successor order, and in ``step``'s order among
        the automaton's moves on one team successor."""
        automaton = self.automaton
        if state.flag == 1:
            flag = 2 if self.team.is_accepting(state.team) else 1
        else:
            flag = 1 if state.location in automaton.accepting else 2
        out = []
        for step, team_next in self.team.successors(state.team):
            for location, landed in automaton.step(
                    state.location, state.valuation, step, team_next.letter,
                    self.cmax):
                out.append((step, GlobalState(team_next, location, landed,
                                              flag)))
        return tuple(out)

    def is_accepting(self, state: GlobalState) -> bool:
        return state.flag == 1 and self.team.is_accepting(state.team)
