"""Weighted transition systems, their timed runs, and the merge of several
agents' runs into one collective run for the team.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (LassoSequence, LassoTimedWord, denominator_lcm,
                   freeze_atoms, int_if_integral)


class ModelValidationError(Exception):
    pass


class RunValidationError(Exception):
    pass


@dataclass
class WeightedTransitionSystem:
    states: tuple[str, ...]
    initial: frozenset[str]
    transitions: tuple[tuple[str, str], ...]
    weights: dict  # (source, target) -> positive rational, int if integral
    atoms: frozenset[str]
    labels: dict  # state -> frozenset of atoms
    _successors: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.states = tuple(sorted(self.states))
        self.initial = frozenset(self.initial)
        self.atoms = frozenset(self.atoms)
        self.transitions = tuple(sorted(self.transitions))
        known = set(self.states)
        if not self.initial:
            raise ModelValidationError("at least one initial state is required")
        if not self.initial <= known:
            raise ModelValidationError("initial states must be declared states")
        for pair in self.transitions:
            if pair[0] not in known or pair[1] not in known:
                raise ModelValidationError(f"transition endpoints undeclared: {pair}")
            if pair not in self.weights:
                raise ModelValidationError(f"transition without weight: {pair}")
        for pair, weight in self.weights.items():
            if pair not in set(self.transitions):
                raise ModelValidationError(f"weight for undeclared transition: {pair}")
            if weight <= 0:
                raise ModelValidationError(
                    f"transition weights must be positive: {pair} -> {weight}")
        self.weights = {pair: int_if_integral(weight)
                        for pair, weight in self.weights.items()}
        for state in self.states:
            label = freeze_atoms(self.labels.get(state, ()))
            if not label <= self.atoms:
                raise ModelValidationError(f"label of {state} uses undeclared atoms")
            self.labels[state] = label
        out: dict[str, list] = {s: [] for s in self.states}
        for source, target in self.transitions:
            out[source].append(target)
        self._successors = {s: tuple(sorted(ts)) for s, ts in out.items()}

    def label_of(self, state: str) -> frozenset[str]:
        return self.labels[state]

    def successors(self, state: str) -> tuple[str, ...]:
        return self._successors[state]

    def weight_of(self, source: str, target: str) -> Fraction:
        return self.weights[(source, target)]

    def scaled(self, factor: int) -> "WeightedTransitionSystem":
        if factor == 1:
            return self
        return WeightedTransitionSystem(
            states=self.states,
            initial=self.initial,
            transitions=self.transitions,
            weights={pair: w * factor for pair, w in self.weights.items()},
            atoms=self.atoms,
            labels=dict(self.labels),
        )


class TimedRun(LassoSequence):
    """A lasso-shaped infinite run: payloads are state names, stamps start
    at zero and advance by the traversed transition's weight."""

    def __post_init__(self):
        prefix = tuple((str(s), Fraction(t)) for s, t in self.prefix)
        cycle = tuple((str(s), Fraction(t)) for s, t in self.cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)
        super().__post_init__()
        if self.stamp_at(0) != 0:
            raise RunValidationError("runs start at time zero")

    def state_at(self, index: int) -> str:
        return self.payload_at(index)

    def validate_for(self, system: WeightedTransitionSystem) -> None:
        # every step of prefix + cycle, into the second turn and one more
        events = self.unroll(3)[:len(self.prefix) + len(self.cycle) + 2]
        if events[0][0] not in system.initial:
            raise RunValidationError(
                f"run starts at {events[0][0]}, not an initial state")
        for i, ((here, stamp), (there, arrival)) in enumerate(
                zip(events, events[1:])):
            if (here, there) not in system.weights:
                raise RunValidationError(
                    f"step {i}: {here} -> {there} is not a transition")
            expected = stamp + system.weight_of(here, there)
            if arrival != expected:
                raise RunValidationError(
                    f"step {i}: arrival at {there} stamped {arrival}, "
                    f"expected {expected}")


class CollectiveRun(LassoSequence):
    """A lasso over joint states: payloads are tuples of per-agent states."""

    def __post_init__(self):
        prefix = tuple((tuple(v), Fraction(t)) for v, t in self.prefix)
        cycle = tuple((tuple(v), Fraction(t)) for v, t in self.cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)
        super().__post_init__()

    def vector_at(self, index: int) -> tuple:
        return self.payload_at(index)


def timed_word_of(system: WeightedTransitionSystem, run: TimedRun) -> LassoTimedWord:
    """Apply the labeling pointwise; stamps carry over unchanged."""
    run.validate_for(system)
    return LassoTimedWord(
        prefix=tuple((system.label_of(s), t) for s, t in run.prefix),
        cycle=tuple((system.label_of(s), t) for s, t in run.cycle),
        period=run.period,
    )


def collective_run(runs) -> CollectiveRun:
    """Merge individual runs into the team's collective run.

    Repeatedly, the agents whose next arrival time is minimal complete
    their transitions together and that arrival time becomes the next
    collective stamp; everyone else stays in place.  The merged sequence
    is ultimately periodic: the construction closes its cycle at the first
    repeat of (per-agent reduced position, per-agent time to next arrival).
    Time is counted in integers, under the lcm of the runs' denominators.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("at least one run is required")
    for run in runs:
        if run.stamp_at(0) != 0:
            raise RunValidationError("all runs must start at time zero")
    if len(runs) == 1:
        only = runs[0]
        return CollectiveRun(
            prefix=tuple(((s,), t) for s, t in only.prefix),
            cycle=tuple(((s,), t) for s, t in only.cycle),
            period=only.period)

    # per run, in integer time under one factor: the state at each position
    # of prefix + cycle, and the time to the next arrival with its position
    factor = denominator_lcm(t for run in runs for t in run.time_values())
    states = [[state for state, _ in run.prefix + run.cycle] for run in runs]
    steps = [run.integer_steps(factor) for run in runs]

    agents = range(len(runs))
    positions = [0 for _ in runs]
    pending = [steps[k][0][0] for k in agents]
    now = 0
    events = [(tuple(states[k][0] for k in agents), now)]
    seen = {(tuple(positions), tuple(pending)): 0}
    while True:
        step = min(pending)
        now += step
        for k in agents:
            pending[k] -= step
            if pending[k] == 0:
                positions[k] = steps[k][positions[k]][1]
                pending[k] = steps[k][positions[k]][0]
        events.append((tuple(states[k][positions[k]] for k in agents), now))
        config = (tuple(positions), tuple(pending))
        if config in seen:
            start = seen[config]
            period = Fraction(now - events[start][1], factor)
            exact = [(vector, Fraction(t, factor)) for vector, t in events]
            return CollectiveRun(prefix=tuple(exact[:start]),
                                 cycle=tuple(exact[start:-1]), period=period)
        seen[config] = len(events) - 1


def collective_word_of(systems, run: CollectiveRun) -> LassoTimedWord:
    """The team's word: at every position, the union of each agent's label
    at its component state.  Agent alphabets must be pairwise disjoint."""
    systems = list(systems)
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            overlap = systems[i].atoms & systems[j].atoms
            if overlap:
                raise ModelValidationError(
                    f"agent alphabets overlap: {sorted(overlap)}")

    def letter(vector):
        atoms: set[str] = set()
        for system, state in zip(systems, vector):
            atoms |= system.label_of(state)
        return frozenset(atoms)

    return LassoTimedWord(
        prefix=tuple((letter(v), t) for v, t in run.prefix),
        cycle=tuple((letter(v), t) for v, t in run.cycle),
        period=run.period,
    )


def grid_system(rows: int, cols: int, move_weights: dict, labels: dict,
                initial, name_prefix: str = "p") -> WeightedTransitionSystem:
    """A rows-by-cols workspace with 4-neighbor moves.

    Cells are numbered row by row starting from 1 at the top-left, named
    ``p1`` ... ``pN``.  ``move_weights`` maps ``up``/``right``/``down``/
    ``left`` to positive durations.
    """
    if rows < 1 or cols < 1:
        raise ModelValidationError("grid needs positive dimensions")
    directions = {"up": (-1, 0), "right": (0, 1), "down": (1, 0), "left": (0, -1)}
    for key in directions:
        if key not in move_weights:
            raise ModelValidationError(f"grid move weight missing: {key}")

    def cell(row: int, col: int) -> str:
        return f"{name_prefix}{row * cols + col + 1}"

    states = [cell(r, c) for r in range(rows) for c in range(cols)]
    transitions = []
    weights = {}
    for r in range(rows):
        for c in range(cols):
            for direction, (dr, dc) in directions.items():
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    pair = (cell(r, c), cell(r2, c2))
                    transitions.append(pair)
                    weights[pair] = Fraction(move_weights[direction])
    atoms: set[str] = set()
    for cell_labels in labels.values():
        atoms |= set(cell_labels)
    return WeightedTransitionSystem(
        states=tuple(states),
        initial=frozenset(initial),
        transitions=tuple(transitions),
        weights=weights,
        atoms=frozenset(atoms),
        labels={state: frozenset(labels.get(state, ())) for state in states},
    )
