"""Weighted transition systems, their timed runs, and the merge of several
agents' runs into one collective run for the team.

A duration is a ``Fraction`` as a file gives it, and an ``int`` in the
:meth:`~WeightedTransitionSystem.scaled` copy that the products read.  A
run keeps its stamps as ``int`` ticks (see
:class:`~mitlplan.core.LassoSequence`), and a word labelled from a run
shares the run's ticks.

The merge is in closed form, in ticks under the lcm of the runs' units.
The merged lasso repeats only once every agent is back at the same
position of its cycle, so its cycle starts at the latest of the agents'
cycle starts and its period is the lcm of the run periods.  Its stamps
are the sorted union of the agents' arrivals before the end of that
first period, and each agent's state at a stamp is the one of its latest
arrival.

The constructor of :class:`WeightedTransitionSystem`, :func:`grid_system`
and :func:`collective_word_of` only build, and check nothing: a model
file is checked once, where it is read (``cli.load_system`` and
``cli._systems_of``), and a run where it meets its system
(:meth:`TimedRun.validate_for`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, repeat
from math import lcm
from operator import sub

from .core import InputError, LassoSequence, LassoTimedWord, freeze_atoms


@dataclass
class WeightedTransitionSystem:
    """A labelled weighted graph, in the sense of :mod:`mitlplan.product`.
    The keys of ``weights`` are its transitions."""

    states: tuple[str, ...]
    initial: frozenset[str]
    weights: dict  # (source, target) -> positive duration
    atoms: frozenset[str]
    labels: dict  # state -> frozenset of atoms

    def __post_init__(self):
        self.states = tuple(sorted(self.states))
        self.initial = frozenset(self.initial)
        self.atoms = frozenset(self.atoms)
        self.weights = dict(self.weights)
        self.labels = {state: freeze_atoms(self.labels.get(state, ()))
                       for state in self.states}
        # sorted by target
        out: dict[str, list] = {s: [] for s in self.states}
        for pair in sorted(self.weights):
            out[pair[0]].append((self.weights[pair], pair[1]))
        self._successors = {s: tuple(ts) for s, ts in out.items()}

    def initial_states(self) -> tuple[str, ...]:
        return tuple(sorted(self.initial))

    def label_of(self, state: str) -> frozenset[str]:
        return self.labels[state]

    def successors(self, state: str) -> tuple[tuple, ...]:
        """The ``(weight, target)`` pairs out of ``state``."""
        return self._successors[state]

    def distances_to(self, atom: str) -> dict:
        """Each state from which a state labelled ``atom`` can be reached,
        with the least total weight of a path there: 0 at a labelled state.
        One backward Dijkstra from the labelled states."""
        into: dict[str, list] = {}
        for (source, target), weight in self.weights.items():
            into.setdefault(target, []).append((weight, source))
        distances = {}
        queue = [(0, state) for state in self.states
                 if atom in self.labels[state]]
        while queue:
            distance, state = heappop(queue)
            if state in distances:
                continue
            distances[state] = distance
            for weight, source in into.get(state, ()):
                if source not in distances:
                    heappush(queue, (distance + weight, source))
        return distances

    def scaled(self, factor: int) -> "WeightedTransitionSystem":
        """A copy whose durations are multiplied by ``factor`` into
        ``int``s; ``factor`` is :func:`~mitlplan.core.denominator_lcm` over
        the durations, or a multiple of it."""
        return WeightedTransitionSystem(
            states=self.states,
            initial=self.initial,
            weights={pair: int(w * factor) for pair, w in self.weights.items()},
            atoms=self.atoms,
            labels=self.labels,
        )


class TimedRun(LassoSequence):
    """A lasso-shaped infinite run: payloads are state names, stamps start
    at zero and advance by the traversed transition's weight."""

    payload = staticmethod(str)

    def _check(self) -> None:
        super()._check()
        if self.ticks[0] != 0:
            raise InputError("runs start at time zero")

    def validate_for(self, system: WeightedTransitionSystem) -> None:
        here = self.payloads[0]
        if here not in system.initial:
            raise InputError(f"run starts at {here}, not an initial state")
        # every step of prefix + cycle, and the one into the second turn
        loop = self.loop
        payloads = self.payloads + (self.payloads[loop],)
        ticks = self.ticks + (self.ticks[loop] + self.period_ticks,)
        weights, unit = system.weights, self.unit
        for i, (here, there, stamp, arrival) in enumerate(zip(
                payloads, payloads[1:], ticks, ticks[1:])):
            weight = weights.get((here, there))
            if weight is None:
                raise InputError(
                    f"step {i}: {here} -> {there} is not a transition")
            if (arrival - stamp) * weight.denominator != \
                    weight.numerator * unit:
                raise InputError(
                    f"step {i}: arrival at {there} stamped "
                    f"{self.stamp_at(i + 1)}, expected "
                    f"{self.stamp_at(i) + weight}")


class CollectiveRun(LassoSequence):
    """A lasso over joint states: payloads are tuples of per-agent states."""

    payload = staticmethod(tuple)


def timed_word_of(system: WeightedTransitionSystem, run: TimedRun) -> LassoTimedWord:
    """Apply the labeling pointwise; the word shares the run's ticks."""
    run.validate_for(system)
    return LassoTimedWord.from_ticks(map(system.label_of, run.payloads),
                                     run.loop, run.ticks, run.period_ticks,
                                     run.unit)


def collective_run(runs) -> CollectiveRun:
    """Merge individual runs into the team's collective run.

    At every arrival of any agent the team takes one position, stamped
    with that arrival's time, where each agent is at the state of its
    latest arrival; agents that arrive together share the position.  The
    merged lasso's cycle starts at the latest of the runs' cycle starts,
    the first time at which every agent is in its cycle, and its period
    is the lcm of the run periods: the (per-agent cycle position, time to
    next arrival) configuration repeats first there.  Time is counted in
    integers, under the lcm of the runs' units.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("at least one run is required")
    factor = lcm(*(run.unit for run in runs))
    timelines = [run.integer_timeline(factor) for run in runs]
    start = max(ticks[run.loop] for run, (ticks, _) in zip(runs, timelines))
    period = lcm(*(period for _, period in timelines))
    end = start + period
    # per run, its states and arrivals before ``end``: prefix + cycle, then
    # shifted copies of the cycle
    states, arrivals = [], []
    for run, (ticks, run_period) in zip(runs, timelines):
        cycle = ticks[run.loop:]
        turns = range(run_period, end - cycle[0], run_period)
        unrolled = [*ticks, *(t + shift for shift in turns for t in cycle)]
        count = bisect_left(unrolled, end)
        arrivals.append(unrolled[:count])
        states.append((run.payloads
                       + run.payloads[run.loop:] * len(turns))[:count])
    stamps = sorted(set().union(*arrivals))
    index = dict(zip(stamps, range(len(stamps))))
    # an agent keeps the state of an arrival until its next one
    columns = []
    for own_states, own_arrivals in zip(states, arrivals):
        at = [*map(index.__getitem__, own_arrivals), len(stamps)]
        columns.append(chain.from_iterable(map(
            repeat, own_states, map(sub, at[1:], at))))
    return CollectiveRun.from_ticks(zip(*columns), index[start], stamps,
                                    period, factor)


def collective_word_of(systems, run: CollectiveRun) -> LassoTimedWord:
    """The team's word: at every position, the union of each agent's label
    at its component state.  Agent alphabets must be pairwise disjoint, as
    the model loader (``cli._systems_of``) makes them.  The word shares the
    run's ticks."""
    systems = list(systems)
    # one letter per joint state, however often the run visits it
    letters = {vector: frozenset().union(*(
        system.label_of(state) for system, state in zip(systems, vector)))
        for vector in set(run.payloads)}
    return LassoTimedWord.from_ticks(map(letters.__getitem__, run.payloads),
                                     run.loop, run.ticks, run.period_ticks,
                                     run.unit)


def grid_cells(rows: int, cols: int) -> list[str]:
    """The cells of a rows-by-cols grid, numbered row by row starting from
    1 at the top-left: ``p1`` ... ``pN``."""
    return [f"p{n}" for n in range(1, rows * cols + 1)]


# direction -> (row step, column step) of a grid move
GRID_MOVES = {"up": (-1, 0), "right": (0, 1), "down": (1, 0), "left": (0, -1)}


def grid_system(rows: int, cols: int, move_weights: dict, labels: dict,
                initial) -> WeightedTransitionSystem:
    """A rows-by-cols workspace of :func:`grid_cells` with 4-neighbor
    moves.  ``move_weights`` maps each of :data:`GRID_MOVES` to a positive
    duration, and ``rows`` and ``cols`` are positive, as the model loader
    (``cli.load_system``) makes them.
    """
    states = grid_cells(rows, cols)
    weights = {}
    for r in range(rows):
        for c in range(cols):
            for direction, (dr, dc) in GRID_MOVES.items():
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    pair = (states[r * cols + c], states[r2 * cols + c2])
                    weights[pair] = Fraction(move_weights[direction])
    atoms: set[str] = set()
    for cell_labels in labels.values():
        atoms |= set(cell_labels)
    return WeightedTransitionSystem(
        states=tuple(states),
        initial=frozenset(initial),
        weights=weights,
        atoms=frozenset(atoms),
        labels={state: frozenset(labels.get(state, ())) for state in states},
    )
