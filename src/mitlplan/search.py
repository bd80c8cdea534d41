"""Emptiness search over lazily generated Buchi graphs, and projection of a
found lasso back to per-agent timed plans.

A graph object, such as those of :mod:`mitlplan.product`, provides
``initial_states()``, ``successors(state)`` yielding ``(edge weight, next
state)`` pairs in a deterministic order, and ``is_accepting(state)``; the
searches read no labels.  :func:`find_accepting_lasso` is the classic
two-phase nested depth-first search; :func:`live_states` is one pass of
Tarjan's strongly connected components algorithm that keeps every state
from which an accepting cycle can be reached.  Both are iterative, so
product graphs with very long paths cannot overflow the interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import LassoTimedWord
from .mitl import Formula, first_violation, format_formula
# kept importable from here: the benchmark's tracer test reads it
from .mitl import satisfies  # noqa: F401
from .tba import accepts_lasso
from .wts import (CollectiveRun, TimedRun, collective_word_of,
                  timed_word_of)


class ExplorationLimitError(Exception):
    """The search materialized more states than the configured budget."""

    def __init__(self, states_explored: int):
        self.states_explored = states_explored
        super().__init__(f"state budget exceeded after {states_explored} states")


@dataclass(frozen=True)
class AcceptingLasso:
    """A reachable cycle through an accepting state.

    ``stem_states[0]`` is initial, ``stem_states[-1]`` is the accepting
    cycle head; ``cycle_steps`` walks from the head back to itself.
    """

    stem_states: tuple
    stem_weights: tuple  # weight of the edge into stem_states[k+1]
    cycle_steps: tuple   # (weight, state) pairs; last state == head

    def __post_init__(self):
        assert len(self.stem_weights) == len(self.stem_states) - 1
        assert self.cycle_steps
        assert self.cycle_steps[-1][1] == self.head

    @property
    def head(self):
        return self.stem_states[-1]

    @property
    def cycle_weight(self):
        return sum(w for w, _ in self.cycle_steps)

    def path_states(self) -> tuple:
        return self.stem_states + tuple(s for _, s in self.cycle_steps)

    def path_weights(self) -> tuple:
        return self.stem_weights + tuple(w for w, _ in self.cycle_steps)


def find_accepting_lasso(graph, state_budget: Optional[int] = None):
    """Nested DFS emptiness check; returns a lasso or ``None``.

    The outer (blue) search runs in post-order; when an accepting state
    closes, an inner (red) search looks for any state still on the blue
    path, which closes an accepting cycle.  Red marks persist across inner
    searches, keeping the whole procedure linear in the explored graph.
    """
    visited = set()
    red = set()

    for init in graph.initial_states():
        if init in visited:
            continue
        visited.add(init)
        if state_budget is not None and len(visited) > state_budget:
            raise ExplorationLimitError(len(visited))
        path = [(init, None)]
        path_index = {init: 0}
        stack = [(init, iter(graph.successors(init)))]
        while stack:
            state, successor_iter = stack[-1]
            advanced = False
            for weight, succ in successor_iter:
                if succ not in visited:
                    visited.add(succ)
                    if state_budget is not None and len(visited) > state_budget:
                        raise ExplorationLimitError(len(visited))
                    path_index[succ] = len(path)
                    path.append((succ, weight))
                    stack.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
            if advanced:
                continue
            if graph.is_accepting(state):
                closing = _red_search(graph, state, path_index, red)
                if closing is not None:
                    return _assemble(path, path_index, state, closing)
            stack.pop()
            dropped, _ = path.pop()
            del path_index[dropped]
    return None


def live_states(graph, state_budget: Optional[int] = None) -> frozenset:
    """The reachable states of ``graph`` from which a cycle through an
    accepting state can be reached: the states that start some accepting
    run.  Empty exactly when :func:`find_accepting_lasso` returns ``None``.

    One iterative pass of Tarjan's algorithm (as in Couvreur, FM 1999).  A
    component closes after every component it reaches, so it is live when
    it is a cycle through an accepting state, or when one of its states has
    an edge into a live component closed before it.
    """
    index = {}        # every state reached, in the order reached
    low = {}          # lowlink of each state whose component is open
    open_states = []  # Tarjan's stack, in increasing index
    live = set()

    def enter(state):
        index[state] = low[state] = len(index)
        if state_budget is not None and len(index) > state_budget:
            raise ExplorationLimitError(len(index))
        open_states.append(state)
        return state, iter(graph.successors(state))

    def close(root):
        component = []
        while open_states and index[open_states[-1]] >= index[root]:
            state = open_states.pop()
            del low[state]
            component.append(state)
        # the component is a cycle exactly when one of its edges enters
        # the root, and every other component it reaches is closed
        targets = [succ for state in component
                   for _, succ in graph.successors(state)]
        if any(succ in live for succ in targets) or (
                root in targets and any(map(graph.is_accepting, component))):
            live.update(component)

    for init in graph.initial_states():
        if init in index:
            continue
        stack = [enter(init)]
        while stack:
            state, successor_iter = stack[-1]
            for _, succ in successor_iter:
                if succ not in index:
                    stack.append(enter(succ))
                    break
                if succ in low:
                    low[state] = min(low[state], index[succ])
            else:
                stack.pop()
                if low[state] == index[state]:
                    close(state)
                elif stack:
                    caller = stack[-1][0]
                    low[caller] = min(low[caller], low[state])
    return frozenset(live)


def _red_search(graph, seed, path_index, red):
    """Search from ``seed`` for any state on the blue path; returns the red
    path as (weight, state) steps ending at that state, or ``None``."""
    parent = {}
    order = [seed]
    red.add(seed)
    stack = [(seed, iter(graph.successors(seed)))]
    while stack:
        state, successor_iter = stack[-1]
        advanced = False
        for weight, succ in successor_iter:
            if succ in path_index:
                steps = [(weight, succ)]
                cursor = state
                while cursor != seed:
                    w, prev = parent[cursor]
                    steps.append((w, cursor))
                    cursor = prev
                steps.reverse()
                return tuple(steps)
            if succ not in red:
                red.add(succ)
                parent[succ] = (weight, state)
                stack.append((succ, iter(graph.successors(succ))))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return None


def _assemble(path, path_index, seed, closing_steps):
    hit = closing_steps[-1][1]
    stem_states = tuple(s for s, _ in path[: path_index[seed] + 1])
    stem_weights = tuple(w for _, w in path[1: path_index[seed] + 1])
    blue_segment = tuple(
        (w, s) for s, w in path[path_index[hit] + 1: path_index[seed] + 1])
    cycle = tuple(closing_steps) + blue_segment
    return AcceptingLasso(stem_states=stem_states, stem_weights=stem_weights,
                          cycle_steps=cycle)


# --- projection back to timed plans -----------------------------------------


@dataclass
class FormulaVerdict:
    description: str
    satisfied: bool
    violation_position: Optional[int] = None
    violation_time: Optional[Fraction] = None


@dataclass
class PlanBundle:
    agent_names: tuple
    runs: tuple  # TimedRun per agent
    words: tuple  # LassoTimedWord per agent
    collective_run: CollectiveRun
    collective_word: LassoTimedWord
    verdicts: tuple  # FormulaVerdict

    @property
    def all_satisfied(self) -> bool:
        return all(v.satisfied for v in self.verdicts)


class ProjectionError(Exception):
    """A projected plan failed re-validation; this indicates a bug, not bad
    input."""


def project_plan(lasso: AcceptingLasso, problem, factor: int) -> PlanBundle:
    """Peel a global-product lasso into per-agent runs, rebuild all words,
    and re-validate every formula and automaton of ``problem`` (a
    ``cli.PlanningProblem``) against them.

    ``factor`` is the one the products' durations were multiplied by;
    every stamp is divided back by it into an exact rational.
    """
    states = lasso.path_states()
    weights = lasso.path_weights()
    team_states = [s.node for s in states]
    stem_len = len(lasso.stem_states)

    stamps = [0]
    for w in weights:
        stamps.append(stamps[-1] + w)
    stamps = [Fraction(t, factor) for t in stamps]
    period = Fraction(lasso.cycle_weight, factor)

    agents = problem.agents
    names = tuple(agent.name for agent in agents)
    vectors = [tuple(component.node for component in ts.components)
               for ts in team_states]

    collective_prefix = tuple(
        (vectors[i], stamps[i]) for i in range(stem_len - 1))
    collective_cycle = tuple(
        (vectors[i], stamps[i]) for i in range(stem_len - 1, len(vectors) - 1))
    collective = CollectiveRun(prefix=collective_prefix,
                               cycle=collective_cycle, period=period)

    runs = []
    for k, name in enumerate(names):
        prefix = []
        cycle = []
        # agent k is at a state of its own run where it has no move in
        # flight, which includes position 0: it opens the cycle when the stem
        # is the initial state alone.  The final path position is excluded:
        # it repeats the cycle head one period later
        for i in range(len(team_states) - 1):
            if team_states[i].targets[k] is not None:
                continue
            entry = (vectors[i][k], stamps[i])
            if i < stem_len - 1:
                prefix.append(entry)
            else:
                cycle.append(entry)
        if not cycle:
            raise ProjectionError(
                f"agent {name} never completes a transition inside the cycle")
        runs.append(TimedRun(prefix=tuple(prefix), cycle=tuple(cycle),
                             period=period))

    words = tuple(timed_word_of(agent.system, run)
                  for agent, run in zip(agents, runs))
    collective_word = collective_word_of(
        [agent.system for agent in agents], collective)

    verdicts = []
    for agent, word in zip(agents, words):
        if agent.formula is not None:
            verdicts.append(_formula_verdict(
                f"{agent.name}: {format_formula(agent.formula)}", word,
                agent.formula))
        verdicts.append(FormulaVerdict(
            description=f"{agent.name}: timed automaton membership",
            satisfied=accepts_lasso(agent.automaton, word)))
    if problem.global_formula is not None:
        verdicts.append(_formula_verdict(
            f"team: {format_formula(problem.global_formula)}",
            collective_word, problem.global_formula))
    verdicts.append(FormulaVerdict(
        description="team: timed automaton membership",
        satisfied=accepts_lasso(problem.global_automaton, collective_word)))

    bundle = PlanBundle(agent_names=names, runs=tuple(runs),
                        words=words, collective_run=collective,
                        collective_word=collective_word,
                        verdicts=tuple(verdicts))
    if not bundle.all_satisfied:
        failing = [v.description for v in verdicts if not v.satisfied]
        raise ProjectionError(
            "projected plan failed re-validation: " + "; ".join(failing))
    return bundle


def _formula_verdict(description: str, word: LassoTimedWord,
                     formula: Formula) -> FormulaVerdict:
    violation = first_violation(word, formula)
    if violation is None:
        return FormulaVerdict(description=description, satisfied=True)
    position, stamp = violation
    return FormulaVerdict(description=description, satisfied=False,
                          violation_position=position, violation_time=stamp)
