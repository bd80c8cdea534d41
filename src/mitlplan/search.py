"""Emptiness search over lazily generated Buchi graphs, and projection of a
found lasso back to per-agent timed plans.

A graph object, such as those of :mod:`mitlplan.product`, provides
``initial_states()``, ``successors(state)`` yielding ``(edge weight, next
state)`` pairs in a deterministic order, and generalized Büchi acceptance:
``marks(state)``, the bitmask of the acceptance sets holding the state, and
``all_marks``; the searches read no labels.  :func:`find_accepting_lasso`
and :func:`live_states` are one iterative pass of an SCC-based emptiness
check: the first stops at the first component that collects every mark,
the second runs to the end.  Product graphs with very long paths cannot
overflow the interpreter stack.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .core import LassoTimedWord
from .mitl import format_formula, satisfies
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
    """A reachable cycle that visits every acceptance set.

    ``stem_states[0]`` is initial, ``stem_states[-1]`` is the cycle head;
    ``cycle_steps`` walks from the head back to itself.
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
    """An accepting lasso of ``graph``, or ``None`` when it has none: a
    lasso through the first component of :func:`_components` that collects
    every mark."""
    found = _components(graph, state_budget, True)
    return None if found is None else _lasso(graph, *found)


def has_accepting_run(graph) -> bool:
    """Whether :func:`find_accepting_lasso` would find a lasso; the same
    pass, which builds none."""
    return _components(graph, None, True) is not None


def live_states(graph, state_budget: Optional[int] = None) -> frozenset:
    """The reachable states of ``graph`` from which an accepting cycle can
    be reached: the states that start some accepting run.  Empty exactly
    when :func:`find_accepting_lasso` returns ``None``."""
    return _components(graph, state_budget, False)


def _components(graph, state_budget, first):
    """One on-the-fly pass of Couvreur's SCC-based emptiness check (FM
    1999; Gaiser & Schwoon, MEMICS 2009).

    Each open component is known by its root, the state of it entered
    first, and carries the union of its states' marks.  An edge into an
    open component merges every component entered since into that one,
    which then holds a cycle through all of their states; once its marks
    are ``all_marks`` the cycle can accept.  With ``first`` the pass stops
    at the first such merge and returns the search path, the entry numbers
    and that component's root number and depth on the path, from which
    :func:`_lasso` builds a lasso (or ``None`` when no merge collects
    every mark).  Without it the pass runs to the end and returns the live
    states: a component is live when a merge collected every mark in it,
    or when it has an edge into a live component, which closed before it.

    The open components are four parallel stacks, oldest first, with no
    object per state: the root's entry number, the root's place among the
    open states, the union of the marks, and whether the component is live.
    """
    marks_of, all_marks = graph.marks, graph.all_marks
    successors = graph.successors
    index = {}        # every state reached -> its number, -1 once closed
    open_states = []  # the states of the open components, in entry order
    numbers = []      # per open component: its root's entry number,
    places = []       # its root's place in open_states,
    marks = []        # the union of its states' marks,
    lives = []        # whether an accepting cycle is reachable from it
    path = []         # (state, weight into it, successors left to try)
    live = set()

    for init in graph.initial_states():
        if init in index:
            continue
        state, weight = init, None
        while state is not None:
            number = index[state] = len(index)
            if state_budget is not None and number >= state_budget:
                raise ExplorationLimitError(number + 1)
            numbers.append(number)
            places.append(len(open_states))
            marks.append(marks_of(state))
            lives.append(False)
            open_states.append(state)
            path.append((state, weight, iter(successors(state))))
            state = None
            while path:
                for weight, succ in path[-1][2]:
                    number = index.get(succ)
                    if number is None:
                        state = succ
                        break
                    if number < 0:
                        if succ in live:
                            lives[-1] = True
                        continue
                    while numbers[-1] > number:
                        numbers.pop()
                        places.pop()
                        merged = marks.pop()
                        marks[-1] |= merged
                        if lives.pop():
                            lives[-1] = True
                    if marks[-1] == all_marks:
                        if first:
                            root = numbers[-1]
                            # entry numbers increase along the search path
                            return path, index, root, bisect_left(
                                path, root, key=lambda entry: index[entry[0]])
                        lives[-1] = True
                else:
                    if numbers[-1] == index[path.pop()[0]]:
                        numbers.pop()
                        marks.pop()
                        place = places.pop()
                        component = open_states[place:]
                        del open_states[place:]
                        for closed in component:
                            index[closed] = -1
                        if lives.pop():
                            live.update(component)
                            if lives:
                                lives[-1] = True
                    continue
                break
    return None if first else frozenset(live)


def _lasso(graph, path, index, number, depth) -> AcceptingLasso:
    """The stem is the search path to the component's root, numbered
    ``number`` and at ``depth`` on the path; the cycle runs inside the
    component from the root, through a nearest state with a mark still
    missing until none is, and back to the root.  The component is the
    states of ``index`` numbered from ``number`` on."""
    stem = path[:depth + 1]
    root = stem[-1][0]
    steps = []
    here, marks = root, graph.marks(root)
    while marks != graph.all_marks:
        steps += _steps_within(graph, here, index, number,
                               lambda state: graph.marks(state) & ~marks)
        here = steps[-1][1]
        marks |= graph.marks(here)
    steps += _steps_within(graph, here, index, number,
                           lambda state: state == root)
    return AcceptingLasso(stem_states=tuple(s for s, _, _ in stem),
                          stem_weights=tuple(w for _, w, _ in stem[1:]),
                          cycle_steps=tuple(steps))


def _steps_within(graph, source, index, first, goal) -> list:
    """The ``(weight, state)`` steps of a shortest path of one step or more
    from ``source`` to a state meeting ``goal``, inside the strongly
    connected component of the states that ``index`` numbers ``first`` or
    later."""
    parent = {}
    queue = [source]
    for state in queue:
        for weight, succ in graph.successors(state):
            if index.get(succ, -1) < first or succ in parent:
                continue
            if goal(succ):
                steps = [(weight, succ)]
                while state != source:
                    weight, previous = parent[state]
                    steps.append((weight, state))
                    state = previous
                return steps[::-1]
            parent[succ] = (weight, state)
            queue.append(succ)


# --- projection back to timed plans -----------------------------------------


@dataclass
class PlanBundle:
    agent_names: tuple
    runs: tuple  # TimedRun per agent
    words: tuple  # LassoTimedWord per agent
    collective_run: CollectiveRun
    collective_word: LassoTimedWord
    verdicts: tuple  # the description of each check the plan passed


class ProjectionError(Exception):
    """A projected plan failed re-validation; this indicates a bug, not bad
    input."""


def project_plan(lasso: AcceptingLasso, problem, factor: int) -> PlanBundle:
    """Peel a global-product lasso into per-agent runs, rebuild all words,
    and re-validate every formula and automaton of ``problem`` (a
    ``cli.PlanningProblem``) against them: each agent's, then the team's.
    The bundle's ``verdicts`` describe these checks, all of which passed; a
    failed one raises :class:`ProjectionError`, so no bundle is returned.

    ``factor`` is the one the products' durations were multiplied by; the
    runs and words count their ticks in units of ``1 / factor``.
    """
    states = lasso.path_states()
    weights = lasso.path_weights()
    team_states = [s.node for s in states]
    loop = len(lasso.stem_states) - 1
    period = lasso.cycle_weight

    stamps = [0]
    for w in weights:
        stamps.append(stamps[-1] + w)

    agents = problem.agents
    names = tuple(agent.name for agent in agents)
    vectors = [tuple(component.node for component in ts.components)
               for ts in team_states]
    # the final path position repeats the cycle head one period later
    collective = CollectiveRun.from_ticks(vectors[:-1], loop, stamps[:-1],
                                          period, factor)

    runs = []
    for k, name in enumerate(names):
        # agent k is at a state of its own run where it has no move in
        # flight, which includes position 0: it opens the cycle when the stem
        # is the initial state alone
        settled = [i for i in range(len(team_states) - 1)
                   if not team_states[i].targets[k]]
        if settled[-1] < loop:
            raise ProjectionError(
                f"agent {name} never completes a transition inside the cycle")
        runs.append(TimedRun.from_ticks(
            [vectors[i][k] for i in settled],
            sum(1 for i in settled if i < loop),
            [stamps[i] for i in settled], period, factor))

    words = tuple(timed_word_of(agent.system, run)
                  for agent, run in zip(agents, runs))
    collective_word = collective_word_of(
        [agent.system for agent in agents], collective)

    checks = [(agent.name, agent.formula, agent.automaton, word)
              for agent, word in zip(agents, words)]
    checks.append(("team", problem.global_formula, problem.global_automaton,
                   collective_word))
    results = []
    for name, formula, automaton, word in checks:
        if formula is not None:
            results.append((f"{name}: {format_formula(formula)}",
                            satisfies(word, formula)))
        results.append((f"{name}: timed automaton membership",
                        accepts_lasso(automaton, word)))
    failing = [description for description, passed in results if not passed]
    if failing:
        raise ProjectionError(
            "projected plan failed re-validation: " + "; ".join(failing))
    return PlanBundle(agent_names=names, runs=tuple(runs), words=words,
                      collective_run=collective,
                      collective_word=collective_word,
                      verdicts=tuple(d for d, _ in results))
