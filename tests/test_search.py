import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from mitlplan.cli import AgentSpec, PlanningProblem, load_problem, solve
from mitlplan.mitl import parse_formula, satisfies
from mitlplan.core import denominator_lcm
from mitlplan import search
from mitlplan.product import LocalProduct
from mitlplan.search import (ExplorationLimitError, ProjectionError,
                             find_accepting_lasso, has_accepting_run,
                             live_states)
from mitlplan.tba import accepts_lasso, translate_mitl
from mitlplan.wts import (WeightedTransitionSystem, collective_run,
                          collective_word_of, timed_word_of)
from oracles import (ExplicitGraph, enumerate_timed_runs, random_agent_system,
                     random_automaton, random_buchi_graph,
                     random_fragment_formula, scc_has_accepting_cycle)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_problem(systems, names, formulas, global_formula, budget=1_000_000):
    agents = []
    for system, name, text in zip(systems, names, formulas):
        formula = parse_formula(text)
        agents.append(AgentSpec(
            name=name, system=system, formula=formula,
            automaton=translate_mitl(formula, alphabet=system.atoms)))
    union = frozenset().union(*(s.atoms for s in systems))
    return PlanningProblem(
        agents=tuple(agents),
        global_formula=parse_formula(global_formula),
        global_automaton=translate_mitl(parse_formula(global_formula),
                                        alphabet=union),
        state_budget=budget,
    )


def corridor_systems():
    t1 = WeightedTransitionSystem(
        states=("p1", "p2", "p3"), initial=frozenset({"p1"}),
        weights={("p1", "p2"): Q(1), ("p2", "p1"): Q(2),
                 ("p2", "p3"): Q(3, 2), ("p3", "p2"): Q(1, 2)},
        atoms=frozenset({"green"}),
        labels={"p1": {"green"}, "p2": set(), "p3": set()})
    t2 = WeightedTransitionSystem(
        states=("p1", "p2", "p3"), initial=frozenset({"p1"}),
        weights={("p1", "p2"): Q(2), ("p2", "p1"): Q(3, 2),
                 ("p2", "p3"): Q(1, 2), ("p3", "p2"): Q(2)},
        atoms=frozenset({"red"}),
        labels={"p1": set(), "p2": set(), "p3": {"red"}})
    return t1, t2


def one_set(accepting):
    """The marks of a graph whose one acceptance set is ``accepting``."""
    return {state: 1 for state in accepting}


def random_graphs(rng, count, max_states=50):
    """``count`` random graphs each with 1, 2 and 3 acceptance sets, as
    ``(graph, initial, edges, marks)``."""
    for _ in range(count):
        for sets in (1, 2, 3):
            _, initial, edges, marks = random_buchi_graph(rng, max_states,
                                                          sets)
            graph = ExplicitGraph(initial=initial, edges=edges, marks=marks,
                                  all_marks=(1 << sets) - 1)
            yield graph, initial, edges, marks


class TestNestedDfs:
    def test_reachable_accepting_self_loop(self):
        graph = ExplicitGraph(initial=[0], edges={0: [1], 1: [1]},
                              marks=one_set([1]))
        lasso = find_accepting_lasso(graph)
        assert lasso is not None
        assert lasso.stem_states == (0, 1)
        assert lasso.cycle_steps == ((Q(1), 1),)
        assert lasso.head == 1

    def test_accepting_state_without_cycle(self):
        graph = ExplicitGraph(initial=[0], edges={0: [1], 1: [2], 2: []},
                              marks=one_set([1]))
        assert find_accepting_lasso(graph) is None

    def test_cycle_must_contain_the_accepting_state(self):
        graph = ExplicitGraph(initial=[0],
                              edges={0: [1], 1: [0], 2: [2]},
                              marks=one_set([2]))
        assert find_accepting_lasso(graph) is None

    def test_cycle_through_blue_path(self):
        # the cycle closes on a state still on the search path; the head is
        # the root of its component, the state of it entered first
        graph = ExplicitGraph(initial=[0],
                              edges={0: [1], 1: [2], 2: [3], 3: [1]},
                              marks=one_set([3]))
        lasso = find_accepting_lasso(graph)
        assert lasso is not None
        cycle = [s for _, s in lasso.cycle_steps]
        assert set(cycle) == {1, 2, 3}
        assert lasso.head == 1

    def test_a_cycle_visits_a_state_of_every_set(self):
        # 0 <-> 1 <-> 2 with set 0 at 0 and set 1 at 2: the cycle from the
        # root 0 reaches 2 and comes back
        graph = ExplicitGraph(initial=[0], edges={0: [1], 1: [0, 2], 2: [1]},
                              marks={0: 0b01, 2: 0b10}, all_marks=0b11)
        lasso = find_accepting_lasso(graph)
        assert lasso.stem_states == (0,)
        assert [s for _, s in lasso.cycle_steps] == [1, 2, 1, 0]

    def test_sets_on_separate_cycles_do_not_accept(self):
        graph = ExplicitGraph(initial=[0], edges={0: [1, 2], 1: [1], 2: [2]},
                              marks={1: 0b01, 2: 0b10}, all_marks=0b11)
        assert find_accepting_lasso(graph) is None
        assert live_states(graph) == frozenset()

    def test_budget_enforced(self):
        graph = ExplicitGraph(initial=[0],
                              edges={i: [i + 1] for i in range(100)} | {100: []},
                              marks={})
        with pytest.raises(ExplorationLimitError) as info:
            find_accepting_lasso(graph, state_budget=10)
        assert info.value.states_explored == 11

    def test_matches_scc_oracle_on_random_graphs(self):
        rng = random.Random(123)
        found = [0, 0, 0, 0]
        for graph, initial, edges, marks in random_graphs(rng, 150):
            got = find_accepting_lasso(graph) is not None
            expected = scc_has_accepting_cycle(
                initial, lambda s: edges.get(s, ()), marks, graph.all_marks)
            assert got == expected
            assert has_accepting_run(graph) == expected
            found[graph.all_marks.bit_length()] += got
        assert min(found[1:]) > 10, found

    def test_extracted_lasso_is_well_formed(self):
        rng = random.Random(77)
        for graph, initial, edges, marks in random_graphs(rng, 80):
            lasso = find_accepting_lasso(graph)
            if lasso is None:
                continue
            assert lasso.stem_states[0] in initial
            path = list(lasso.stem_states)
            for here, there in zip(path, path[1:]):
                assert there in edges[here]
            cursor = lasso.head
            covered = 0
            for _, nxt in lasso.cycle_steps:
                assert nxt in edges[cursor]
                cursor = nxt
                covered |= graph.marks(nxt)
            assert cursor == lasso.head
            assert covered == graph.all_marks

    def test_deterministic_across_runs(self):
        rng = random.Random(9)
        for graph, _, _, _ in random_graphs(rng, 1):
            first = find_accepting_lasso(graph)
            second = find_accepting_lasso(graph)
            assert first == second


def _live_by_oracle(graph):
    """The reachable states of ``graph`` from which the SCC oracle finds a
    reachable accepting cycle."""
    reached = set(graph.initial_states())
    frontier = list(reached)
    while frontier:
        for _, succ in graph.successors(frontier.pop()):
            if succ not in reached:
                reached.add(succ)
                frontier.append(succ)
    marks = {state: graph.marks(state) for state in reached}

    def successors(state):
        return [succ for _, succ in graph.successors(state)]

    return {state for state in reached
            if scc_has_accepting_cycle([state], successors, marks,
                                       graph.all_marks)}


class TestLiveStates:
    def test_states_that_reach_an_accepting_cycle(self):
        # 0 -> 1 -> 2 <-> 3 (3 accepting), 1 -> 4 <-> 5 (no acceptance),
        # 1 -> 6 (accepting, no cycle)
        graph = ExplicitGraph(
            initial=[0],
            edges={0: [1], 1: [2, 4, 6], 2: [3], 3: [2], 4: [5], 5: [4]},
            marks=one_set([3, 6]))
        assert live_states(graph) == {0, 1, 2, 3}

    def test_accepting_self_loop_is_a_cycle(self):
        graph = ExplicitGraph(initial=[0], edges={0: [1, 2], 1: [1]},
                              marks=one_set([1, 2]))
        assert live_states(graph) == {0, 1}

    def test_unreachable_states_are_not_live(self):
        graph = ExplicitGraph(initial=[0], edges={0: [0], 1: [1]},
                              marks=one_set([0, 1]))
        assert live_states(graph) == {0}

    def test_budget_enforced(self):
        graph = ExplicitGraph(initial=[0],
                              edges={i: [i + 1] for i in range(100)} | {100: []},
                              marks={})
        with pytest.raises(ExplorationLimitError) as info:
            live_states(graph, state_budget=10)
        assert info.value.states_explored == 11
        assert live_states(graph, state_budget=101) == frozenset()

    def test_matches_scc_oracle_on_random_graphs(self):
        rng = random.Random(321)
        for trial, (graph, _, _, _) in enumerate(random_graphs(rng, 300, 30)):
            live = live_states(graph)
            assert live == _live_by_oracle(graph), trial
            assert (not live) == (find_accepting_lasso(graph) is None)

    def test_matches_scc_oracle_on_random_local_products(self):
        # small systems whose weights come in halves, paired with random
        # automata (guards, invariants, resets and labels over two clocks)
        # and with translated formulas; the random ones are mostly empty
        rng = random.Random(55)
        letters = [frozenset(), frozenset({"p"})]
        nonempty = trimmed = 0
        for trial in range(200):
            system = random_agent_system(rng, "p")
            if trial % 2:
                automaton = random_automaton(rng, letters, size=3)
            else:
                automaton = translate_mitl(
                    random_fragment_formula(rng, ["p"]), alphabet={"p"})
            factor = denominator_lcm(
                [*system.weights.values(), *automaton.constants()])
            local = LocalProduct(system.scaled(factor),
                                 automaton.scaled(factor))
            live = live_states(local)
            assert live == _live_by_oracle(local), trial
            assert (not live) == (find_accepting_lasso(local) is None), trial
            nonempty += bool(live)
            trimmed += 0 < len(live) < local.statistics()["states"]
        assert nonempty > 40 and trimmed > 10


class TestDeepPaths:
    """A path of 100,000 states that closes into a cycle over its second
    half: the pass and the lasso it finds hold the whole path without
    recursion."""

    LENGTH = 100_000

    def chain(self, marked):
        last = self.LENGTH - 1
        edges = {i: [i + 1] for i in range(last)} | {last: [self.LENGTH // 2]}
        return ExplicitGraph(initial=[0], edges=edges, marks=one_set([marked]))

    def test_a_mark_on_the_cycle_accepts(self):
        graph = self.chain(marked=3 * self.LENGTH // 4)
        assert has_accepting_run(graph)
        assert live_states(graph) == frozenset(range(self.LENGTH))
        lasso = find_accepting_lasso(graph)
        assert lasso.stem_states == tuple(range(self.LENGTH // 2 + 1))
        assert [s for _, s in lasso.cycle_steps] == [
            *range(self.LENGTH // 2 + 1, self.LENGTH), self.LENGTH // 2]

    def test_a_mark_on_the_stem_does_not(self):
        graph = self.chain(marked=self.LENGTH // 4)
        assert not has_accepting_run(graph)
        assert live_states(graph) == frozenset()
        assert find_accepting_lasso(graph) is None


class TestPlanPipeline:
    def corridor_problem(self):
        t1, t2 = corridor_systems()
        return make_problem(
            [t1, t2], ["r1", "r2"],
            ["G F[<=10] green", "F red"],
            "F (green & red)")

    def test_corridor_plan_contains_the_joint_visit(self):
        outcome = solve(self.corridor_problem())
        assert outcome.status == "success"
        bundle = outcome.bundle
        assert bundle.verdicts == (
            "r1: G F[0,10] green", "r1: timed automaton membership",
            "r2: F red", "r2: timed automaton membership",
            "team: F (green & red)", "team: timed automaton membership")
        assert any("green" in atoms and "red" in atoms
                   for atoms, _ in bundle.collective_word.unroll(2))

    def test_a_plan_the_team_automaton_rejects_raises(self, monkeypatch):
        problem = self.corridor_problem()
        monkeypatch.setattr(
            search, "accepts_lasso",
            lambda automaton, word: (automaton is not problem.global_automaton
                                     and accepts_lasso(automaton, word)))
        with pytest.raises(ProjectionError) as raised:
            solve(problem)
        assert str(raised.value) == (
            "projected plan failed re-validation: "
            "team: timed automaton membership")

    def test_a_plan_violating_one_formula_raises_naming_it(self, monkeypatch):
        problem = self.corridor_problem()
        red = problem.agents[1].formula
        monkeypatch.setattr(
            search, "satisfies",
            lambda word, formula: formula is not red and satisfies(word, formula))
        with pytest.raises(ProjectionError) as raised:
            solve(problem)
        assert str(raised.value) == (
            "projected plan failed re-validation: r2: F red")

    def test_single_agent_trivial_goal(self):
        t1, _ = corridor_systems()
        problem = make_problem([t1], ["solo"], ["true"], "F[0,inf) true")
        outcome = solve(problem)
        assert outcome.status == "success"
        run = outcome.bundle.runs[0]
        run.validate_for(t1)

    def test_projection_replays_through_the_merge(self):
        t1, t2 = corridor_systems()
        problem = make_problem(
            [t1, t2], ["r1", "r2"],
            ["G F[<=10] green", "F red"],
            "F (green & red)")
        bundle = solve(problem).bundle
        for run, system in zip(bundle.runs, (t1, t2)):
            run.validate_for(system)
        merged = collective_run(list(bundle.runs))
        horizon = 12
        assert (merged.unroll(6)[:horizon]
                == bundle.collective_run.unroll(6)[:horizon])
        word = collective_word_of([t1, t2], merged)
        assert (word.unroll(6)[:horizon]
                == bundle.collective_word.unroll(6)[:horizon])

    def test_verdicts_reference_oracle_and_automata(self):
        t1, t2 = corridor_systems()
        problem = make_problem(
            [t1, t2], ["r1", "r2"],
            ["G F[<=10] green", "F red"],
            "F (green & red)")
        bundle = solve(problem).bundle
        for k, system in enumerate((t1, t2)):
            word = timed_word_of(system, bundle.runs[k])
            assert satisfies(word, problem.agents[k].formula)
            assert accepts_lasso(problem.agents[k].automaton, word)
        assert satisfies(bundle.collective_word, problem.global_formula)
        assert accepts_lasso(problem.global_automaton, bundle.collective_word)

    def test_unsatisfiable_when_deadline_is_unmeetable(self):
        t1, t2 = corridor_systems()
        problem = make_problem(
            [t1, t2], ["r1", "r2"],
            ["G F[<=10] green", "F[0,1] red"],  # red is 5/2 away at best
            "F (green & red)")
        outcome = solve(problem)
        assert outcome.status == "unsatisfiable"
        runs = enumerate_timed_runs(t2, max_stem=3, max_cycle=3)
        assert not any(satisfies(timed_word_of(t2, run),
                                 parse_formula("F[0,1] red")) for run in runs)

    def test_an_agent_without_live_states_is_named_and_no_team_state_built(
            self):
        t1, t2 = corridor_systems()
        problem = make_problem(
            [t1, t2], ["r1", "r2"], ["G F[<=10] green", "F[0,1] red"],
            "F (green & red)")
        outcome = solve(problem)
        assert outcome.status == "unsatisfiable"
        assert outcome.notes == ("agent r2: local specification is "
                                 "unsatisfiable on its own transition system",)
        first, second = outcome.statistics["localLayers"]
        assert first["live"] > 0 and second["live"] == 0
        assert outcome.statistics["teamLayer"]["states"] == 0

    def test_an_agent_without_initial_states_is_named_once(self, tmp_path):
        data = json.loads((FIXTURES / "two_agent_chain_plan.json").read_text())
        data["agents"][1]["formula"] = "red"  # r2 starts in p1, not red
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        outcome = solve(load_problem(path))
        assert outcome.status == "unsatisfiable"
        assert outcome.notes == (
            "agent r2: no initial state matches the automaton; the local "
            "specification is unsatisfiable from the start",)

    def test_determinism_of_the_full_pipeline(self):
        t1, t2 = corridor_systems()

        def run_once():
            problem = make_problem(
                [t1, t2], ["r1", "r2"],
                ["G F[<=10] green", "F red"], "F (green & red)")
            bundle = solve(problem).bundle
            return ([r.prefix for r in bundle.runs],
                    [r.cycle for r in bundle.runs],
                    bundle.collective_run.cycle)

        assert run_once() == run_once()
