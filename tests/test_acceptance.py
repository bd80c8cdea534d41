"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS line when it gets through its assertions (run with ``-s`` or
``-v`` to see them).  Everything numeric is exact rational arithmetic; the
only tolerances are wall-clock and state-count budgets.
"""

import itertools
import json
import random
import time
from fractions import Fraction as Q
from heapq import heappop, heappush
from pathlib import Path

from mitlplan.cli import AgentSpec, PlanningProblem, load_problem, main, solve
from mitlplan.core import INFINITY, LassoTimedWord, TimeInterval
from mitlplan.mitl import (Always, And, Atom, Eventually, Next, Not, Until,
                           parse_formula, satisfies)
from mitlplan.search import find_accepting_lasso
from mitlplan.tba import accepts_lasso, translate_mitl
from mitlplan.wts import (WeightedTransitionSystem, collective_run,
                          collective_word_of, grid_system, timed_word_of)
from oracles import (ExplicitGraph, enumerate_timed_runs, random_agent_system,
                     random_buchi_graph, random_fragment_formula,
                     random_lasso_word, random_propositional,
                     scc_has_accepting_cycle, zero_based_interval,
                     random_interval)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(number: int, title: str):
    print(f"\n[criterion {number}] {title}: PASS")


class TestCriterion1CollectiveRun:
    def test_merge_reproduces_the_reference_stamps_and_vectors(self, tmp_path, capsys):
        started = time.monotonic()
        code = main([
            "simulate",
            "--model", str(FIXTURES / "two_agent_chain_model.json"),
            "--runs", str(FIXTURES / "two_agent_chain_runs.json"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:8]
        parsed = [row.split(",") for row in rows]
        assert [r[0] for r in parsed] == ["0", "1", "2", "5/2", "3", "9/2", "5"]
        assert [tuple(r[2:4]) for r in parsed] == [
            ("p1", "p1"), ("p2", "p1"), ("p2", "p2"), ("p3", "p3"),
            ("p2", "p3"), ("p2", "p2"), ("p1", "p3")]

        from mitlplan.cli import load_model, load_runs
        model = load_model(FIXTURES / "two_agent_chain_model.json")
        runs = load_runs(FIXTURES / "two_agent_chain_runs.json")
        merged = collective_run([runs["r1"], runs["r2"]])
        word = collective_word_of([model["r1"], model["r2"]], merged)
        assert word.unroll(1)[:7] == (
            (frozenset({"green"}), Q(0)), (frozenset(), Q(1)),
            (frozenset(), Q(2)), (frozenset({"red"}), Q(5, 2)),
            (frozenset({"red"}), Q(3)), (frozenset(), Q(9, 2)),
            (frozenset({"green", "red"}), Q(5)))
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        report(1, "collective run and word match the reference trace exactly")


class TestCriterion2LocalVersusCollective:
    def test_check_separates_agent_and_team_verdicts(self, capsys):
        started = time.monotonic()
        code = main([
            "check",
            "--model", str(FIXTURES / "two_agent_chain_model.json"),
            "--runs", str(FIXTURES / "two_agent_chain_runs.json"),
            "--formula", "r2: G(red -> X G[<=2] !red)",
            "--formula", "team: G(red -> X G[<=2] !red)",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r2: G (red -> X G[0,2] !red) -> SATISFIED"
        # the violation anchors at the first red of the back-to-back pair
        # at times 5/2 and 3
        assert lines[1] == ("team: G (red -> X G[0,2] !red) -> VIOLATED "
                            "at position 3 (time 5/2)")
        assert time.monotonic() - started < 1.0
        report(2, "the same formula holds per-agent yet fails on the team word")


def _letters_with(word: LassoTimedWord, *atoms):
    return [(letter, stamp) for letter, stamp in word.unroll(2)
            if all(a in letter for a in atoms)]


class TestCriterion3GridCaseStudy:
    def test_grid_plan_meets_all_deadlines(self, tmp_path):
        started = time.monotonic()
        code = main(["plan", str(FIXTURES / "grid_meet.json"),
                     "--out-dir", str(tmp_path)])
        elapsed = time.monotonic() - started
        assert code == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["status"] == "success"
        assert len(plan["verdicts"]) >= 5
        assert all(v["satisfied"] for v in plan["verdicts"])

        def events(word_json):
            out = []
            for letter, stamp in word_json["prefix"] + word_json["cycle"]:
                out.append((set(letter), Q(stamp)))
            return out

        agent_words = {a["name"]: events(a["word"]) for a in plan["agents"]}
        assert min(t for letter, t in agent_words["r1"]
                   if "recharge1" in letter) <= 6
        assert min(t for letter, t in agent_words["r2"]
                   if "recharge2" in letter) <= 12
        team_events = events(plan["collective"]["word"])
        meet_times = [t for letter, t in team_events
                      if {"meet1A", "meet2A"} <= letter
                      or {"meet1B", "meet2B"} <= letter]
        assert meet_times and min(meet_times) <= 30

        explored = (plan["statistics"]["globalLayer"]["states"]
                    + plan["statistics"]["teamLayer"]["states"])
        assert explored < 5_000_000
        # byte for byte the artifacts pinned for this fixture
        for name in ("plan.json", "trace.csv", "timeline.svg"):
            assert (tmp_path / name).read_bytes() == (
                FIXTURES / "expected" / "grid_meet" / name).read_bytes(), name
        assert elapsed < 60.0
        report(3, f"grid case study solved in {elapsed:.1f}s, "
                  f"{explored} product states")


    def test_three_robots_meet_within_the_team_deadline(self, tmp_path,
                                                         capsys):
        # fixtures/grid_meet_three.json adds a third robot to the case
        # study; without pruning its global layer has 30,475 states
        code = main(["plan", str(FIXTURES / "grid_meet_three.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        verdicts = capsys.readouterr().out.splitlines()[1:]
        assert len(verdicts) == 8
        assert all(line.startswith("  [ok] ") for line in verdicts)
        for name in ("plan.json", "trace.csv", "timeline.svg"):
            assert (tmp_path / name).read_bytes() == (
                FIXTURES / "expected" / "grid_meet_three" / name
            ).read_bytes(), name
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["statistics"]["globalLayer"]["states"] < 5_000
        report(3, "three robots meet within the team deadline")


def _grid_shortest_time(system, start: str, goal: str) -> Q:
    distances = {start: Q(0)}
    queue = [(Q(0), start)]
    while queue:
        d, here = heappop(queue)
        if here == goal:
            return d
        if d > distances[here]:
            continue
        for weight, there in system.successors(here):
            nd = d + weight
            if there not in distances or nd < distances[there]:
                distances[there] = nd
                heappush(queue, (nd, there))
    raise AssertionError(f"{goal} is unreachable from {start}")


class TestCriterion4NegativeControl:
    def test_tightened_deadline_is_unsatisfiable(self, tmp_path):
        started = time.monotonic()
        data = json.loads((FIXTURES / "grid_meet.json").read_text())
        data["agents"][0]["formula"] = "F[<=1] recharge1"
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(data))
        code = main(["plan", str(tight), "--out-dir", str(tmp_path)])
        assert code == 1
        assert time.monotonic() - started < 60.0

        # brute-force shortest path confirms the recharge cell is farther
        # than one time unit from the start
        system = grid_system(
            rows=3, cols=7,
            move_weights={"up": Q(1), "right": Q(1), "down": Q(2), "left": Q(2)},
            labels={"p9": ["recharge1"]}, initial=["p4"])
        assert _grid_shortest_time(system, "p4", "p9") > 1
        report(4, "tightened recharge deadline correctly unsatisfiable")

    def test_a_missed_team_deadline_prunes_the_global_layer(self, tmp_path):
        # the robots cannot meet by time 7; the waiting location's
        # deadline stops every run there, where without it the search
        # explored 10,148 global states
        data = json.loads((FIXTURES / "grid_meet.json").read_text())
        data["global"]["formula"] = data["global"]["formula"].replace(
            "F[<=30]", "F[<=7]")
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps(data))
        assert main(["plan", str(tight), "--out-dir", str(tmp_path)]) == 1
        outcome = solve(load_problem(tight))
        assert outcome.status == "unsatisfiable"
        assert outcome.statistics["globalLayer"]["states"] <= 400


class TestCriterion5OracleAutomatonAgreement:
    def test_every_construction_agrees_with_the_evaluator(self):
        rng = random.Random(20250808)
        atoms = ["p", "q"]
        words = [random_lasso_word(rng, atoms) for _ in range(200)]

        def beta():
            return random_propositional(rng, atoms)

        untimed = TimeInterval(Q(0), INFINITY, True, False)
        formulas = []
        for _ in range(4):
            formulas.append(Eventually(random_interval(rng, rng.random() < 0.8),
                                       beta()))
            formulas.append(Always(random_interval(rng, rng.random() < 0.8),
                                   beta()))
            formulas.append(Until(random_interval(rng, rng.random() < 0.8),
                                  beta(), beta()))
            formulas.append(Next(random_interval(rng, rng.random() < 0.8),
                                 beta()))
            b = beta()
            formulas.append(Always(untimed, Not(And(b, Not(
                Next(untimed, Always(zero_based_interval(rng), Not(b))))))))
            formulas.append(Always(untimed,
                                   Eventually(zero_based_interval(rng), beta())))
        for _ in range(4):
            formulas.append(And(random_fragment_formula(rng, atoms, allow_and=False),
                                random_fragment_formula(rng, atoms,
                                                        allow_and=False)))

        mismatches = 0
        checks = 0
        for formula in formulas:
            automaton = translate_mitl(formula, alphabet=set(atoms))
            for word in words:
                checks += 1
                if accepts_lasso(automaton, word) != satisfies(word, formula):
                    mismatches += 1
        assert checks >= 200 * len(formulas)
        assert mismatches == 0
        report(5, f"membership matched the evaluator on {checks} "
                  f"word/construction pairs")


def _random_instance(rng: random.Random):
    s1 = random_agent_system(rng, "a")
    s2 = random_agent_system(rng, "b")
    f1 = random_fragment_formula(rng, ["a"], allow_and=False)
    f2 = random_fragment_formula(rng, ["b"], allow_and=False)
    fg = random_fragment_formula(rng, ["a", "b"], allow_and=False)
    return (s1, s2), (f1, f2), fg


def _self_loop_instances():
    """One agent on one state with a self-loop: the accepting cycle passes
    through the initial state, so the lasso's stem is that state alone."""
    true = parse_formula("true")
    for weight, atoms, formula, team in (
            (Q(1), (), true, true),
            (Q(1), ("a",), parse_formula("G F[<=1] a"),
             parse_formula("G F[<=2] a")),
            (Q(1, 2), ("a",), parse_formula("G F[<=1/2] a"), true)):
        loop = WeightedTransitionSystem(
            states=("s",), initial=frozenset({"s"}),
            weights={("s", "s"): weight},
            atoms=frozenset(atoms), labels={"s": set(atoms)})
        yield (loop,), (formula,), team


def _pipeline_problem(systems, formulas, fg):
    agents = tuple(
        AgentSpec(name=f"agent{k}", system=system, formula=formula,
                  automaton=translate_mitl(formula, alphabet=system.atoms))
        for k, (system, formula) in enumerate(zip(systems, formulas)))
    union = frozenset().union(*(system.atoms for system in systems))
    return PlanningProblem(
        agents=agents, global_formula=fg,
        global_automaton=translate_mitl(fg, alphabet=union),
        state_budget=400_000)


def _enumerator_finds_bundle(systems, formulas, fg) -> bool:
    satisfying = []
    for system, formula in zip(systems, formulas):
        runs = [r for r in enumerate_timed_runs(system, max_stem=3, max_cycle=3)
                if satisfies(timed_word_of(system, r), formula)]
        if not runs:
            return False
        satisfying.append(runs)
    for runs in itertools.product(*satisfying):
        word = collective_word_of(systems, collective_run(runs))
        if satisfies(word, fg):
            return True
    return False


class TestCriterion6SoundnessSuite:
    def test_random_small_instances(self):
        rng = random.Random(606)
        instances = [_random_instance(rng) for _ in range(100)]
        instances.extend(_self_loop_instances())
        successes = 0
        unsatisfiables = 0
        stemless = 0
        for trial, (systems, formulas, fg) in enumerate(instances):
            outcome = solve(_pipeline_problem(systems, formulas, fg))
            assert outcome.status in ("success", "unsatisfiable"), trial
            if outcome.status == "success":
                successes += 1
                bundle = outcome.bundle
                stemless += not bundle.collective_run.prefix
                # full re-validation: runs replay on the systems, words
                # satisfy the formulas, automata accept the words
                for run, word, system, formula in zip(
                        bundle.runs, bundle.words, systems, formulas):
                    run.validate_for(system)
                    assert satisfies(word, formula), trial
                    assert accepts_lasso(
                        translate_mitl(formula, alphabet=system.atoms),
                        word), trial
                union = frozenset().union(*(s.atoms for s in systems))
                assert satisfies(bundle.collective_word, fg), trial
                assert accepts_lasso(translate_mitl(fg, alphabet=union),
                                     bundle.collective_word), trial
            else:
                unsatisfiables += 1
                assert not _enumerator_finds_bundle(systems, formulas,
                                                    fg), trial
        assert successes + unsatisfiables == len(instances)
        assert stemless >= 3  # the self-loop instances at least
        report(6, f"{successes} plans fully re-validated ({stemless} with "
                  f"the cycle through the initial state), {unsatisfiables} "
                  f"unsatisfiable verdicts confirmed by enumeration")


def _scale_interval(interval: TimeInterval, factor: int) -> TimeInterval:
    upper = interval.upper if interval.unbounded else interval.upper * factor
    return TimeInterval(interval.lower * factor, upper,
                        interval.lower_closed, interval.upper_closed)


def _scale_formula(formula, factor: int):
    match formula:
        case Atom() :
            return formula
        case Not(operand):
            return Not(_scale_formula(operand, factor))
        case And(left, right):
            return And(_scale_formula(left, factor),
                       _scale_formula(right, factor))
        case Next(interval, operand):
            return Next(_scale_interval(interval, factor),
                        _scale_formula(operand, factor))
        case Eventually(interval, operand):
            return Eventually(_scale_interval(interval, factor),
                              _scale_formula(operand, factor))
        case Always(interval, operand):
            return Always(_scale_interval(interval, factor),
                          _scale_formula(operand, factor))
        case Until(interval, left, right):
            return Until(_scale_interval(interval, factor),
                         _scale_formula(left, factor),
                         _scale_formula(right, factor))
    return formula


class TestCriterion7ScalingInvariance:
    def test_corridor_plan_invariant_under_scaling(self):
        # the products count time in halves (weights 3/2 and 1/2); the plan
        # still comes back in exact rationals that replay on the systems
        # as loaded
        problem = load_problem(FIXTURES / "two_agent_chain_plan.json")
        outcome = solve(problem)
        assert outcome.status == "success"
        assert outcome.statistics["scalingFactor"] == 2
        bundle = outcome.bundle
        stamps = [t for run in bundle.runs
                  for _, t in run.prefix + run.cycle + ((None, run.period),)]
        assert all(isinstance(t, Q) for t in stamps)
        assert {t.denominator for t in stamps} == {1, 2}
        for agent, run in zip(problem.agents, bundle.runs):
            run.validate_for(agent.system)

    def test_grid_plan_invariant_under_scaling(self):
        problem = load_problem(FIXTURES / "grid_meet.json")
        outcome = solve(problem)
        assert outcome.status == "success"
        assert outcome.statistics["scalingFactor"] == 1
        for agent, run in zip(problem.agents, outcome.bundle.runs):
            assert all(isinstance(t, Q) for _, t in run.prefix + run.cycle)
            run.validate_for(agent.system)

    def test_explicitly_scaled_corridor_rescales_timestamps(self):
        base = load_problem(FIXTURES / "two_agent_chain_plan.json")
        factor = 2
        scaled_agents = []
        for agent in base.agents:
            formula = _scale_formula(agent.formula, factor)
            system = agent.system.scaled(factor)
            scaled_agents.append(AgentSpec(
                name=agent.name, system=system, formula=formula,
                automaton=translate_mitl(formula, alphabet=system.atoms)))
        union = frozenset().union(*(a.system.atoms for a in scaled_agents))
        gf = _scale_formula(base.global_formula, factor)
        doubled = PlanningProblem(
            agents=tuple(scaled_agents), global_formula=gf,
            global_automaton=translate_mitl(gf, alphabet=union),
            state_budget=base.state_budget)
        original = solve(base)
        rescaled = solve(doubled)
        assert original.status == rescaled.status == "success"
        for a, b in zip(original.bundle.runs, rescaled.bundle.runs):
            assert [(s, t * factor) for s, t in a.prefix] == list(b.prefix)
            assert [(s, t * factor) for s, t in a.cycle] == list(b.cycle)
            assert a.period * factor == b.period
        # the same checks pass; only the scaled deadline reads differently
        assert rescaled.bundle.verdicts == tuple(
            v.replace("F[0,10]", "F[0,20]") for v in original.bundle.verdicts)
        assert rescaled.bundle.verdicts != original.bundle.verdicts
        report(7, "verdicts and timestamps invariant under integer rescaling")


class TestCriterion8EmptinessOracle:
    def test_scc_search_matches_scc_on_500_graphs(self):
        rng = random.Random(808)
        agreements = 0
        for _ in range(500):
            states, initial, edges, marks = random_buchi_graph(rng, 50)
            graph = ExplicitGraph(initial=initial, edges=edges, marks=marks)
            got = find_accepting_lasso(graph) is not None
            expected = scc_has_accepting_cycle(
                initial, lambda s: edges.get(s, ()), marks, 1)
            assert got == expected
            agreements += 1
        assert agreements == 500
        report(8, "emptiness verdict matched SCC decomposition on 500 graphs")
