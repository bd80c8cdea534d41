import json
import random
from collections import Counter
from fractions import Fraction as Q
from math import inf
from operator import le, lt
from pathlib import Path

import pytest

from mitlplan import cli
from mitlplan.core import denominator_lcm
from mitlplan.mitl import (Atom, Not, parse_constraint, parse_formula,
                           satisfies)
from mitlplan.product import (AutomatonProduct, GlobalProduct, LocalProduct,
                              TeamProduct, TeamState, _deadlines)
from mitlplan.search import find_accepting_lasso, live_states
from mitlplan.tba import (TRUE, Edge, TimedBuchiAutomaton, translate_mitl,
                          universal_tba)
from mitlplan.wts import (TimedRun, WeightedTransitionSystem, grid_cells,
                          timed_word_of)
from oracles import (MemoizedGlobalProduct, MemoizedLocalProduct,
                     MemoizedTeamProduct, UnprunedGlobalProduct,
                     deadline_exits, enumerate_timed_runs,
                     least_exit_bound, random_fragment_formula,
                     scc_has_accepting_cycle, team_successor_key)


def tiny_system(labels, weights=None, atoms=None):
    weights = weights or {("a", "b"): Q(1), ("b", "a"): Q(2)}
    states = sorted({s for pair in weights for s in pair})
    atom_set = set(atoms or ())
    for label in labels.values():
        atom_set |= set(label)
    return WeightedTransitionSystem(
        states=tuple(states), initial=frozenset({states[0]}),
        weights=dict(weights),
        atoms=frozenset(atom_set),
        labels={s: frozenset(labels.get(s, ())) for s in states})


def chain_green():
    return WeightedTransitionSystem(
        states=("p1", "p2", "p3"), initial=frozenset({"p1"}),
        weights={("p1", "p2"): Q(1), ("p2", "p1"): Q(2),
                 ("p2", "p3"): Q(3, 2), ("p3", "p2"): Q(1, 2)},
        atoms=frozenset({"green"}),
        labels={"p1": {"green"}, "p2": set(), "p3": set()})


def shuttle_red():
    return WeightedTransitionSystem(
        states=("q1", "q2"), initial=frozenset({"q1"}),
        weights={("q1", "q2"): Q(2), ("q2", "q1"): Q(2)},
        atoms=frozenset({"red"}), labels={"q1": set(), "q2": {"red"}})


def local_product(system, automaton, factor=None):
    """The layer-1 product in integer time, as ``solve`` builds it: on the
    ``scaled`` copies of ``system`` and ``automaton``.  ``factor`` must
    clear every denominator of the weights and the constants, and the
    agents of one team share it; by default it is the least that does."""
    least = denominator_lcm([*system.weights.values(),
                             *automaton.constants()])
    assert factor is None or factor % least == 0, (factor, least)
    factor = factor or least
    return LocalProduct(system.scaled(factor), automaton.scaled(factor))


def team_of(locals_):
    """The team layer over ``locals_``, each trimmed to its live states as
    ``solve`` trims them."""
    return TeamProduct(locals_, [live_states(local) for local in locals_])


def recurring_team():
    """Two agents that each see their colour within a deadline, again and
    again; in halves of a time unit, as ``chain_green`` needs."""
    return team_of([
        local_product(chain_green(), translate_mitl(
            parse_formula("G F[0,10] green"), alphabet={"green"}), 2),
        local_product(shuttle_red(), translate_mitl(
            parse_formula("G F[0,8] red"), alphabet={"red"}), 2),
    ])


def reachable(graph):
    """Every state of ``graph`` reachable from an initial one."""
    seen = set(graph.initial_states())
    frontier = list(seen)
    while frontier:
        for _, succ in graph.successors(frontier.pop()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def run_of_local_lasso(system, lasso, factor):
    """Project a layer-1 lasso, built in ticks of ``1 / factor``, to the
    agent's timed run."""
    states = [s.node for s in lasso.path_states()]
    stamps = [Q(0)]
    for w in lasso.path_weights():
        stamps.append(stamps[-1] + Q(w, factor))
    stem_len = len(lasso.stem_states)
    prefix = tuple(zip(states[:stem_len - 1], stamps[:stem_len - 1]))
    cycle = tuple(zip(states[stem_len - 1:-1], stamps[stem_len - 1:-1]))
    return TimedRun(prefix=prefix, cycle=cycle,
                    period=Q(lasso.cycle_weight, factor))


class TestLocalProduct:
    def test_recurrence_on_the_corridor(self):
        system = chain_green()
        automaton = translate_mitl(parse_formula("G F[0,10] green"))
        product = local_product(system, automaton, 2)
        lasso = find_accepting_lasso(product)
        assert lasso is not None
        run = run_of_local_lasso(system, lasso, 2)
        run.validate_for(system)
        word = timed_word_of(system, run)
        assert satisfies(word, parse_formula("G F[0,10] green"))
        # the green region recurs within 10 time units along the cycle
        greens = [t for atoms, t in word.unroll(3) if "green" in atoms]
        assert greens and all(b - a <= 10 for a, b in zip(greens, greens[1:]))

    def test_universal_automaton_pairs_every_compatible_state(self):
        # the universal automaton's one location reads every letter, so
        # each region pairs with it once, whatever the region's letter
        system = tiny_system({"a": {"p"}})
        product = local_product(system, universal_tba({"p"}))
        seen = set()
        frontier = list(product.initial_states())
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            frontier.extend(s for _, s in product.successors(state))
        assert sorted((s.node, s.location) for s in seen) == [
            ("a", "any"), ("b", "any")]

    def test_guard_beyond_reach_blocks_all_steps(self):
        # single transition of weight 3 against a guard requiring x <= 2:
        # the clock has advanced past the guard when the step happens
        system = tiny_system({"a": set(), "b": {"p"}},
                             weights={("a", "b"): Q(3), ("b", "a"): Q(3)})
        automaton = translate_mitl(parse_formula("F[0,2] p"), alphabet={"p"})
        product = local_product(system, automaton)
        for initial in product.initial_states():
            targets = [s for _, s in product.successors(initial)]
            assert all(t.location.startswith("wait") for t in targets)
        assert find_accepting_lasso(product) is None

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(ValueError):
            LocalProduct(tiny_system({"a": {"p"}}), universal_tba({"q"}))

    def test_incompatible_initials_reported_not_raised(self):
        system = tiny_system({"a": {"p"}, "b": set()})
        automaton = translate_mitl(parse_formula("G[0,5] !p"), alphabet={"p"})
        product = local_product(system, automaton)
        assert not product.initial_states()
        assert find_accepting_lasso(product) is None

    def test_correspondence_with_enumerated_runs(self):
        # both directions on small systems: the product has an accepting
        # lasso exactly when some enumerated lasso run satisfies the formula
        rng = random.Random(31)
        systems = [
            chain_green(),
            tiny_system({"a": {"green"}}, atoms={"green"}),
            tiny_system({"b": {"green"}},
                        weights={("a", "b"): Q(1, 2), ("b", "b"): Q(2),
                                 ("b", "a"): Q(1)}, atoms={"green"}),
        ]
        for trial in range(25):
            system = systems[trial % len(systems)]
            formula = random_fragment_formula(rng, sorted(system.atoms))
            automaton = translate_mitl(formula, alphabet=system.atoms)
            factor = denominator_lcm([*system.weights.values(),
                                      *automaton.constants()])
            product = local_product(system, automaton, factor)
            product_lasso = find_accepting_lasso(product)
            runs = enumerate_timed_runs(system, max_stem=3, max_cycle=3)
            any_satisfying = any(
                satisfies(timed_word_of(system, run), formula) for run in runs)
            if product_lasso is not None:
                run = run_of_local_lasso(system, product_lasso, factor)
                assert satisfies(timed_word_of(system, run), formula)
            if any_satisfying:
                assert product_lasso is not None, (trial, formula)


class TestTeamProduct:
    def test_single_agent_degenerates_to_the_local_layer(self):
        system = chain_green()
        automaton = translate_mitl(parse_formula("G F[0,10] green"))
        local = local_product(system, automaton, 2)
        team = team_of([local])
        local_lasso = find_accepting_lasso(local)
        team_lasso = find_accepting_lasso(team)
        assert (local_lasso is None) == (team_lasso is None)
        for state in team.initial_states():
            assert state.components[0] in local.initial_states()
        # the team's marks are the single agent's acceptance
        assert team.all_marks == local.all_marks == 1
        states = reachable(team)
        assert len(states) > 5
        for state in states:
            assert team.marks(state) == local.marks(state.components[0])

    def test_smallest_step_completes_only_the_fastest_agent(self):
        fast = tiny_system({"a": set()}, weights={("a", "b"): Q(1), ("b", "a"): Q(1)})
        slow = tiny_system({"a": set()}, weights={("a", "b"): Q(2), ("b", "a"): Q(2)})
        nothing = universal_tba(frozenset())
        team = team_of([local_product(fast, nothing),
                            local_product(slow, nothing)])
        initial = team.initial_states()[0]
        steps = team.successors(initial)
        assert steps
        for weight, state in steps:
            assert weight == Q(1)
            assert state.remaining[0] == 0   # agent 1 completed
            assert state.remaining[1] == 1   # agent 2 has one unit left
            assert state.targets[0] == ()
            assert state.targets[1] != ()

    def test_tied_durations_complete_together(self):
        one = tiny_system({"a": set()}, weights={("a", "b"): Q(2), ("b", "a"): Q(2)})
        two = tiny_system({"a": set()}, weights={("a", "b"): Q(2), ("b", "a"): Q(2)})
        nothing = universal_tba(frozenset())
        team = team_of([local_product(one, nothing),
                            local_product(two, nothing)])
        initial = team.initial_states()[0]
        steps = team.successors(initial)
        assert steps
        for weight, state in steps:
            assert weight == Q(2)
            assert state.remaining == (0, 0)
            assert state.targets == ((), ())

    def test_deadlocked_agent_leaves_the_team_no_initial_state(self):
        # a run that stops accepts nothing: an agent that deadlocks from
        # every state has no live state, so the team has none to start in
        stuck = WeightedTransitionSystem(
            states=("a", "b"), initial=frozenset({"a"}),
            weights={("a", "b"): Q(1)},
            atoms=frozenset(), labels={})
        local = local_product(stuck, universal_tba(frozenset()))
        team = team_of([local])
        assert local.statistics()["states"] == 2
        assert team.live == (frozenset(),)
        assert team.initial_states() == ()
        assert find_accepting_lasso(team) is None

    def test_a_move_into_a_dead_end_is_never_taken(self):
        # from a the agent can move on to the dead end c, or back and forth
        # to b; only the move to b is live
        branching = WeightedTransitionSystem(
            states=("a", "b", "c"), initial=frozenset({"a"}),
            weights={("a", "b"): Q(1), ("b", "a"): Q(1), ("a", "c"): Q(1)},
            atoms=frozenset(), labels={})
        local = local_product(branching, universal_tba(frozenset()))
        team = team_of([local])
        assert {state.node for state in team.live[0]} == {"a", "b"}
        (initial,) = team.initial_states()
        assert [state.components[0].node
                for _, state in team.successors(initial)] == ["b"]
        assert [state.node for _, state in local.successors(
            initial.components[0])] == ["b", "c"]

    def test_cycle_hits_every_agents_accepting_set(self):
        team = recurring_team()
        assert team.all_marks == 0b11
        lasso = find_accepting_lasso(team, 100000)
        assert lasso is not None
        cycle_states = [s for _, s in lasso.cycle_steps]
        for k, local in enumerate(team.locals):
            assert any(local.marks(s.components[k]) for s in cycle_states)

    def test_time_consistency_with_the_collective_merge(self):
        g1 = chain_green()
        g2 = WeightedTransitionSystem(
            states=("q1", "q2"), initial=frozenset({"q1"}),
            weights={("q1", "q2"): Q(1, 2), ("q2", "q1"): Q(2)},
            atoms=frozenset({"red"}), labels={"q1": set(), "q2": {"red"}})
        locals_ = [local_product(g1, universal_tba({"green"}), 2),
                   local_product(g2, universal_tba({"red"}), 2)]
        team = team_of(locals_)
        # walk a fixed path and rebuild the runs it claims
        state = team.initial_states()[0]
        stamps = [Q(0)]
        events = [state]
        for _ in range(12):
            weight, state = team.successors(state)[0]
            stamps.append(stamps[-1] + weight)
            events.append(state)
        # completions must replay as valid runs, and merging those runs must
        # give back exactly the stamps the team path produced
        completion_stamps = set()
        for k in range(2):
            for i in range(1, len(events)):
                if events[i].remaining[k] == 0:
                    completion_stamps.add(stamps[i])
        assert completion_stamps == set(stamps[1:])


class TestGlobalProduct:
    def _team(self):
        """In halves of a time unit: the goals below are scaled by 2."""
        g1 = chain_green()
        local = local_product(g1, translate_mitl(
            parse_formula("G F[0,10] green"), alphabet={"green"}), 2)
        return team_of([local])

    def test_universal_goal_reduces_to_team_emptiness(self):
        team = self._team()
        universal = universal_tba({"green"})
        both = GlobalProduct(team, universal)
        assert (find_accepting_lasso(team) is None) \
            == (find_accepting_lasso(both) is None)

    def test_unreachable_guard_empties_the_language(self):
        team = self._team()
        # the corridor's fastest green-to-green loop takes 3 time units
        goal = translate_mitl(parse_formula("X[0,1/2] green"),
                              alphabet={"green"})
        both = GlobalProduct(team, goal.scaled(2))
        assert find_accepting_lasso(both, 100000) is None

    def test_a_cycle_carries_every_agents_mark_and_the_automatons(self):
        team = recurring_team()
        goal = translate_mitl(parse_formula("G F[0,12] (green & red)"),
                              alphabet={"green", "red"})
        both = GlobalProduct(team, goal.scaled(2))
        assert both.all_marks == 0b111
        lasso = find_accepting_lasso(both, 100000)
        assert lasso is not None
        cycle_states = [s for _, s in lasso.cycle_steps]
        for k, local in enumerate(team.locals):
            assert any(local.marks(s.node.components[k])
                       for s in cycle_states)
        assert any(s.location in goal.accepting[0] for s in cycle_states)
        covered = 0
        for state in cycle_states:
            covered |= both.marks(state)
        assert covered == both.all_marks

    def test_automata_of_several_sets_keep_their_marks_side_by_side(self):
        # agent 0 has two acceptance sets, agent 1 one, the team automaton
        # two: each layer shifts a part above the parts before it
        formulas = ("G F[0,10] green & G F[0,12] !green", "G F[0,8] red",
                    "G F[0,12] green & G F[0,12] red")
        automata = [translate_mitl(parse_formula(text)) for text in formulas]
        team = team_of([local_product(system, automaton, 2) for
                        system, automaton in zip(
                            (chain_green(), shuttle_red()), automata)])
        both = GlobalProduct(team, automata[2].scaled(2))
        assert (team.all_marks, both.all_marks) == (0b111, 0b11111)
        lasso = find_accepting_lasso(both, 100000)
        assert lasso is not None
        covered = 0
        for _, state in lasso.cycle_steps:
            local = [automaton.marks[c.location] for automaton, c
                     in zip(automata, state.node.components)]
            assert team.marks(state.node) == local[0] | local[1] << 2
            assert both.marks(state) == (team.marks(state.node)
                                         | automata[2].marks[state.location]
                                         << 3)
            covered |= both.marks(state)
        assert covered == both.all_marks

    def test_the_least_bound_of_two_deadlines_orders_the_successors(self):
        """From ``s`` the agent moves off green, to ``p2``, 4 half units
        from green, and the automaton enters ``one`` or ``two`` in that
        order.  Both locations' deadlines on ``x`` exit on green; ``two``
        has a second deadline, on ``y``, which its ``y``-resetting
        self-loop exits at once.  Its least exit bound is 0, so it comes
        first."""
        automaton = TimedBuchiAutomaton(
            locations=("s", "one", "two", "done"), initial={"s": TRUE},
            clocks=("x", "y"),
            invariants={"one": parse_constraint("x <= 50"),
                        "two": parse_constraint("x <= 50 & y <= 50")},
            edges=(Edge("s", TRUE, frozenset(), "one"),
                   Edge("s", TRUE, frozenset(), "two"),
                   Edge("one", TRUE, frozenset(), "done", Atom("green")),
                   Edge("two", TRUE, frozenset(), "done", Atom("green")),
                   Edge("two", TRUE, frozenset({"y"}), "two"),
                   Edge("done", TRUE, frozenset(), "done")),
            accepting=(frozenset({"done"}),), atoms=frozenset({"green"}))
        both = GlobalProduct(self._team(), automaton.scaled(1))
        (start,) = both.initial_states()
        built = AutomatonProduct.successors(both, start)
        assert [s.location for _, s in built] == ["one", "two"]
        assert [(s.location, s.node.components[0].node)
                for _, s in both.successors(start)] == [
            ("two", "p2"), ("one", "p2")]

    def test_a_strict_deadline_in_rational_time_raises(self):
        """``x < u`` admits ``u - 1`` and no more in integer time only: the
        team automaton must be the scaled one."""
        goal = translate_mitl(parse_formula("F[0,1/2) green"),
                              alphabet={"green"})
        with pytest.raises(ValueError, match="scaled automaton"):
            GlobalProduct(self._team(), goal)

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(ValueError):
            GlobalProduct(self._team(), universal_tba({"green", "zz"}))


class TestDeterminism:
    def test_rebuilding_reproduces_state_and_edge_counts(self):
        def build():
            system = chain_green()
            automaton = translate_mitl(parse_formula("G F[0,10] green"))
            product = local_product(system, automaton, 2)
            lasso = find_accepting_lasso(product)
            statistics = product.statistics()
            return statistics["states"], statistics["edges"], lasso

        first = build()
        second = build()
        assert first[:2] == second[:2]
        assert first[2].stem_states == second[2].stem_states
        assert first[2].cycle_steps == second[2].cycle_steps


class TestLiveTrimming:
    def test_every_team_state_on_grid_meet_is_built_from_live_states(
            self, monkeypatch):
        built = []

        class Recorded(TeamProduct):
            def __init__(self, locals_, live):
                super().__init__(locals_, live)
                built.append(self)

        monkeypatch.setattr(cli, "TeamProduct", Recorded)
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        outcome = cli.solve(cli.load_problem(fixtures / "grid_meet.json"))
        assert outcome.status == "success"
        (team,) = built
        # the global layer expands the team layer only below the states it
        # keeps, so the team graph is expanded here on its own
        checked = 0
        for team_state in reachable(team):
            for k, live in enumerate(team.live):
                assert team_state.components[k] in live
                target = team_state.targets[k]
                assert target == () or target in live
            checked += 1
        assert checked > 1000
        # the local layers were explored in full, and trimmed
        for local, live in zip(team.locals, team.live):
            assert 0 < len(live) < local.statistics()["states"]


def random_grid_problem(rng: random.Random) -> dict:
    """Two robots on grids of at most 3 by 4 cells, with random move
    weights, recharge and meeting cells and deadlines, and a team
    specification with a random deadline: a problem file's contents."""
    agents = []
    for n in (1, 2):
        rows, cols = rng.randint(1, 3), rng.randint(2, 4)
        cells = grid_cells(rows, cols)
        labels = {}
        for atom in (f"recharge{n}", f"meet{n}A", f"meet{n}B"):
            labels.setdefault(rng.choice(cells), []).append(atom)
        agents.append({
            "name": f"r{n}",
            "grid": {"rows": rows, "cols": cols, "labels": labels,
                     "moveWeights": {
                         move: rng.choice(["1/2", "1", "2", "3"])
                         for move in ("up", "right", "down", "left")}},
            "initial": [rng.choice(cells)],
            "formula": f"F[<={rng.randint(2, 12)}] recharge{n}"})
    deadline = rng.randint(1, 16)
    meet = "((meet1A & meet2A) | (meet1B & meet2B))"
    team = rng.choice([f"F[<={deadline}] {meet}",
                       f"G F[<={deadline}] {meet}",
                       f"!meet1B U[<={deadline}] (meet1A & meet2A)"])
    if rng.random() < 0.5:  # an open deadline, x < deadline
        team = team.replace(f"[<={deadline}]", f"[0,{deadline})")
    return {"agents": agents, "global": {"formula": team}}


def _expanded(layer) -> list:
    """The states that ``layer`` has expanded so far: the keys of the local
    layer's memo, or of the record of successor counts that the team and
    global layers keep instead."""
    return list(layer._memo if isinstance(layer, LocalProduct)
                else layer._edges)


def _misses_a_deadline(product: GlobalProduct, state) -> bool:
    """Whether an exit taken at the earliest time that the product's exit
    bounds allow breaks a deadline of the state's location."""
    clocks = product.automaton.clocks
    return any(
        not {"<": lt, "<=": le}[relation](
            state.valuation[clocks.index(clock)] + bound, constant)
        for clock, relation, constant, bound in deadline_exits(product, state))


def _reachable_edges(graph, roots):
    """The successor states of every state reachable from ``roots``, and
    the marks of those states."""
    edges, marks = {}, {}
    frontier = list(roots)
    while frontier:
        state = frontier.pop()
        if state in edges:
            continue
        edges[state] = [succ for _, succ in graph.successors(state)]
        marks[state] = graph.marks(state)
        frontier.extend(edges[state])
    return edges, marks


class _UnorderedGlobalProduct(GlobalProduct):
    """The global layer searched in construction order: the built initial
    states and successors less those that miss a deadline."""

    def initial_states(self):
        return tuple(state for state in AutomatonProduct.initial_states(self)
                     if not _misses_a_deadline(self, state))

    def successors(self, state):
        return tuple(pair for pair in AutomatonProduct.successors(self, state)
                     if not _misses_a_deadline(self, pair[1]))


class TestDeadlinePruning:
    def test_pruned_states_have_no_accepting_run_and_the_lasso_stays(
            self, tmp_path, monkeypatch):
        searched = []

        def recorded(graph, state_budget=None):
            lasso = find_accepting_lasso(graph, state_budget)
            searched.append((graph, lasso))
            return lasso

        monkeypatch.setattr(cli, "find_accepting_lasso", recorded)
        statuses = Counter()
        dropped_in_all = dropped_at_open_deadlines = 0
        for seed in range(60):
            path = tmp_path / f"{seed}.json"
            data = random_grid_problem(random.Random(seed))
            path.write_text(json.dumps(data))
            problem = cli.load_problem(path)
            searched.clear()
            outcome = cli.solve(problem)
            with monkeypatch.context() as patched:
                patched.setattr(cli, "GlobalProduct", UnprunedGlobalProduct)
                unpruned_outcome = cli.solve(problem)
            (pruned, lasso), (_, unpruned_lasso) = searched
            assert outcome.status == unpruned_outcome.status, seed
            assert lasso == unpruned_lasso, seed
            statuses[outcome.status] += 1

            # the pruned layer keeps the unpruned one's states in order and
            # drops exactly the states that miss a deadline, none of which
            # has an accepting run
            reference = UnprunedGlobalProduct(pruned.graph, pruned.automaton)
            built = list(reference.initial_states())
            kept = set(pruned.initial_states())
            dropped = [state for state in built if state not in kept]
            for state in _expanded(pruned):
                successors = pruned.successors(state)
                kept = set(successors)
                every = reference.successors(state)
                assert list(successors) == [
                    pair for pair in every if pair in kept], seed
                dropped += [pair[1] for pair in every if pair not in kept]
                built += [pair[1] for pair in every]
            assert len(dropped) == pruned.statistics()["pruned"], seed
            assert set(dropped) == {
                state for state in built
                if _misses_a_deadline(reference, state)}, seed
            if "[0," in data["global"]["formula"]:
                dropped_at_open_deadlines += len(dropped)
            edges, marks = _reachable_edges(reference, dropped)
            assert not scc_has_accepting_cycle(
                dropped, edges.__getitem__, marks, reference.all_marks), seed
            dropped_in_all += len(dropped)
        assert statuses["success"] >= 10 and statuses["unsatisfiable"] >= 10
        assert dropped_at_open_deadlines > 0
        assert dropped_in_all > dropped_at_open_deadlines

    def test_the_global_layer_expands_the_most_urgent_successor_first(
            self, tmp_path, monkeypatch):
        """On the seeded instances, each expansion's successors are the
        built ones that meet their deadlines, in construction order stably
        sorted by the least exit bound (so a stable permutation, and
        non-decreasing in it), and the search in construction order comes
        to the same status."""
        searched = []

        def recorded(graph, state_budget=None):
            searched.append(graph)
            return find_accepting_lasso(graph, state_budget)

        monkeypatch.setattr(cli, "find_accepting_lasso", recorded)
        statuses = Counter()
        reordered = 0
        for seed in range(60):
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(random_grid_problem(random.Random(seed))))
            problem = cli.load_problem(path)
            searched.clear()
            outcome = cli.solve(problem)
            with monkeypatch.context() as patched:
                patched.setattr(cli, "GlobalProduct", _UnorderedGlobalProduct)
                assert cli.solve(problem).status == outcome.status, seed
            statuses[outcome.status] += 1
            ordered = searched[0]
            for state in _expanded(ordered):
                kept = _UnorderedGlobalProduct.successors(ordered, state)
                urgent_first = sorted(
                    kept, key=lambda pair: least_exit_bound(ordered, pair[1]))
                assert list(ordered.successors(state)) == urgent_first, seed
                reordered += urgent_first != list(kept)
        assert statuses["success"] >= 10 and statuses["unsatisfiable"] >= 10
        assert reordered > 100, reordered

    def test_team_successors_come_in_the_order_of_components_and_targets(
            self, tmp_path, monkeypatch):
        """On every team state the seeded instances expand, the successors
        are a stable sort by components and targets, and no two of them
        tie, so the sort never compares remaining times or letters."""
        searched = []

        def recorded(graph, state_budget=None):
            searched.append(graph)
            return find_accepting_lasso(graph, state_budget)

        monkeypatch.setattr(cli, "find_accepting_lasso", recorded)
        checked = in_flight = 0
        for seed in range(60):
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(random_grid_problem(random.Random(seed))))
            searched.clear()
            cli.solve(cli.load_problem(path))
            (global_product,) = searched
            team = global_product.graph
            for state in _expanded(team):
                successors = list(team.successors(state))
                keys = [team_successor_key(pair) for pair in successors]
                assert successors == sorted(successors,
                                            key=team_successor_key), seed
                assert len(set(keys)) == len(keys), seed
                checked += len(successors) > 1
                in_flight += any(any(s.targets) for _, s in successors)
        assert checked > 500 and in_flight > 100, (checked, in_flight)

    def test_deadlines_name_the_bounded_clock_and_the_exit_labels(self):
        def exit_bounds(deadlines):
            time_to = {"p": 5, "q": 7}.get
            return {location: [
                (slot, latest, [reach(time_to) for reach in exits])
                for slot, latest, exits in found]
                for location, found in deadlines.items()}

        # wait -> done reads p; the self-loop stays.  In halves, the closed
        # bound admits 12 and the open one 11
        for window, latest in (("[1/2,6]", 12), ("[1/2,6)", 11)):
            eventually = translate_mitl(parse_formula(f"F{window} p"))
            assert exit_bounds(_deadlines(eventually.scaled(2))) == {
                "wait": [(0, latest, [5])]}
        # every spelling of an upper bound counts, and no lower bound does;
        # a self-loop that resets the clock exits
        automaton = TimedBuchiAutomaton(
            locations=("a", "b"), initial={"a": TRUE}, clocks=("x", "y"),
            invariants={
                "a": parse_constraint("y <= 2 & !(x > 1) & x < 3"),
                "b": parse_constraint("!(y >= 2) & x >= 1 & !(x < 1)")},
            edges=(Edge("a", TRUE, frozenset({"x"}), "a", Atom("p")),
                   Edge("a", TRUE, frozenset(), "a", Not(Atom("p"))),
                   Edge("a", TRUE, frozenset(), "b", Atom("q")),
                   Edge("b", TRUE, frozenset({"y"}), "b", Not(Atom("q")))),
            accepting=(frozenset({"b"}),), atoms=frozenset({"p", "q"}))
        assert exit_bounds(_deadlines(automaton.scaled(1))) == {
            "a": [(1, 2, [7]), (0, 1, [5, 7]), (0, 2, [5, 7])],
            "b": [(1, 1, [0])]}
        # no letter satisfies false or !true, so such an exit is never taken
        never = TimedBuchiAutomaton(
            locations=("a", "b"), initial={"a": TRUE}, clocks=("x",),
            invariants={"a": parse_constraint("x <= 2")},
            edges=(Edge("a", TRUE, frozenset(), "b", parse_formula("false")),
                   Edge("a", TRUE, frozenset(), "b", parse_formula("!true")),
                   Edge("b", TRUE, frozenset(), "b", TRUE)),
            accepting=(frozenset({"b"}),), atoms=frozenset())
        assert exit_bounds(_deadlines(never.scaled(1))) == {
            "a": [(0, 2, [inf, inf])]}

    @staticmethod
    def _outcomes_from_a_rewritten_team_file(tmp_path, problem, old, new):
        """The outcomes of ``problem``, gf_all, which the search exhausts,
        with its team automaton from ``translate`` and with the same file
        with ``old`` rewritten as ``new``."""
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        goal = problem["global"].pop("formula")
        atoms = ",".join(sorted(frozenset().union(*(
            system.atoms for system in
            cli.load_model(fixtures / "grid_meet_three.json").values()))))
        translated = tmp_path / "translated.json"
        assert cli.main(["translate", goal, "--alphabet", atoms,
                         "--out", str(translated)]) == 0
        text = translated.read_text()
        assert old in text
        (tmp_path / "written.json").write_text(text.replace(old, new))
        outcomes = []
        for name in ("translated", "written"):
            problem["global"]["tba"] = f"{name}.json"
            path = tmp_path / f"problem_{name}.json"
            path.write_text(json.dumps(problem))
            outcome = cli.solve(cli.load_problem(path))
            assert outcome.status == "unsatisfiable"
            outcomes.append(outcome)
        return outcomes

    def test_a_disjunction_written_with_or_prunes_as_translated(
            self, tmp_path, gf_all):
        """The exit label written with ``|`` prunes the same states and
        explores the same product.  The label also stands under a second
        ``!``, so the rewrite keeps its outer parentheses."""
        translated, written = self._outcomes_from_a_rewritten_team_file(
            tmp_path, gf_all,
            "!(!((meet1A & meet2A) & meet3A) & !((meet1B & meet2B) & meet3B))",
            "((meet1A & meet2A & meet3A) | (meet1B & meet2B & meet3B))")
        assert translated == written
        assert written.statistics["globalLayer"]["pruned"] > 0

    def test_a_deadline_written_as_a_negation_prunes_as_translated(
            self, tmp_path, gf_all):
        """The deadline ``x <= 30`` written as ``!(x > 30)`` prunes the
        same states and explores the same product."""
        translated, written = self._outcomes_from_a_rewritten_team_file(
            tmp_path, gf_all,
            '"invariant": "x <= 30"', '"invariant": "!(x > 30)"')
        assert translated == written
        layer = written.statistics["globalLayer"]
        assert (layer["states"], layer["pruned"]) == (30467, 18545)


def _times(state):
    """Every clock value and remaining time held in a product state."""
    if isinstance(state, TeamState):
        for left, target in zip(state.remaining, state.targets):
            assert (left == 0) == (target == ())
            yield left
        for part in state.components + state.targets:
            if part != ():
                yield from _times(part)
    else:
        yield from state.valuation
        if isinstance(state.node, TeamState):
            yield from _times(state.node)


class TestIntegerTime:
    def test_a_product_refuses_time_that_is_not_an_int(self):
        # the products count time in ints, and say which value is not one
        system = chain_green()
        automaton = translate_mitl(parse_formula("F[0,1/2] green"))
        with pytest.raises(ValueError, match=r"transition weight "
                           r"Fraction\(1, 1\) of \('p1', 'p2'\) is not an int"):
            LocalProduct(system, automaton.scaled(2))
        with pytest.raises(ValueError, match=r"automaton constant "
                           r"Fraction\(1, 2\) is not an int.*scaled automaton"):
            LocalProduct(system.scaled(2), automaton)
        LocalProduct(system.scaled(2), automaton.scaled(2))

    @pytest.mark.parametrize("name, factor", [
        ("two_agent_chain_plan.json", 2),  # weights in halves
        ("grid_meet.json", 1)])
    def test_every_layer_counts_time_in_ints(self, monkeypatch, name, factor):
        built = []

        class Recorded(GlobalProduct):
            def __init__(self, team, automaton):
                super().__init__(team, automaton)
                built.append(self)

        monkeypatch.setattr(cli, "GlobalProduct", Recorded)
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        outcome = cli.solve(cli.load_problem(fixtures / name))
        assert outcome.status == "success"
        assert outcome.statistics["scalingFactor"] == factor
        (global_product,) = built
        team = global_product.graph
        weights = values = 0
        for layer in (global_product, team, *team.locals):
            for state in _expanded(layer):
                for weight, successor in ((0, state),
                                          *layer.successors(state)):
                    assert type(weight) is int
                    weights += 1
                    for value in _times(successor):
                        assert type(value) is int
                        values += 1
        assert weights > 100 and values > 100


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PLAN_FIXTURES = ("grid_meet.json", "grid_meet_three.json",
                 "two_agent_chain_plan.json")


class TestStatistics:
    """Only the local layer keeps successor lists; the team and global
    layers record a count per expanded state.  Their statistics equal those
    of a reference that memoizes every layer and walks its memos, and stay
    equal when every expanded state is expanded again."""

    @staticmethod
    def _layers(monkeypatch, problem, classes=None):
        """The outcome of ``solve`` and its global, team and local layers,
        built from ``classes`` when given."""
        searched = []

        def recorded(graph, state_budget=None):
            searched.append(graph)
            return find_accepting_lasso(graph, state_budget)

        with monkeypatch.context() as patched:
            patched.setattr(cli, "find_accepting_lasso", recorded)
            for name, cls in (classes or {}).items():
                patched.setattr(cli, name, cls)
            outcome = cli.solve(problem)
        (global_product,) = searched
        team = global_product.graph
        return outcome, (global_product, team, *team.locals)

    def assert_statistics_match(self, monkeypatch, problem, label):
        outcome, layers = self._layers(monkeypatch, problem)
        reference, memoized = self._layers(monkeypatch, problem, {
            "LocalProduct": MemoizedLocalProduct,
            "TeamProduct": MemoizedTeamProduct,
            "GlobalProduct": MemoizedGlobalProduct})
        assert outcome.status == reference.status, label
        assert outcome.statistics == reference.statistics, label
        expected = [layer.statistics() for layer in memoized]
        assert [layer.statistics() for layer in layers] == expected, label
        # a state expanded again builds the same successors, and counts once
        for layer, memo in zip(layers, memoized):
            for state, successors in memo.cache.items():
                assert layer.successors(state) == successors, label
        assert [layer.statistics() for layer in layers] == expected, label
        return outcome.status, expected

    def test_seeded_grid_problems(self, tmp_path, monkeypatch):
        statuses = Counter()
        pruned = 0
        for seed in range(60):
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(
                random_grid_problem(random.Random(seed))))
            status, (global_stats, *_) = self.assert_statistics_match(
                monkeypatch, cli.load_problem(path), seed)
            statuses[status] += 1
            pruned += global_stats["pruned"]
        assert statuses["success"] >= 10 and statuses["unsatisfiable"] >= 10
        assert pruned > 0

    @pytest.mark.parametrize("name", PLAN_FIXTURES)
    def test_plan_fixtures(self, monkeypatch, name):
        status, (global_stats, team_stats, *_) = self.assert_statistics_match(
            monkeypatch, cli.load_problem(FIXTURES / name), name)
        assert status == "success"
        assert global_stats["states"] > 10 and team_stats["edges"] > 10


def _peak_allocation(problem) -> tuple:
    """The outcome of solving ``problem`` and the peak of its Python
    allocations in bytes."""
    import tracemalloc
    tracemalloc.start()
    try:
        outcome = cli.solve(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return outcome, peak


def test_solving_grid_meet_three_stays_small_in_memory():
    """Expanding the most urgent successor first, solving grid_meet_three
    peaks at about 0.5 MiB of Python allocations; in construction order it
    peaked at about 3.5 MiB, and at 8.2 MiB while the team and global
    layers kept their successor lists."""
    outcome, peak = _peak_allocation(
        cli.load_problem(FIXTURES / "grid_meet_three.json"))
    assert outcome.status == "success"
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_searching_gf_all_stays_small_in_memory(tmp_path, gf_all):
    """Without successor lists in the team and global layers, the first
    3,000 states of gf_all's search peak at about 3.7 MiB of Python
    allocations, and at about 7.5 MiB with both layers memoized."""
    gf_all["options"]["stateBudget"] = 3000
    path = tmp_path / "gf_all.json"
    path.write_text(json.dumps(gf_all))
    outcome, peak = _peak_allocation(cli.load_problem(path))
    assert outcome.status == "exploration-limit"
    assert peak < 6 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
