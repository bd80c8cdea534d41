import random
from fractions import Fraction as Q

import pytest

from mitlplan.wts import (ModelValidationError,
                          RunValidationError, TimedRun,
                          WeightedTransitionSystem, collective_run,
                          collective_word_of, grid_system, timed_word_of)


def chain_pair():
    t1 = WeightedTransitionSystem(
        states=("p1", "p2", "p3"), initial=frozenset({"p1"}),
        transitions=(("p1", "p2"), ("p2", "p1"), ("p2", "p3"), ("p3", "p2")),
        weights={("p1", "p2"): Q(1), ("p2", "p1"): Q(2),
                 ("p2", "p3"): Q(3, 2), ("p3", "p2"): Q(1, 2)},
        atoms=frozenset({"green"}),
        labels={"p1": {"green"}, "p2": set(), "p3": set()})
    t2 = WeightedTransitionSystem(
        states=("p1", "p2", "p3"), initial=frozenset({"p1"}),
        transitions=(("p1", "p2"), ("p2", "p1"), ("p2", "p3"), ("p3", "p2")),
        weights={("p1", "p2"): Q(2), ("p2", "p1"): Q(3, 2),
                 ("p2", "p3"): Q(1, 2), ("p3", "p2"): Q(2)},
        atoms=frozenset({"red"}),
        labels={"p1": set(), "p2": set(), "p3": {"red"}})
    return t1, t2


def chain_runs():
    r1 = TimedRun(prefix=(), period=Q(5),
                  cycle=(("p1", Q(0)), ("p2", Q(1)), ("p3", Q(5, 2)), ("p2", Q(3))))
    r2 = TimedRun(prefix=(("p1", Q(0)),), period=Q(5, 2),
                  cycle=(("p2", Q(2)), ("p3", Q(5, 2))))
    return r1, r2


class TestModelValidation:
    def test_weights_must_be_positive(self):
        with pytest.raises(ModelValidationError):
            WeightedTransitionSystem(
                states=("a", "b"), initial=frozenset({"a"}),
                transitions=(("a", "b"),), weights={("a", "b"): Q(0)},
                atoms=frozenset(), labels={})

    def test_initial_required(self):
        with pytest.raises(ModelValidationError):
            WeightedTransitionSystem(states=("a",), initial=frozenset(),
                                     transitions=(), weights={},
                                     atoms=frozenset(), labels={})

    def test_undeclared_endpoints(self):
        with pytest.raises(ModelValidationError):
            WeightedTransitionSystem(
                states=("a",), initial=frozenset({"a"}),
                transitions=(("a", "zz"),), weights={("a", "zz"): Q(1)},
                atoms=frozenset(), labels={})


class TestRunValidation:
    def test_stamps_must_match_weights(self):
        t1, _ = chain_pair()
        run = TimedRun(prefix=(), period=Q(4),
                       cycle=(("p1", Q(0)), ("p2", Q(2))))  # edge takes 1, not 2
        with pytest.raises(RunValidationError) as info:
            run.validate_for(t1)
        assert "step 0" in str(info.value)

    def test_non_transition_step(self):
        t1, _ = chain_pair()
        run = TimedRun(prefix=(), period=Q(2),
                       cycle=(("p1", Q(0)), ("p3", Q(1))))
        with pytest.raises(RunValidationError) as info:
            run.validate_for(t1)
        assert "p1 -> p3" in str(info.value)

    def test_must_start_at_zero(self):
        with pytest.raises(RunValidationError):
            TimedRun(prefix=(("p1", Q(1)),), cycle=(("p2", Q(2)),), period=Q(2))


class TestTimedWordOf:
    def test_reference_fragment_agent1(self):
        t1, _ = chain_pair()
        r1, _ = chain_runs()
        w = timed_word_of(t1, r1)
        assert w.unroll(2)[:5] == (
            (frozenset({"green"}), Q(0)), (frozenset(), Q(1)),
            (frozenset(), Q(5, 2)), (frozenset(), Q(3)),
            (frozenset({"green"}), Q(5)))

    def test_reference_fragment_agent2(self):
        _, t2 = chain_pair()
        _, r2 = chain_runs()
        w = timed_word_of(t2, r2)
        assert w.unroll(2)[:5] == (
            (frozenset(), Q(0)), (frozenset(), Q(2)),
            (frozenset({"red"}), Q(5, 2)), (frozenset(), Q(9, 2)),
            (frozenset({"red"}), Q(5)))

    def test_self_loop_system(self):
        system = WeightedTransitionSystem(
            states=("s",), initial=frozenset({"s"}),
            transitions=(("s", "s"),), weights={("s", "s"): Q(3, 2)},
            atoms=frozenset({"p"}), labels={"s": {"p"}})
        run = TimedRun(prefix=(), cycle=(("s", Q(0)),), period=Q(3, 2))
        w = timed_word_of(system, run)
        assert w.unroll(3) == ((frozenset({"p"}), Q(0)),
                               (frozenset({"p"}), Q(3, 2)),
                               (frozenset({"p"}), Q(3)))


class TestCollectiveRun:
    def test_reference_merge(self):
        r1, r2 = chain_runs()
        merged = collective_run([r1, r2])
        events = merged.unroll(1)[:7]
        assert [t for _, t in events] == [Q(0), Q(1), Q(2), Q(5, 2), Q(3),
                                          Q(9, 2), Q(5)]
        assert [v for v, _ in events] == [
            ("p1", "p1"), ("p2", "p1"), ("p2", "p2"), ("p3", "p3"),
            ("p2", "p3"), ("p2", "p2"), ("p1", "p3")]

    def test_single_agent_is_verbatim(self):
        r1, _ = chain_runs()
        merged = collective_run([r1])
        assert merged.period == r1.period
        assert merged.prefix == tuple(((s,), t) for s, t in r1.prefix)
        assert merged.cycle == tuple(((s,), t) for s, t in r1.cycle)

    def test_identical_runs_merge_to_duplicated_vectors(self):
        r1, _ = chain_runs()
        merged = collective_run([r1, r1])
        # derived by hand: both agents always tie, so every step advances both
        for i in range(10):
            vector, stamp = merged.item_at(i)
            assert vector == (r1.state_at(i), r1.state_at(i))
            assert stamp == r1.stamp_at(i)

    def test_stamps_are_union_of_agent_stamps(self):
        rng = random.Random(21)
        r1, r2 = chain_runs()
        merged = collective_run([r1, r2])
        horizon = 14
        merged_stamps = [t for _, t in merged.unroll(4)][:horizon]
        # event-queue reference merge
        queue = sorted({r1.stamp_at(i) for i in range(30)}
                       | {r2.stamp_at(i) for i in range(30)})
        assert merged_stamps == queue[:horizon]

    def test_every_step_advances_the_tied_minimum_agents(self):
        r1, r2 = chain_runs()
        merged = collective_run([r1, r2])
        arrivals1 = {r1.stamp_at(i) for i in range(40)}
        arrivals2 = {r2.stamp_at(i) for i in range(40)}
        previous = None
        for i in range(12):
            vector, stamp = merged.item_at(i)
            if previous is not None:
                changed = {k for k in range(2) if vector[k] != previous[k]}
                expected = set()
                if stamp in arrivals1:
                    expected.add(0)
                if stamp in arrivals2:
                    expected.add(1)
                # a component may re-arrive at the same state name; the
                # changed set must at least be contained in the arrivals
                assert changed <= expected
                assert expected
            previous = vector

    def test_projection_round_trip(self):
        r1, r2 = chain_runs()
        merged = collective_run([r1, r2])
        arrivals = [{r.stamp_at(i) for i in range(40)} for r in (r1, r2)]
        for k, original in enumerate((r1, r2)):
            events = [(v[k], t) for v, t in merged.unroll(4)
                      if t in arrivals[k] or t == 0]
            expected = [(original.state_at(i), original.stamp_at(i))
                        for i in range(len(events))]
            assert events == expected

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            collective_run([])

    def test_random_merges_match_event_queue_and_project_back(self):
        # randomized version of the two properties above, on systems
        # without self-loops (a self-loop arrival does not change the
        # state, so a state-change projection cannot see it)
        assert_random_merges_match(random.Random(55))

    def test_random_merges_at_weights_in_thirds_and_sevenths(self):
        # the merge counts in units of 1/21: ties and cycle closings must
        # fall where the exact stamps put them
        assert_random_merges_match(random.Random(56),
                                   weights=(Q(1, 3), Q(2, 7)))


def assert_random_merges_match(rng, **system_options):
    """Merges of random run pairs agree with an event queue of both runs'
    stamps, and each agent's own run is read back from the merge."""
    from oracles import enumerate_timed_runs, random_agent_system
    checked = 0
    for _ in range(60):
        systems = []
        while len(systems) < 2:
            system = random_agent_system(rng, f"m{len(systems)}",
                                         **system_options)
            if all(a != b for a, b in system.transitions):
                systems.append(system)
        candidate_runs = []
        for system in systems:
            runs = enumerate_timed_runs(system, max_stem=2, max_cycle=3)
            if not runs:
                break
            candidate_runs.append(rng.choice(runs))
        if len(candidate_runs) < 2:
            continue
        r1, r2 = candidate_runs
        merged = collective_run([r1, r2])
        horizon = 10
        merged_events = merged.unroll(8)[:horizon]
        queue = sorted({r1.stamp_at(i) for i in range(40)}
                       | {r2.stamp_at(i) for i in range(40)})
        assert [t for _, t in merged_events] == queue[:horizon]
        arrivals = [{r.stamp_at(i) for i in range(40)} for r in (r1, r2)]
        for k, original in enumerate((r1, r2)):
            events = [(v[k], t) for v, t in merged_events
                      if t in arrivals[k] or t == 0]
            expected = [(original.state_at(i), original.stamp_at(i))
                        for i in range(len(events))]
            assert events == expected
        checked += 1
    assert checked >= 30


class TestCollectiveWord:
    def test_reference_word(self):
        t1, t2 = chain_pair()
        merged = collective_run(list(chain_runs()))
        w = collective_word_of([t1, t2], merged)
        assert w.unroll(1)[:7] == (
            (frozenset({"green"}), Q(0)), (frozenset(), Q(1)),
            (frozenset(), Q(2)), (frozenset({"red"}), Q(5, 2)),
            (frozenset({"red"}), Q(3)), (frozenset(), Q(9, 2)),
            (frozenset({"green", "red"}), Q(5)))

    def test_alphabets_must_be_disjoint(self):
        t1, _ = chain_pair()
        merged = collective_run([chain_runs()[0], chain_runs()[0]])
        with pytest.raises(ModelValidationError):
            collective_word_of([t1, t1], merged)

    def test_all_empty_labels(self):
        t1, t2 = chain_pair()
        t1.labels = {s: frozenset() for s in t1.states}
        t2.labels = {s: frozenset() for s in t2.states}
        merged = collective_run(list(chain_runs()))
        w = collective_word_of([t1, t2], merged)
        assert all(not atoms for atoms, _ in w.unroll(2))


class TestGrid:
    def test_geometry_and_weights(self):
        system = grid_system(
            rows=3, cols=7,
            move_weights={"up": Q(1), "right": Q(1), "down": Q(2), "left": Q(2)},
            labels={"p9": ["recharge1"]}, initial=["p4"])
        assert len(system.states) == 21
        assert system.weight_of("p4", "p11") == Q(2)   # down
        assert system.weight_of("p11", "p10") == Q(2)  # left
        assert system.weight_of("p16", "p17") == Q(1)  # right
        assert system.weight_of("p20", "p13") == Q(1)  # up
        assert ("p7", "p8") not in system.weights      # no wraparound
        assert system.label_of("p9") == frozenset({"recharge1"})

    def test_reference_route_is_walkable(self):
        # the fast agent's route with its arrival times
        system = grid_system(
            rows=3, cols=7,
            move_weights={"up": Q(1), "right": Q(1), "down": Q(2), "left": Q(2)},
            labels={"p9": ["recharge1"], "p6": ["meet1A"], "p15": ["meet1B"]},
            initial=["p4"])
        route = ["p4", "p11", "p10", "p9", "p16", "p17", "p18", "p19",
                 "p20", "p13", "p6"]
        stamps = [Q(0), Q(2), Q(4), Q(6), Q(8), Q(9), Q(10), Q(11),
                  Q(12), Q(13), Q(14)]
        total = Q(0)
        for (here, there), expected in zip(zip(route, route[1:]), stamps[1:]):
            total += system.weight_of(here, there)
            assert total == expected
