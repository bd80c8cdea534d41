import random
from fractions import Fraction as Q

import pytest

from mitlplan.core import InputError
from mitlplan.wts import (CollectiveRun, TimedRun, WeightedTransitionSystem,
                          collective_run, collective_word_of, grid_system,
                          timed_word_of)


def chain_pair():
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


def chain_runs():
    r1 = TimedRun(prefix=(), period=Q(5),
                  cycle=(("p1", Q(0)), ("p2", Q(1)), ("p3", Q(5, 2)), ("p2", Q(3))))
    r2 = TimedRun(prefix=(("p1", Q(0)),), period=Q(5, 2),
                  cycle=(("p2", Q(2)), ("p3", Q(5, 2))))
    return r1, r2


class TestModelValidation:
    # a malformed model is refused by cli.load_system, which names the
    # field (tests/test_cli.py); the constructor only builds
    def test_construction_copies_its_weights_and_labels_arguments(self):
        labels = {"a": ["p"]}
        weights = {("a", "b"): Q(1), ("b", "a"): Q(2)}

        def build():
            return WeightedTransitionSystem(
                states=("a", "b"), initial=frozenset({"a"}), weights=weights,
                atoms=frozenset({"p"}), labels=labels)

        one, two = build(), build()
        assert labels == {"a": ["p"]}
        assert one.labels == {"a": frozenset({"p"}), "b": frozenset()}
        assert one.labels is not labels
        assert one.labels is not two.labels
        assert one.weights == weights
        assert one.weights is not weights
        assert one.weights is not two.weights


class TestRunValidation:
    def test_stamps_must_match_weights(self):
        t1, _ = chain_pair()
        run = TimedRun(prefix=(), period=Q(4),
                       cycle=(("p1", Q(0)), ("p2", Q(2))))  # edge takes 1, not 2
        with pytest.raises(InputError) as info:
            run.validate_for(t1)
        assert "step 0" in str(info.value)

    def test_non_transition_step(self):
        t1, _ = chain_pair()
        run = TimedRun(prefix=(), period=Q(2),
                       cycle=(("p1", Q(0)), ("p3", Q(1))))
        with pytest.raises(InputError) as info:
            run.validate_for(t1)
        assert "p1 -> p3" in str(info.value)

    @pytest.mark.parametrize("run, message", [
        # the cycle's last move, p2 -> p1, takes 2; a period of 6 makes it 3
        (TimedRun(prefix=(), period=Q(6), cycle=(
            ("p1", Q(0)), ("p2", Q(1)), ("p3", Q(5, 2)), ("p2", Q(3)))),
         "step 3: arrival at p1 stamped 6, expected 5"),
        # r2's p3 -> p2 takes 2, not 1/2
        (TimedRun(prefix=(("p1", Q(0)),), period=Q(3), cycle=(
            ("p2", Q(2)), ("p3", Q(5, 2)))),
         "step 2: arrival at p2 stamped 5, expected 9/2"),
    ])
    def test_a_wrong_weight_on_the_wrap_step_is_named(self, run, message):
        # the step from the cycle's last position into the second turn,
        # step prefix_length + cycle_length - 1
        with pytest.raises(InputError) as info:
            run.validate_for(chain_pair()[run.prefix_length])
        assert str(info.value) == message

    def test_must_start_at_zero(self):
        with pytest.raises(InputError):
            TimedRun(prefix=(("p1", Q(1)),), cycle=(("p2", Q(2)),), period=Q(2))

    def test_refusals_keep_their_messages(self):
        # runs of random systems with one state, stamp or the period
        # changed, against the checks done in Fraction arithmetic
        from oracles import (enumerate_timed_runs, random_agent_system,
                             run_refusal)
        rng = random.Random(57)
        refused = 0
        for trial in range(300):
            unit = (Q(1), Q(1, 3), Q(1, 7))[trial % 3]
            system = random_agent_system(rng, "p",
                                         weights=(unit, 2 * unit, 5 * unit))
            run = rng.choice(enumerate_timed_runs(system, max_stem=2))
            events = list(run.prefix + run.cycle)
            period = run.period
            j = rng.randrange(len(events))
            state, stamp = events[j]
            change = rng.randrange(3)
            if change == 0:
                events[j] = (rng.choice(system.states), stamp)
            elif change == 1:
                events[j] = (state, stamp + unit * rng.choice((-1, 1)))
            else:
                period += unit * rng.choice((-1, 1))
            prefix, cycle = events[:len(run.prefix)], events[len(run.prefix):]
            expected = run_refusal(system, prefix, cycle, period)
            try:
                TimedRun(prefix=prefix, cycle=cycle,
                         period=period).validate_for(system)
            except InputError as exc:
                assert str(exc) == expected, trial
                refused += 1
            else:
                assert expected is None, trial
        assert refused > 150


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
            weights={("s", "s"): Q(3, 2)},
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
            assert vector == (r1.payload_at(i), r1.payload_at(i))
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
            expected = [(original.payload_at(i), original.stamp_at(i))
                        for i in range(len(events))]
            assert events == expected

    def test_closed_form_equals_the_stepping_merge(self):
        """On random lassos of 1 to 3 runs with stamps in units of 1, 1/2,
        1/3 and 1/7, the merge equals the event-at-a-time reference and
        hashes like it."""
        from oracles import stepping_merge
        rng = random.Random(59)
        seen = {"loop at 0": 0, "loop later": 0, "tied": 0}
        for trial in range(600):
            runs = [random_run(rng, rng.choice((Q(1), Q(1, 2), Q(1, 3),
                                                Q(1, 7))))
                    for _ in range(rng.randrange(1, 4))]
            merged, expected = collective_run(runs), stepping_merge(runs)
            assert merged == expected and hash(merged) == hash(expected), \
                trial
            seen["loop at 0" if merged.loop == 0 else "loop later"] += 1
            # the agents' arrivals before the merged cycle's second turn,
            # against the merged positions there
            horizon = merged.stamp_at(len(merged.ticks))
            arrivals = sum(run.loop + sum(-((stamp - horizon) // run.period)
                                          for _, stamp in run.cycle)
                           for run in runs)
            seen["tied"] += arrivals > len(merged.ticks)
        assert min(seen.values()) > 100, seen

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


def random_run(rng, unit):
    """A run with 1 to 4 cycle positions after no prefix, in half of the
    draws, or up to 3 prefix positions; its moves and the period's span
    take 1 to 3 ``unit``s, and state names repeat."""
    loop, size = rng.choice((0, 0, 0, 1, 2, 3)), rng.randrange(1, 5)
    stamps = [Q(0)]
    for _ in range(loop + size - 1):
        stamps.append(stamps[-1] + unit * rng.randrange(1, 4))
    events = [(f"s{rng.randrange(3)}", stamp) for stamp in stamps]
    return TimedRun(prefix=events[:loop], cycle=events[loop:],
                    period=stamps[-1] - stamps[loop]
                    + unit * rng.randrange(1, 4))


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
            if all(a != b for a, b in system.weights):
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
        again = CollectiveRun(prefix=merged.prefix, cycle=merged.cycle,
                              period=merged.period)
        assert again == merged and hash(again) == hash(merged)
        horizon = 10
        merged_events = merged.unroll(8)[:horizon]
        queue = sorted({r1.stamp_at(i) for i in range(40)}
                       | {r2.stamp_at(i) for i in range(40)})
        assert [t for _, t in merged_events] == queue[:horizon]
        arrivals = [{r.stamp_at(i) for i in range(40)} for r in (r1, r2)]
        for k, original in enumerate((r1, r2)):
            events = [(v[k], t) for v, t in merged_events
                      if t in arrivals[k] or t == 0]
            expected = [(original.payload_at(i), original.stamp_at(i))
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
        assert system.weights["p4", "p11"] == Q(2)   # down
        assert system.weights["p11", "p10"] == Q(2)  # left
        assert system.weights["p16", "p17"] == Q(1)  # right
        assert system.weights["p20", "p13"] == Q(1)  # up
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
            total += system.weights[here, there]
            assert total == expected

    def test_distances_to_an_atom_are_shortest_path_times(self):
        system = grid_system(
            rows=3, cols=7,
            move_weights={"up": Q(1), "right": Q(1), "down": Q(2), "left": Q(2)},
            labels={"p9": ["meet"], "p13": ["meet"]}, initial=["p4"])
        # Bellman-Ford from every cell over the forward moves
        distances = {state: Q(0) if system.label_of(state) else None
                     for state in system.states}
        for _ in system.states:
            for (here, there), weight in system.weights.items():
                if distances[there] is not None and (
                        distances[here] is None
                        or distances[there] + weight < distances[here]):
                    distances[here] = distances[there] + weight
        assert system.distances_to("meet") == distances
        assert system.distances_to("meet")["p4"] == 4  # down, then left
        assert grid_system(1, 2, {move: Q(1) for move in
                                  ("up", "right", "down", "left")},
                           labels={}, initial=["p1"]).distances_to("x") == {}


def grid_runs(rng, moves):
    """Two agents on a 4 x 4 grid, moving at 1/2 and at 1/3 a step: each
    run takes one move from its initial cell into a closed walk of
    ``moves[k]`` moves."""
    systems, runs = [], []
    for k, (weight, count) in enumerate(zip((Q(1, 2), Q(1, 3)), moves)):
        start = rng.choice([f"p{n}" for n in range(1, 17)])
        system = grid_system(
            4, 4, {move: weight for move in ("up", "right", "down", "left")},
            labels={f"p{n}": [f"x{k}"] for n in range(1, 17, 2)},
            initial=[start])
        path = [start]
        for _ in range(count // 2 + 1):
            path.append(rng.choice(system.successors(path[-1]))[1])
        # out along the path and back to its second cell
        cycle = path[1:] + path[-2:1:-1]
        systems.append(system)
        runs.append(TimedRun(
            prefix=((start, Q(0)),),
            cycle=tuple((state, (i + 1) * weight)
                        for i, state in enumerate(cycle)),
            period=len(cycle) * weight))
    return systems, runs


class TestIntegerTime:
    def test_the_merge_builds_no_fraction_per_position(self, monkeypatch):
        """Validating two runs, merging them and labelling the merge build
        as many Fractions for walks of 200 and 360 moves as for walks of 20
        and 36: none per position of the 2,400-position merge."""
        def team_word(systems, runs):
            for system, run in zip(systems, runs):
                run.validate_for(system)
            return collective_word_of(systems, collective_run(runs))

        new = Q.__new__

        def counting(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        counts, sizes = [], []
        for moves in ((20, 36), (200, 360)):
            systems, runs = grid_runs(random.Random(58), moves)
            built = []
            with monkeypatch.context() as patch:
                patch.setattr(Q, "__new__", staticmethod(counting))
                word = team_word(systems, runs)
            counts.append(len(built))
            sizes.append(word.prefix_length + word.cycle_length)
        assert sizes[1] > 2000 and sizes[1] >= 9 * sizes[0]
        assert counts[0] == counts[1] <= 2
