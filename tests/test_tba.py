import functools
import itertools
import json
import random
from fractions import Fraction as Q
from math import lcm

import pytest

from mitlplan.core import LassoTimedWord, denominator_lcm
from mitlplan.mitl import (And, Atom, Compare, MitlSyntaxError, Not,
                           TrueFormula, format_formula, parse_constraint,
                           parse_formula, satisfies)
from mitlplan.product import (AutomatonProduct, LocalProduct,
                              ProductState)
from mitlplan.tba import (TRUE, Edge, TimedBuchiAutomaton,
                          UnsupportedFragmentError, accepts_lasso,
                          empty_tba, intersect, tba_from_dict,
                          tba_to_dict, translate_mitl, universal_tba)
from mitlplan.wts import WeightedTransitionSystem
from oracles import (evaluate_constraint, lasso_product_oracle,
                     random_automaton, random_fragment_formula,
                     random_lasso_word, reference_intersect, reference_step,
                     stamps_scaled)
from test_cli import TRANSLATED


def word(prefix, cycle, period):
    return LassoTimedWord(prefix=tuple(prefix), cycle=tuple(cycle), period=Q(period))


AGENT1_WORD = word([], [({"green"}, Q(0)), (set(), Q(1)),
                        (set(), Q(5, 2)), (set(), Q(3))], 5)
RECHARGE_WORD = word([(set(), Q(0)), (set(), Q(2)), (set(), Q(4)),
                      ({"p"}, Q(6))], [(set(), Q(8))], 2)


class TestClockConstraints:
    def test_parse_and_format(self):
        text = "x <= 6 & !(y > 2)"
        constraint = parse_constraint(text)
        assert constraint == And(Compare("x", "<=", Q(6)),
                                 Not(Compare("y", ">", Q(2))))
        assert parse_constraint(format_formula(constraint)) == constraint
        assert parse_constraint("true") == TrueFormula()
        assert parse_constraint("x < 7/2") == Compare("x", "<", Q(7, 2))

    def test_parse_errors(self):
        with pytest.raises(MitlSyntaxError):
            parse_constraint("x ?? 3")
        with pytest.raises(MitlSyntaxError):
            parse_constraint("x <=")

    def test_any_word_before_a_relation_is_a_clock(self):
        assert parse_constraint("X <= 1 & !(inf > 2) & false == 0") == And(
            And(Compare("X", "<=", Q(1)), Not(Compare("inf", ">", Q(2)))),
            Compare("false", "=", Q(0)))

    @pytest.mark.parametrize("text", [
        "p", "x <= 1 | x >= 3", "x <= 1 -> y < 2", "false", "F x <= 1",
        "X[1,2] x <= 1", "!p"])
    def test_only_clock_constraints_parse_as_guards(self, text):
        with pytest.raises(MitlSyntaxError):
            parse_constraint(text)

    def test_a_clock_comparison_is_no_formula(self):
        with pytest.raises(MitlSyntaxError):
            parse_formula("F[<=3] x <= 2")

    def test_sentinel_semantics(self):
        # a clock saturated at cmax + 1 lies above every constant up to cmax
        valuation = {"x": 101}
        assert evaluate_constraint(parse_constraint("x > 100"), valuation)
        assert evaluate_constraint(parse_constraint("x >= 100"), valuation)
        assert not evaluate_constraint(parse_constraint("x < 100"), valuation)
        assert not evaluate_constraint(parse_constraint("x <= 100"), valuation)
        assert not evaluate_constraint(parse_constraint("x = 100"), valuation)

    def test_saturation_preserves_truth_exhaustively(self):
        # any constraint with constants <= cmax evaluates identically under
        # the exact value and under the saturated stand-in cmax + 1 once
        # the value exceeds cmax
        cmax = Q(4)
        constants = [Q(0), Q(1), Q(5, 2), Q(4)]
        relations = ["<", "<=", ">", ">=", "="]
        big_values = [Q(9, 2), Q(5), Q(100)]
        for constant, relation in itertools.product(constants, relations):
            atom = Compare("x", relation, constant)
            for shape in (atom, Not(atom), And(atom, Not(atom)),
                          And(atom, atom)):
                for value in big_values:
                    exact = evaluate_constraint(shape, {"x": value})
                    saturated = evaluate_constraint(shape, {"x": cmax + 1})
                    assert exact == saturated, (shape, value)


class TestStepKernel:
    def test_step_matches_the_reference_step(self):
        # translated and random automata on integer time; valuations below,
        # at and above cmax, and saturated at cmax + 1; every target letter.
        # Each key is stepped twice: the second answer comes from the memo
        rng = random.Random(41)
        atoms = ["p", "q"]
        letters = [frozenset(c) for r in range(len(atoms) + 1)
                   for c in itertools.combinations(atoms, r)]
        compared = 0
        for trial in range(80):
            if trial % 2:
                automaton = random_automaton(rng, letters)
            else:
                automaton = translate_mitl(
                    random_fragment_formula(rng, atoms), alphabet=set(atoms))
            automaton = automaton.scaled(
                lcm(*(c.denominator for c in automaton.constants())))
            cmax = automaton.cmax()
            locations = rng.sample(automaton.locations,
                                   min(8, len(automaton.locations)))
            for location in locations:
                for _ in range(5):
                    valuation = tuple(
                        rng.choice([0, rng.randrange(cmax + 2), cmax + 1])
                        for _ in automaton.clocks)
                    elapse = rng.randrange(1, cmax + 3)
                    for letter in letters:
                        expected = tuple(reference_step(
                            automaton, location, valuation, elapse, letter,
                            cmax))
                        got = automaton.step(location, valuation, elapse,
                                             letter)
                        again = automaton.step(location, valuation, elapse,
                                               letter)
                        assert type(got) is tuple and again is got
                        assert got == expected, (automaton, location,
                                                 valuation, elapse)
                        assert all(type(value) is int
                                   for _, landed in got for value in landed)
                        compared += bool(got)
        assert compared > 400

    def test_two_edges_with_one_effect_are_one_move(self):
        # l -> m on a and on b, with the same guard and resets: the letter
        # {a, b} enables both edges, which land in the same state
        guard = parse_constraint("x <= 5")
        automaton = TimedBuchiAutomaton(
            locations=("l", "m"), initial={"l": TRUE}, clocks=("x",),
            invariants={},
            edges=(Edge("l", guard, frozenset(), "m", Atom("a")),
                   Edge("l", guard, frozenset(), "m", Atom("b")),
                   Edge("m", TRUE, frozenset(), "m")),
            accepting=(frozenset({"m"}),), atoms=frozenset({"a", "b"}))
        both = frozenset({"a", "b"})
        assert automaton.step("l", (0,), 1, both) == (("m", (1,)),)
        assert automaton.step("l", (0,), 1, frozenset({"b"})) == (("m", (1,)),)
        system = WeightedTransitionSystem(
            states=("s", "t"), initial=frozenset({"s"}),
            weights={("s", "t"): 1, ("t", "t"): 1}, atoms=both,
            labels={"s": both, "t": both})
        product = LocalProduct(system, automaton.scaled(1))
        (initial,) = product.initial_states()
        assert product.successors(initial) == (
            (1, ProductState("t", "m", (1,))),)
        assert product.statistics()["edges"] == 1


class TestAutomatonModel:
    def test_json_round_trip(self):
        automaton = translate_mitl(parse_formula("F[<=6] p"))
        data = json.loads(json.dumps(tba_to_dict(automaton)))
        again = tba_from_dict(data)
        assert again.locations == automaton.locations
        assert again.initial == automaton.initial
        assert again.accepting == automaton.accepting
        assert again.clocks == automaton.clocks
        assert again.edges == automaton.edges
        assert again.atoms == automaton.atoms

    def test_every_automaton_round_trips_through_its_file(self):
        # nested guards print with the parentheses that read them back, and
        # every automaton the program builds passes the checks of the file
        # reader, the only ones an automaton meets
        rng = random.Random(43)
        letters = [frozenset(), frozenset({"p"}), frozenset({"q"}),
                   frozenset({"p", "q"})]
        built = [random_automaton(rng, letters) if trial % 2 else
                 translate_mitl(random_fragment_formula(rng, ["p", "q"]),
                                alphabet={"p", "q"})
                 for trial in range(60)]
        built += [intersect(drawn, translated)
                  for translated, drawn in zip(built[::2], built[1::2])]
        built += [translate_mitl(parse_formula(text))
                  for text in TRANSLATED.values()]
        built += [universal_tba({"p", "q"}), empty_tba({"p"})]
        built += [automaton.scaled(denominator_lcm(automaton.constants())
                                   * rng.choice([1, 2, 6]))
                  for automaton in built]
        assert len(built) == 210
        for trial, automaton in enumerate(built):
            data = json.loads(json.dumps(tba_to_dict(automaton)))
            assert tba_from_dict(data) == automaton, trial

    def test_an_automaton_that_has_stepped_equals_its_file(self):
        # the memo and the compiled formulas are no part of the model
        automaton = translate_mitl(parse_formula("F[<=6] p"))
        assert automaton.step("wait", (0,), 2, frozenset({"p"})) == (
            ("done", (2,)), ("wait", (2,)))
        assert automaton.initial_locations(frozenset()) == ("wait",)
        assert automaton.cmax() == 6
        assert automaton == tba_from_dict(tba_to_dict(automaton))

    def test_solving_grid_meet_computes_each_question_once(self,
                                                           monkeypatch):
        from pathlib import Path
        from mitlplan import cli
        automata, asked, computed = {}, set(), []
        step, moves = TimedBuchiAutomaton.step, TimedBuchiAutomaton._moves

        def recorded_step(self, location, valuation, elapse, letter):
            automata[id(self)] = self  # no id is reused while recorded
            asked.add((id(self), location, letter, valuation, elapse))
            return step(self, location, valuation, elapse, letter)

        def recorded_moves(self, *question):
            computed.append((id(self), *question))
            return moves(self, *question)

        monkeypatch.setattr(TimedBuchiAutomaton, "step", recorded_step)
        monkeypatch.setattr(TimedBuchiAutomaton, "_moves", recorded_moves)
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        outcome = cli.solve(cli.load_problem(fixtures / "grid_meet.json"))
        assert outcome.status == "success"
        assert len(computed) == len(set(computed)) == len(asked) == 166
        assert set(computed) == asked

    def test_cmax(self):
        automaton = translate_mitl(parse_formula("F[1/2,6] p"))
        assert automaton.cmax() == Q(6)
        assert translate_mitl(parse_formula("p")).cmax() == Q(0)

    def test_construction_copies_its_invariants_argument(self):
        def build(invariants):
            return TimedBuchiAutomaton(
                locations=("l", "m"), initial={"l": TRUE}, clocks=("x",),
                invariants=invariants, edges=(Edge("l", TRUE, frozenset(), "m"),
                                              Edge("m", TRUE, frozenset(), "m")),
                accepting=(frozenset({"m"}),), atoms=frozenset())

        empty = {}
        assert build(empty).invariants == {"l": TRUE, "m": TRUE}
        assert empty == {}
        shared = {"m": parse_constraint("x <= 2")}
        one, two = build(shared), build(shared)
        assert shared == {"m": parse_constraint("x <= 2")}
        assert one.invariants is not shared
        assert one.invariants is not two.invariants
        assert one.invariants == two.invariants == {
            "l": TRUE, "m": parse_constraint("x <= 2")}


class TestTranslate:
    def test_deadline_obligation(self):
        automaton = translate_mitl(parse_formula("F[0,6] p"))
        assert automaton.clocks == ("x",)
        assert accepts_lasso(automaton, RECHARGE_WORD)
        late = word([(set(), Q(0)), ({"p"}, Q(7))], [(set(), Q(8))], 1)
        assert not accepts_lasso(automaton, late)
        assert not satisfies(late, parse_formula("F[0,6] p"))

    @pytest.mark.parametrize("text, location, invariant", [
        ("F[0,6] p", "wait", "x <= 6"),
        ("F[2,6) p", "wait", "x < 6"),
        ("F[2,inf) p", "wait", "true"),
        ("F p", "wait", "true"),
        ("p U[1,4] q", "wait", "x <= 4"),
        ("p U(1,4) q", "wait", "x < 4"),
        ("p U[1,inf) q", "wait", "true"),
        ("X[1,2] p", "first", "x <= 2"),
        ("X[1,2) p", "first", "x < 2"),
        ("X[1,inf) p", "first", "true"),
    ])
    def test_waiting_locations_carry_the_deadline(self, text, location,
                                                  invariant):
        automaton = translate_mitl(parse_formula(text))
        assert format_formula(automaton.invariants[location]) == invariant
        others = set(automaton.locations) - {location}
        assert all(automaton.invariants[loc] == TRUE for loc in others)

    def test_a_missed_deadline_stops_the_run(self):
        automaton = translate_mitl(parse_formula("F[0,6] p"))
        assert automaton.step("wait", (6,), 0, frozenset()) == (("wait", (6,)),)
        assert automaton.step("wait", (6,), 1, frozenset()) == ()
        assert automaton.step("wait", (6,), 1, frozenset({"p"})) == ()

    def test_recurrence_shape(self):
        automaton = translate_mitl(parse_formula("G F[0,10] p"))
        assert automaton.clocks == ("x",)
        waiting = [loc for loc in automaton.locations if loc.startswith("wait")]
        assert waiting
        for loc in waiting:
            assert "x <= 10" in format_formula(automaton.invariants[loc])
        resetting = [e for e in automaton.edges if "x" in e.resets]
        assert all(e.source.startswith("hit") for e in resetting)
        assert accepts_lasso(automaton, word(
            [], [({"p"}, Q(0)), (set(), Q(1))], 5))

    def test_atom_alone_is_untimed(self):
        automaton = translate_mitl(Atom("p"))
        assert automaton.clocks == ()
        assert automaton.cmax() == Q(0)
        assert accepts_lasso(automaton, word([], [({"p"}, Q(0))], 1))
        assert not accepts_lasso(automaton, word([], [(set(), Q(0))], 1))

    def test_unsupported_names_subterm(self):
        with pytest.raises(UnsupportedFragmentError) as info:
            translate_mitl(parse_formula("F[0,3] F[0,3] p"))
        assert "formula" in info.value.path
        with pytest.raises(UnsupportedFragmentError):
            translate_mitl(parse_formula("G[1,5] F[0,2] p"))  # window not from 0

    def test_size_does_not_grow_with_the_alphabet(self):
        six = {"recharge1", "recharge2", "meet1A", "meet1B", "meet2A", "meet2B"}
        alone = translate_mitl(parse_formula("F[<=30] p"), alphabet={"p"})
        among_six = translate_mitl(parse_formula("F[<=30] p"),
                                   alphabet=set("pqrstu"))
        team = translate_mitl(parse_formula(
            "F[<=30] ((meet1A & meet2A) | (meet1B & meet2B))"), alphabet=six)
        for automaton in (alone, among_six, team):
            assert (len(automaton.locations), len(automaton.edges)) == (2, 3)

    def test_alphabet_extension(self):
        automaton = translate_mitl(parse_formula("F[0,6] p"),
                                   alphabet={"p", "q"})
        w = word([({"q"}, Q(0)), ({"p", "q"}, Q(5))], [({"q"}, Q(6))], 1)
        assert accepts_lasso(automaton, w)


class TestAcceptsLasso:
    def test_universal_accepts_anything(self):
        rng = random.Random(1)
        universal = universal_tba({"p", "q"})
        for _ in range(10):
            assert accepts_lasso(universal, random_lasso_word(rng, ["p", "q"]))

    def test_word_atoms_must_fit(self):
        with pytest.raises(ValueError):
            accepts_lasso(universal_tba({"p"}), word([], [({"z"}, Q(0))], 1))

    def test_agent1_recurrence(self):
        automaton = translate_mitl(parse_formula("G F[0,10] green"))
        assert accepts_lasso(automaton, AGENT1_WORD)

    def test_membership_builds_no_lasso(self, monkeypatch):
        from mitlplan import search

        def refuse(*args):
            raise AssertionError("membership built a lasso")

        monkeypatch.setattr(search, "_lasso", refuse)
        rng = random.Random(3)
        for text in ("G F[0,2] p", "F[0,3] q", "G(p -> X G[0,1] !p)"):
            automaton = translate_mitl(parse_formula(text),
                                       alphabet={"p", "q"})
            for _ in range(20):
                w = random_lasso_word(rng, ["p", "q"])
                assert accepts_lasso(automaton, w) == satisfies(
                    w, parse_formula(text))

    def test_nondeterministic_automata_match_the_scc_oracle(self,
                                                            monkeypatch):
        # random automata over one atom, whose letters often enable
        # several moves, on lasso words with cycles of up to 40 positions;
        # the oracle pairs the word's positions with the automaton by
        # reference_step and decides the product by Tarjan's SCCs.  Moves
        # answered by the step memo meet the branching as well
        calls = {"step": 0, "computed": 0}
        step, moves = TimedBuchiAutomaton.step, TimedBuchiAutomaton._moves

        def counted(name, method):
            def call(*args):
                calls[name] += 1
                return method(*args)
            return call

        monkeypatch.setattr(TimedBuchiAutomaton, "step", counted("step", step))
        monkeypatch.setattr(TimedBuchiAutomaton, "_moves",
                            counted("computed", moves))
        rng = random.Random(47)
        letters = [frozenset(), frozenset({"p"})]
        verdicts = {True: 0, False: 0}
        branching = 0
        for trial in range(300):
            automaton = random_automaton(rng, letters, size=6)
            w = random_lasso_word(rng, ["p"], max_prefix=5, max_cycle=40)
            expected, branches = lasso_product_oracle(automaton, w)
            branching += branches
            assert accepts_lasso(automaton, w) == expected, trial
            verdicts[expected] += 1
        assert verdicts[True] > 10 and verdicts[False] > 100
        assert branching > 200
        assert calls["computed"] < calls["step"] * 0.8


    def test_automata_of_several_sets_match_the_scc_oracle(self):
        # intersections of two or three random automata hold as many
        # acceptance sets; the oracle decides the whole product of the
        # word's positions by the union of each component's marks
        rng = random.Random(48)
        letters = [frozenset(), frozenset({"p"})]
        verdicts = {True: 0, False: 0}
        for trial in range(150):
            automata = [random_automaton(rng, letters, clocks=("x",), size=3)
                        if rng.random() < 0.3 else translate_mitl(
                            random_fragment_formula(rng, ["p"], False),
                            alphabet={"p"})
                        for _ in range(2 + trial % 2)]
            automaton = functools.reduce(intersect, automata)
            assert len(automaton.accepting) == len(automata)
            w = random_lasso_word(rng, ["p"], max_prefix=3, max_cycle=12)
            expected = lasso_product_oracle(automaton, w)[0]
            assert accepts_lasso(automaton, w) == expected, trial
            verdicts[expected] += 1
        assert min(verdicts.values()) > 10, verdicts


class TestCycleProfile:
    """Membership decided on the graph of loop-head configurations."""

    @staticmethod
    def untimed(edges, accepting, initial="h"):
        """An automaton without clocks or atoms: ``edges`` are its
        ``(source, target)`` pairs."""
        locations = {initial, *accepting}.union(*edges)
        return TimedBuchiAutomaton(
            locations=tuple(locations), initial={initial: TRUE}, clocks=(),
            invariants={},
            edges=tuple(Edge(source, TRUE, frozenset(), target)
                        for source, target in edges),
            accepting=(frozenset(accepting),), atoms=frozenset())

    def decide(self, automaton, w, expected):
        assert lasso_product_oracle(automaton, w)[0] == expected
        assert accepts_lasso(automaton, w) == expected

    @pytest.mark.parametrize("accepting", ["a", "b"])
    def test_two_paths_to_the_next_head_keep_the_accepting_one(self,
                                                               accepting):
        # h reaches h one turn later through a and through b, and only one
        # of them accepts: the merged head keeps the flag, whichever of the
        # two paths arrives last
        automaton = self.untimed(
            [("h", "a"), ("h", "b"), ("a", "h"), ("b", "h")], {accepting})
        self.decide(automaton, word([], [(set(), Q(0)), (set(), Q(1))], 2),
                    True)

    def test_an_accepting_location_at_the_loop_head_alone_accepts(self):
        automaton = self.untimed([("s", "h"), ("h", "m"), ("m", "h")], {"h"},
                                 initial="s")
        self.decide(automaton, word([(set(), Q(0))],
                                    [(set(), Q(1)), (set(), Q(2))], 2), True)

    def test_an_accepting_path_that_cannot_close_rejects(self):
        # a accepts but leads nowhere; the turn through b closes unflagged
        automaton = self.untimed([("h", "a"), ("h", "b"), ("b", "h")], {"a"})
        self.decide(automaton, word([], [(set(), Q(0)), (set(), Q(1))], 2),
                    False)

    def test_a_head_that_closes_an_accepting_cycle_alone_is_swept_alone(
            self, monkeypatch):
        # the prefix reaches g and h; the pass asks for g's turn first, and
        # g's turn passes the accepting a and closes, so h is never swept
        swept = []
        advance = AutomatonProduct.advance

        def counted(product, sources, steps):
            swept.append(sorted(location for location, _ in sources))
            return advance(product, sources, steps)

        monkeypatch.setattr(AutomatonProduct, "advance", counted)
        automaton = self.untimed([("s", "g"), ("s", "h"), ("g", "a"),
                                  ("a", "g"), ("h", "b"), ("b", "h")], {"a"},
                                 initial="s")
        self.decide(automaton, word([(set(), Q(0))],
                                    [(set(), Q(1)), (set(), Q(2))], 2), True)
        assert swept == [["s"], ["g"]]

    @pytest.mark.parametrize("lost", [0, 3])
    def test_a_product_that_dies_in_the_prefix_stops_stepping(
            self, monkeypatch, lost):
        # the automaton reads p at every position, and the word drops p at
        # position ``lost`` of its ten-position prefix: the sweep steps the
        # one configuration up to that position and no further, and at
        # position 0 no initial location reads the letter at all
        calls = []
        step = TimedBuchiAutomaton.step

        def counted(automaton, *args):
            calls.append(args)
            return step(automaton, *args)

        monkeypatch.setattr(TimedBuchiAutomaton, "step", counted)
        p = Atom("p")
        automaton = TimedBuchiAutomaton(
            locations=("h",), initial={"h": p}, clocks=(), invariants={},
            edges=(Edge("h", TRUE, frozenset(), "h", p),),
            accepting=(frozenset({"h"}),), atoms=frozenset({"p"}))
        w = word([(set() if j == lost else {"p"}, Q(j)) for j in range(10)],
                 [({"p"}, Q(10 + j)) for j in range(40)], 40)
        assert not accepts_lasso(automaton, w)
        assert len(calls) == lost  # within the prefix's ten positions

    def test_an_accepting_location_on_the_prefix_alone_rejects(self):
        automaton = self.untimed([("s", "h"), ("h", "m"), ("m", "h")], {"s"},
                                 initial="s")
        self.decide(automaton, word([(set(), Q(0))],
                                    [(set(), Q(1)), (set(), Q(2))], 2), False)

    def test_slow_cycles_match_the_oracles(self, monkeypatch):
        # clock constants up to 8 on periods of 1/4 to 2, so that the
        # membership often sweeps several loop-head configurations; every
        # third word has an empty prefix, and letters range over two atoms.
        # Translated formulas are also checked by the evaluator
        swept = []  # per word, the heads swept over one turn of the cycle
        advance = AutomatonProduct.advance

        def counted(product, sources, steps):
            swept[-1] += 1
            return advance(product, sources, steps)

        monkeypatch.setattr(AutomatonProduct, "advance", counted)
        rng = random.Random(59)
        atoms = ["p", "q"]
        letters = [frozenset(c) for r in range(len(atoms) + 1)
                   for c in itertools.combinations(atoms, r)]
        verdicts = {True: 0, False: 0}
        empty = paired = 0
        for trial in range(240):
            formula = None
            if trial % 2:
                automaton = random_automaton(rng, letters)
            else:
                formula = random_fragment_formula(rng, atoms)
                automaton = translate_mitl(formula, alphabet=set(atoms))
            w = random_lasso_word(rng, atoms,
                                  max_prefix=0 if trial % 3 == 0 else 3,
                                  stamp_unit=Q(1, 4))
            swept.append(-1)  # the first sweep is over the prefix
            got = accepts_lasso(automaton, w)
            assert got == lasso_product_oracle(automaton, w)[0], trial
            if formula is not None:
                assert got == satisfies(w, formula), (trial, formula)
            verdicts[got] += 1
            empty += not w.prefix
            paired += frozenset(atoms) in w.payloads
        assert verdicts[True] > 30 and verdicts[False] > 100
        assert empty > 80 and paired > 70
        assert sum(heads >= 3 for heads in swept) > 25

    def test_membership_builds_no_product_successors(self, monkeypatch):
        calls = []
        compute = AutomatonProduct.successors

        def counted(product, state):
            calls.append(state)
            return compute(product, state)

        monkeypatch.setattr(AutomatonProduct, "successors", counted)
        rng = random.Random(61)
        for text in ("G F[0,2] p", "F[0,3] q", "p U[1,4] q"):
            formula = parse_formula(text)
            automaton = translate_mitl(formula, alphabet={"p", "q"})
            for _ in range(20):
                w = random_lasso_word(rng, ["p", "q"])
                assert accepts_lasso(automaton, w) == satisfies(w, formula)
        assert calls == []
        # the counter sees the planner's products
        system = WeightedTransitionSystem(
            states=("s",), initial=frozenset({"s"}), weights={("s", "s"): 1},
            atoms=frozenset(), labels={})
        product = LocalProduct(system, universal_tba(frozenset()))
        product.successors(product.initial_states()[0])
        assert len(calls) == 1


class TestDeepWords:
    """A word of 100,000 positions whose cycle is its second half: the
    sweeps hold one position at a time, without recursion."""

    LENGTH = 100_000

    def word(self, marked):
        half = self.LENGTH // 2
        events = [(frozenset({"p"}) if i == marked else frozenset(), Q(i))
                  for i in range(self.LENGTH)]
        return LassoTimedWord(prefix=tuple(events[:half]),
                              cycle=tuple(events[half:]), period=Q(half))

    def test_a_mark_on_the_cycle_accepts(self):
        automaton = translate_mitl(parse_formula("G F p"))
        assert accepts_lasso(automaton, self.word(3 * self.LENGTH // 4))

    def test_a_mark_on_the_stem_does_not(self):
        automaton = translate_mitl(parse_formula("G F p"))
        assert not accepts_lasso(automaton, self.word(self.LENGTH // 4))


class TestIntersect:
    def test_universal_is_identity(self):
        rng = random.Random(4)
        automaton = translate_mitl(parse_formula("F[0,6] p"))
        both = intersect(automaton, universal_tba({"p"}))
        for _ in range(15):
            w = random_lasso_word(rng, ["p"])
            assert accepts_lasso(both, w) == accepts_lasso(automaton, w)

    def test_empty_is_annihilator(self):
        rng = random.Random(5)
        automaton = translate_mitl(parse_formula("F[0,6] p"))
        nothing = intersect(automaton, empty_tba({"p"}))
        for _ in range(10):
            assert not accepts_lasso(nothing, random_lasso_word(rng, ["p"]))

    def test_conjunction_of_deadlines(self):
        a = translate_mitl(parse_formula("F[0,6] p"), alphabet={"p"})
        b = translate_mitl(parse_formula("F[0,12] q"), alphabet={"q"})
        both = intersect(a, b)
        joint = word([(set(), Q(0)), ({"p"}, Q(6)), ({"q"}, Q(8))],
                     [(set(), Q(9))], 1)
        assert accepts_lasso(both, joint)
        assert satisfies(joint, parse_formula("F[0,6] p & F[0,12] q"))
        too_late = word([(set(), Q(0)), ({"q"}, Q(8)), ({"p"}, Q(9))],
                        [(set(), Q(10))], 1)
        assert not accepts_lasso(both, too_late)

    def test_shared_atoms_must_agree(self):
        a = translate_mitl(parse_formula("G[0,inf) p"), alphabet={"p"})
        b = translate_mitl(parse_formula("F[0,5] p"), alphabet={"p"})
        both = intersect(a, b)
        w_yes = word([], [({"p"}, Q(0))], 2)
        w_no = word([], [(set(), Q(0)), ({"p"}, Q(1))], 2)
        assert accepts_lasso(both, w_yes)
        assert not accepts_lasso(both, w_no)

    LETTERS = [frozenset(), frozenset({"p"}), frozenset({"q"}),
               frozenset({"p", "q"})]

    def draw(self, rng, translated: bool):
        """An automaton of one acceptance set, as the reference takes."""
        if translated:
            return translate_mitl(random_fragment_formula(
                rng, ["p", "q"], allow_and=False), alphabet={"p", "q"})
        return random_automaton(rng, self.LETTERS, size=3)

    def test_matches_the_reference_intersection(self):
        # the product of acceptance sets accepts the words that the
        # degeneralizing reference does, nested three deep as well, with
        # the universal and the empty automaton among the operands
        rng = random.Random(26)
        words = [random_lasso_word(rng, ["p", "q"]) for _ in range(8)]
        verdicts = {True: 0, False: 0}
        for trial in range(24):  # each of the four kinds of pair, in turn
            a = self.draw(rng, translated=trial % 2)
            b = self.draw(rng, translated=trial // 2 % 2)
            c = [universal_tba({"p", "q"}), empty_tba({"p", "q"}),
                 self.draw(rng, translated=True)][trial % 3]
            pairs = [(intersect(a, b), reference_intersect(a, b))]
            pairs.append((intersect(pairs[0][0], c),
                          reference_intersect(pairs[0][1], c)))
            pairs.append((intersect(c, pairs[0][0]),
                          reference_intersect(c, pairs[0][1])))
            for both, reference in pairs:
                for w in words:
                    expected = accepts_lasso(reference, w)
                    assert accepts_lasso(both, w) == expected, trial
                    verdicts[expected] += 1
        assert min(verdicts.values()) > 20, verdicts

    def test_sets_follow_the_operands(self):
        # la|lb per pair of locations, one edge per pair of edges, and
        # a's sets then b's; an empty set stays, so nothing is accepted
        a = translate_mitl(parse_formula("G F[<=3] p & G F[<=3] q"))
        b = empty_tba({"p", "q"})
        both = intersect(a, b)
        assert both.locations == tuple(
            f"{la}|dead" for la in a.locations)
        assert len(both.edges) == len(a.edges) == 16
        assert both.accepting == (*({f"{la}|dead" for la in held}
                                    for held in a.accepting), frozenset())
        assert both.all_marks == 0b111
        assert both.marks["hit|hit|dead"] == 0b011
        assert tba_from_dict(json.loads(json.dumps(tba_to_dict(both)))) == both
        rng = random.Random(3)
        for _ in range(20):
            w = random_lasso_word(rng, ["p", "q"])
            assert not accepts_lasso(both, w)

    def test_equal_parts_are_one_object(self):
        rng = random.Random(27)
        pairs = [(translate_mitl(parse_formula(
            "G F[<=12] !f & G(!c -> X G[<=9] !!c)")),
                  translate_mitl(parse_formula("b U[<=11] !e")))]
        pairs += [(self.draw(rng, translated=i % 2), self.draw(rng, False))
                  for i in range(10)]
        for a, b in pairs:
            both = intersect(a, b)
            assert len(both.locations) == len(a.locations) * len(b.locations)
            assert len(both.edges) == sum(
                len(a.edges_from(la)) * len(b.edges_from(lb))
                for la, lb in itertools.product(a.locations, b.locations))
            # each conjunction is built once: equal invariants, guards and
            # labels are one object
            parts = {"invariant": list(both.invariants.values())}
            for part in ("guard", "label"):
                parts[part] = [getattr(edge, part) for edge in both.edges]
            for part, objects in parts.items():
                assert len(set(map(id, objects))) == len(set(objects)), part


class TestOracleAgreement:
    def test_translated_automata_match_the_evaluator(self):
        rng = random.Random(97)
        words = [random_lasso_word(rng, ["p", "q"]) for _ in range(40)]
        for trial in range(30):
            formula = random_fragment_formula(rng, ["p", "q"])
            automaton = translate_mitl(formula, alphabet={"p", "q"})
            for w in words:
                assert accepts_lasso(automaton, w) == satisfies(w, formula), (
                    trial, formula, w)


class TestScalingInvariance:
    def test_membership_survives_integer_rescaling(self):
        rng = random.Random(13)
        for _ in range(20):
            formula = random_fragment_formula(rng, ["p"])
            automaton = translate_mitl(formula, alphabet={"p"})
            w = random_lasso_word(rng, ["p"])
            denominators = [w.period.denominator]
            denominators += [t.denominator for _, t in w.prefix + w.cycle]
            denominators += [c.denominator for c in automaton.constants()]
            factor = lcm(*denominators)
            scaled_word = stamps_scaled(w, factor)
            scaled_automaton = automaton.scaled(factor)
            assert (accepts_lasso(automaton, w)
                    == accepts_lasso(scaled_automaton, scaled_word))
