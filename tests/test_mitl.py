import dataclasses
import pickle
import random
from fractions import Fraction as Q

import pytest

from mitlplan.core import INFINITY, LassoTimedWord, TimeInterval
from mitlplan.mitl import (Always, And, Atom, Eventually, Formula,
                           Implies, MitlSyntaxError, Next, Not, Or,
                           PunctualIntervalError, TrueFormula, Until,
                           _Evaluator, compile_formula, evaluate_at,
                           first_violation, format_formula, normalize,
                           parse_formula, satisfies)
from oracles import (brute_force_evaluate, evaluate_constraint,
                     formula_horizon, label_holds, random_bounded_formula,
                     random_clock_constraint, random_interval,
                     random_lasso_word, random_propositional)


def word(prefix, cycle, period):
    return LassoTimedWord(prefix=tuple(prefix), cycle=tuple(cycle), period=Q(period))


# Corridor fixtures: the reference run fragments plus a benign repeating tail.
AGENT1_WORD = word([], [({"green"}, Q(0)), (set(), Q(1)),
                        (set(), Q(5, 2)), (set(), Q(3))], 5)
AGENT2_WORD = word([(set(), Q(0))],
                   [(set(), Q(2)), ({"red"}, Q(5, 2))], Q(5, 2))
COLLECTIVE_WORD = word(
    [({"green"}, Q(0)), (set(), Q(1)), (set(), Q(2)),
     ({"red"}, Q(5, 2)), ({"red"}, Q(3)), (set(), Q(9, 2))],
    [({"green", "red"}, Q(5)), ({"red"}, Q(6)), (set(), Q(7)),
     ({"red"}, Q(15, 2)), ({"red"}, Q(8)), (set(), Q(19, 2))],
    5)


class TestParser:
    def test_deadline_shorthand(self):
        got = parse_formula("F[<=6] recharge1")
        assert got == Eventually(TimeInterval(Q(0), Q(6)), Atom("recharge1"))

    def test_response_formula(self):
        got = parse_formula("G[0,inf) (red -> X[0,inf) G[<=5] !red)")
        expected = Always(
            TimeInterval(Q(0), INFINITY, True, False),
            Implies(Atom("red"),
                    Next(TimeInterval(Q(0), INFINITY, True, False),
                         Always(TimeInterval(Q(0), Q(5)), Not(Atom("red"))))))
        assert got == expected
        assert parse_formula("G(red -> X G[<=5] !red)") == expected

    def test_atom(self):
        assert parse_formula("p") == Atom("p")

    def test_precedence(self):
        assert parse_formula("p U q & r") == And(
            Until(TimeInterval(Q(0), INFINITY, True, False), Atom("p"), Atom("q")),
            Atom("r"))
        assert parse_formula("a & b | c -> d") == Implies(
            Or(And(Atom("a"), Atom("b")), Atom("c")), Atom("d"))
        assert parse_formula("a U b U c") == parse_formula("a U (b U c)")

    def test_interval_shapes(self):
        assert parse_formula("F(1,3] p") == Eventually(
            TimeInterval(Q(1), Q(3), False, True), Atom("p"))
        assert parse_formula("F[1/2,3.5) p") == Eventually(
            TimeInterval(Q(1, 2), Q(7, 2), True, False), Atom("p"))

    def test_round_trip(self):
        texts = [
            "F[<=6] recharge1",
            "G(red -> X G[<=5] !red)",
            "(a -> b) U[1,4) (c | !d)",
            "true & !false",
            "G F[0,10] p",
            "X[1,2] p U q",
        ]
        for text in texts:
            ast = parse_formula(text)
            assert parse_formula(format_formula(ast)) == ast

    def test_errors(self):
        with pytest.raises(MitlSyntaxError):
            parse_formula("F[6,0] p")
        with pytest.raises(PunctualIntervalError):
            parse_formula("F[2,2] p")
        with pytest.raises(MitlSyntaxError):
            parse_formula("p &&")
        with pytest.raises(MitlSyntaxError):
            parse_formula("F[1,2 p")
        with pytest.raises(MitlSyntaxError):
            parse_formula("@")
        with pytest.raises(MitlSyntaxError):
            parse_formula("")

    def test_error_carries_position(self):
        with pytest.raises(MitlSyntaxError) as info:
            parse_formula("p & @")
        assert info.value.line == 1
        assert info.value.column == 4


class TestNormalize:
    def test_desugars_or_implies(self):
        got = normalize(parse_formula("a | b -> c"))
        assert got == Not(And(Not(And(Not(Atom("a")), Not(Atom("b")))),
                              Not(Atom("c"))))


class TestHash:
    def test_each_node_hashes_once_to_its_field_tuple_hash(self):
        formula = parse_formula("G[<=3] (a -> F[1,4] (b & !c)) U d")
        nodes = []

        def walk(node):
            nodes.append(node)
            for child in vars(node).values():
                if isinstance(child, Formula):
                    walk(child)

        walk(formula)
        assert hash(formula) == hash(parse_formula(format_formula(formula)))
        for node in nodes:
            fields = tuple(getattr(node, f.name)
                           for f in dataclasses.fields(node))
            assert node._hash == hash(fields)
        assert hash(Atom("a")) == hash(("a",))

    def test_a_pickled_formula_hashes_afresh(self):
        formula = parse_formula("a U[<=2] !b")
        hash(formula)
        again = pickle.loads(pickle.dumps(formula))
        assert "_hash" not in vars(again)
        assert again == formula and hash(again) == hash(formula)


class TestEvaluator:
    def test_response_bound_five_fails_on_agent2(self):
        # the second red lands 5/2 after the first, inside the 5-unit window
        phi = parse_formula("G(red -> X G[<=5] !red)")
        assert evaluate_at(AGENT2_WORD, 0, phi) is False

    def test_response_bound_two_on_collective_and_agent(self):
        phi = parse_formula("G(red -> X G[<=2] !red)")
        assert satisfies(AGENT2_WORD, phi) is True
        assert satisfies(COLLECTIVE_WORD, phi) is False
        assert first_violation(COLLECTIVE_WORD, phi) == (3, Q(5, 2))

    def test_true_everywhere(self):
        for i in [0, 1, 5, 9]:
            assert evaluate_at(AGENT2_WORD, i, TrueFormula())

    def test_bounded_eventually(self):
        w = word([(set(), Q(0)), ({"p"}, Q(3))], [(set(), Q(5))], 5)
        # brute-force derived: witness at stamp 3
        assert satisfies(w, parse_formula("F[0,4] p")) is True
        assert satisfies(w, parse_formula("F[0,2] p")) is False

    def test_deadline_examples(self):
        w1 = word([(set(), Q(0)), (set(), Q(2)), (set(), Q(4)),
                   ({"recharge1"}, Q(6))], [(set(), Q(8))], 2)
        assert satisfies(w1, parse_formula("F[<=6] recharge1"))
        w2 = word([(set(), Q(0)), (set(), Q(4)), (set(), Q(6)),
                   ({"recharge2"}, Q(8))], [(set(), Q(10))], 2)
        assert satisfies(w2, parse_formula("F[<=12] recharge2"))

    def test_atom_on_empty_labels(self):
        w = word([], [(set(), Q(0))], 1)
        assert not satisfies(w, Atom("p"))

    def test_evaluation_at_deep_positions_is_periodic(self):
        phi = parse_formula("F[0,3] red & X !red")
        cl = AGENT2_WORD.cycle_length
        p = AGENT2_WORD.prefix_length
        for base in range(p, p + cl):
            assert (evaluate_at(AGENT2_WORD, base, phi)
                    == evaluate_at(AGENT2_WORD, base + 3 * cl, phi))

    def test_unbounded_until(self):
        w = word([({"a"}, Q(0)), ({"a"}, Q(1))], [({"b"}, Q(2)), ({"a"}, Q(3))], 2)
        assert satisfies(w, parse_formula("a U b"))
        assert satisfies(w, parse_formula("a U[2,inf) b"))
        assert not satisfies(w, parse_formula("a U[3,inf) b"))  # a breaks at 2

    def test_first_violation_on_agent2_with_bound_five(self):
        phi = parse_formula("G(red -> X G[<=5] !red)")
        assert first_violation(AGENT2_WORD, phi) == (2, Q(5, 2))

    def test_first_violation_none_when_satisfied(self):
        assert first_violation(AGENT1_WORD, parse_formula("G F[<=10] green")) is None

    def test_first_violation_descends_into_the_failing_conjunct(self):
        # either side fails; the witness is that side's first in-window
        # position where p fails, by the brute force
        w = word([({"p"}, Q(0))], [({"p"}, Q(1)), (set(), Q(2))], 2)
        for text in ("F[0,3] p & G[5,8] p", "(G[5,8] p) & F[0,3] p"):
            phi = parse_formula(text)
            assert not brute_force_evaluate(w, 0, phi)
            position, stamp = first_violation(w, phi)
            assert position > 0 and stamp == w.stamp_at(position)
            window = [i for i in range(position + 1) if w.stamp_at(i) >= 5]
            assert [brute_force_evaluate(w, i, Atom("p")) for i in window] \
                == [True] * (len(window) - 1) + [False]

    def test_first_violation_in_a_later_cycle_turn(self):
        # the window opens at time 5, in the third turn of the cycle, and
        # the first failure of the body is the gap position at time 6
        w = word([({"p"}, Q(0))], [({"p"}, Q(1)), (set(), Q(2))], 2)
        assert first_violation(w, parse_formula("G[5,8] p")) == (6, Q(6))
        assert first_violation(w, parse_formula("G[5,8] F[0,1/2] p")) == (6, Q(6))
        assert first_violation(w, parse_formula("G[5,8] (p | X[0,3] p)")) is None

    def test_quantifier_cost_does_not_grow_with_the_window(self, monkeypatch):
        # p holds everywhere, so a window scanner reads every position of
        # every inner window; the tables read each position once
        w = word([], [({"p"}, Q(t, 2)) for t in range(1200)], 600)
        calls = []
        holds = _Evaluator.holds

        def counted(self, node, i, anchor):
            calls.append(i)
            return holds(self, node, i, anchor)

        monkeypatch.setattr(_Evaluator, "holds", counted)
        counts = []
        for bound in (5, 50):
            calls.clear()
            assert satisfies(w, parse_formula(f"G G[<={bound}] p"))
            counts.append(len(calls))
        assert counts[0] == counts[1]


# names a compiler that spliced them into code text would break or alias
CODE_NAMES = ["v", "c0", "not", "True", "lambda"]


def _letters(atoms):
    return [frozenset(a for k, a in enumerate(atoms) if bits >> k & 1)
            for bits in range(2 ** len(atoms))]


class TestCompileFormula:
    def test_labels_agree_with_the_brute_force_on_every_letter(self):
        rng = random.Random(31)
        labels = [random_propositional(rng, CODE_NAMES, depth=3)
                  for _ in range(120)]
        labels += [parse_formula(text) for text in (
            "v", "c0 & !not", "True | lambda", "lambda -> v", "!(c0 -> True)",
            "true", "false", "false | v", "!true & c0", "not -> false")]
        for label in labels:
            check = compile_formula(label)
            for letter in _letters(CODE_NAMES):
                assert check(letter) == label_holds(label, letter), \
                    (format_formula(label), sorted(letter))

    def test_clock_constraints_agree_with_the_reference(self):
        rng = random.Random(32)
        clocks = ("c0", "lambda", "v")
        for _ in range(200):
            constraint = random_clock_constraint(rng, clocks, depth=3)
            check = compile_formula(constraint, clocks)
            for _ in range(10):
                values = [Q(rng.randrange(0, 11), rng.choice([1, 2]))
                          for _ in clocks]
                assert check(tuple(values)) == evaluate_constraint(
                    constraint, dict(zip(clocks, values)))


class TestProperties:
    def test_brute_force_agreement_on_bounded_formulas(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(220):
            w = random_lasso_word(rng, ["p", "q"])
            phi = random_bounded_formula(rng, ["p", "q"], depth=2)
            position = rng.randrange(0, 3)
            expected = brute_force_evaluate(w, position, phi)
            assert evaluate_at(w, position, phi) == expected
            checked += 1
        assert checked == 220

    def test_brute_force_agreement_with_constants_past_the_cycle(self):
        # true and false leaves, at positions the evaluator reduces into
        # the cycle before it reads a propositional node's truth
        rng = random.Random(2027)
        for _ in range(150):
            w = random_lasso_word(rng, ["p", "q"])
            phi = random_bounded_formula(rng, ["p", "q"], depth=2,
                                         constants=True)
            size = w.prefix_length + w.cycle_length
            for position in (size, size + rng.randrange(1, 2 * size + 2)):
                expected = brute_force_evaluate(w, position, phi)
                assert evaluate_at(w, position, phi) == expected

    def test_brute_force_agreement_at_mixed_denominators(self):
        # stamps in thirds, interval bounds in halves, fifths and sevenths:
        # the evaluator counts time in units of 1/210 or a divisor of it
        rng = random.Random(2025)
        for _ in range(150):
            w = random_lasso_word(rng, ["p", "q"], stamp_unit=Q(1, 3))
            phi = random_bounded_formula(rng, ["p", "q"], depth=2,
                                         denominators=(2, 5, 7))
            for position in range(3):
                expected = brute_force_evaluate(w, position, phi)
                assert evaluate_at(w, position, phi) == expected

    def test_brute_force_agreement_at_depth_three_over_many_turns(self):
        # stamps in units of 1, 1/3 and 1/7 against interval bounds over 1,
        # 2 and 5; positions 5 and 11 lie past prefix + cycle, and short
        # cycles put several turns inside the nested windows
        rng = random.Random(2028)
        wide = 0
        for trial in range(300):
            w = random_lasso_word(rng, ["p", "q"],
                                  stamp_unit=(Q(1), Q(1, 3), Q(1, 7))[trial % 3])
            phi = random_bounded_formula(rng, ["p", "q"], depth=3,
                                         denominators=(1, 2, 5))
            wide += formula_horizon(phi) >= 2 * w.period
            for position in (0, 1, 5, 11):
                expected = brute_force_evaluate(w, position, phi)
                assert evaluate_at(w, position, phi) == expected, \
                    (format_formula(phi), w, position)
        assert wide >= 60

    def test_first_violation_in_later_turns_matches_a_scan(self):
        # windows open a few periods on, so the first failure lies at a
        # position of a later cycle turn
        rng = random.Random(2029)
        later = 0
        for _ in range(150):
            w = random_lasso_word(rng, ["p", "q"], stamp_unit=Q(1, 3))
            body = random_bounded_formula(rng, ["p", "q"], depth=1,
                                          denominators=(1, 2, 5))
            shift = w.period * rng.randrange(1, 4)
            interval = random_interval(rng, denominators=(1, 2, 5))
            interval = TimeInterval(interval.lower + shift,
                                    interval.upper + shift,
                                    interval.lower_closed,
                                    interval.upper_closed)
            expected = None
            j = 0
            while w.stamp_at(j) - w.stamp_at(0) <= interval.upper:
                if (interval.contains(w.stamp_at(j) - w.stamp_at(0))
                        and not brute_force_evaluate(w, j, body)):
                    expected = (j, w.stamp_at(j))
                    break
                j += 1
            assert first_violation(w, Always(interval, body)) == expected
            size = w.prefix_length + w.cycle_length
            later += expected is not None and expected[0] >= size
        assert later >= 30

    def test_first_violation_matches_a_scan_at_mixed_denominators(self):
        rng = random.Random(2026)
        violated = 0
        for _ in range(150):
            w = random_lasso_word(rng, ["p", "q"], stamp_unit=Q(1, 3))
            body = random_bounded_formula(rng, ["p", "q"], depth=1,
                                          denominators=(2, 5, 7))
            interval = random_interval(rng, denominators=(2, 5, 7))
            expected = None
            j = 0
            while w.stamp_at(j) - w.stamp_at(0) <= interval.upper:
                if (interval.contains(w.stamp_at(j) - w.stamp_at(0))
                        and not brute_force_evaluate(w, j, body)):
                    expected = j
                    break
                j += 1
            found = first_violation(w, Always(interval, body))
            if expected is None:
                assert found is None
                continue
            position, stamp = found
            assert position == expected
            assert isinstance(stamp, Q) and stamp == w.stamp_at(expected)
            violated += 1
        assert violated >= 30

    def test_negation_duality(self):
        rng = random.Random(5)
        for _ in range(120):
            w = random_lasso_word(rng, ["p", "q"])
            phi = random_bounded_formula(rng, ["p", "q"], depth=2)
            assert evaluate_at(w, 0, Not(phi)) == (not evaluate_at(w, 0, phi))

    def test_always_eventually_duality(self):
        rng = random.Random(6)
        for _ in range(120):
            w = random_lasso_word(rng, ["p", "q"])
            body = random_bounded_formula(rng, ["p", "q"], depth=1)
            bounded = rng.random() < 0.5
            interval = random_interval(rng, bounded=bounded)
            left = Always(interval, body)
            right = Not(Eventually(interval, Not(body)))
            assert evaluate_at(w, 0, left) == evaluate_at(w, 0, right)

    def test_invariant_under_word_redescription(self):
        # the same infinite word described with a tripled cycle or a longer
        # prefix must evaluate identically; this exercises the cycle-window
        # reduction for unbounded operators from a different angle
        from oracles import random_fragment_formula

        def triple_cycle(w):
            cycle = []
            for turn in range(3):
                shift = turn * w.period
                cycle.extend((a, t + shift) for a, t in w.cycle)
            return LassoTimedWord(prefix=w.prefix, cycle=tuple(cycle),
                                  period=w.period * 3)

        def push_prefix(w):
            return LassoTimedWord(
                prefix=tuple(w.prefix) + tuple(w.cycle),
                cycle=tuple((a, t + w.period) for a, t in w.cycle),
                period=w.period)

        rng = random.Random(404)
        for trial in range(150):
            w = random_lasso_word(rng, ["p", "q"])
            if trial % 2:
                phi = random_bounded_formula(rng, ["p", "q"], depth=2)
            else:
                phi = random_fragment_formula(rng, ["p", "q"])
            for position in (0, 2):
                base = evaluate_at(w, position, phi)
                assert evaluate_at(triple_cycle(w), position, phi) == base
                assert evaluate_at(push_prefix(w), position, phi) == base

    def test_local_satisfaction_differs_from_collective(self):
        # the same formula can hold on an agent's own word yet fail on the
        # merged team word, and planners must not conflate the two
        phi1 = parse_formula("G F[<=10] green")
        phi2 = parse_formula("G(red -> X G[<=2] !red)")
        assert satisfies(AGENT1_WORD, phi1)
        assert satisfies(AGENT2_WORD, phi2)
        assert not satisfies(COLLECTIVE_WORD, And(phi1, phi2))
