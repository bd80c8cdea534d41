import random
from fractions import Fraction as Q

import pytest

from mitlplan.core import INFINITY, LassoTimedWord, TimeInterval
from mitlplan.mitl import (Always, And, Atom, Eventually,
                           Implies, MitlSyntaxError, Next, Not, Or,
                           PunctualIntervalError, TrueFormula, Until,
                           evaluate_at, first_violation, format_formula,
                           normalize, parse_formula, satisfies)
from oracles import brute_force_evaluate, random_bounded_formula, random_lasso_word


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

    def test_first_violation_matches_a_scan_at_mixed_denominators(self):
        from oracles import random_interval
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
            from oracles import random_interval
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
