import dataclasses
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction
from fractions import Fraction as Q

import pytest

from mitlplan.core import (INFINITY, InputError, LassoTimedWord, TimeInterval,
                           UNIT_INTERVAL, format_rational, parse_rational)
from mitlplan.mitl import (Always, And, Atom, Compare, Eventually,
                           FalseFormula, Formula, Implies, MitlSyntaxError,
                           Next, Not, Or, PunctualIntervalError, TrueFormula,
                           Until, _Evaluator, compile_formula, evaluate_at,
                           first_violation, format_formula, normalize,
                           parse_constraint, parse_formula, satisfies)
from oracles import (brute_force_evaluate, evaluate_constraint,
                     formula_horizon, label_holds, random_bounded_formula,
                     random_clock_constraint, random_fragment_formula,
                     random_interval, random_lasso_word, random_propositional)


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
        # lines count from 1 and columns from 0, a tab as one column
        for text, message in (("a &\n  )", "2:2: unexpected ')'"),
                              ("\n\n", "3:0: unexpected end of input"),
                              ("p\n\t& @", "2:3: unknown token '@'")):
            with pytest.raises(MitlSyntaxError) as info:
                parse_formula(text)
            assert str(info.value) == message

    def test_interval_messages_print_the_interval_as_written(self):
        with pytest.raises(MitlSyntaxError, match=r"^1:1: malformed interval "
                           r"\[3,2\]: lower bound exceeds upper$"):
            parse_formula("F[3,2] p")
        with pytest.raises(PunctualIntervalError, match=r"^punctual interval "
                           r"\(1,1\] is not allowed on temporal operators$"):
            parse_formula("F(1,1] p")

    def test_numeric_characters_that_are_not_decimal_digits_start_a_name(self):
        # ``re``'s name rule: a letter, a numeric character other than a
        # decimal digit, or ``_``, then word characters
        for text in ("\u00b2", "\u00bd", "\u216b", "p\u00b2"):
            assert parse_formula(text) == Atom(text)


# --- the formula parser as first written -----------------------------------
#
# The reference for parse_formula and parse_constraint: the parser that
# walked the text one character at a time and had one method per
# precedence level.  It lives here, not in oracles.py, because the
# benchmark imports oracles.py in every pass, and a larger module to
# compile raises the pass's peak memory.

# a copy of the package's grammar constants, so that the reference reads
# the language as it was defined, whatever the package does with them
_KEYWORDS = {"U", "X", "F", "G", "true", "false", "inf"}
_UNARY = {"X": Next, "F": Eventually, "G": Always}
_RELATIONS = ("<", "<=", ">", ">=", "=")
MAX_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 0

    def error(self, message):
        raise MitlSyntaxError(message, self.line, self.col)

    def _advance(self, n=1):
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 0
            else:
                self.col += 1
            self.pos += 1

    def tokens(self):
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self._advance()
                continue
            start = (self.line, self.col)
            if self.text.startswith("->", self.pos):
                out.append(("->", "->", start))
                self._advance(2)
            elif self.text.startswith(("<=", ">=", "=="), self.pos):
                text = self.text[self.pos:self.pos + 2]
                out.append(("=" if text == "==" else text, text, start))
                self._advance(2)
            elif ch in "!&|()[],<>=":
                out.append((ch, ch, start))
                self._advance()
            elif ch.isdigit():
                j = self.pos
                while j < len(self.text) and (self.text[j].isdigit()
                                              or self.text[j] in "./"):
                    j += 1
                number = self.text[self.pos:j]
                self._advance(j - self.pos)
                out.append(("number", number, start))
            elif ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(self.text) and (self.text[j].isalnum()
                                              or self.text[j] == "_"):
                    j += 1
                word = self.text[self.pos:j]
                self._advance(j - self.pos)
                kind = word if word in _KEYWORDS else "name"
                out.append((kind, word, start))
            else:
                self.error(f"unknown token {ch!r}")
        out.append(("end", "", (self.line, self.col)))
        return out


class _Parser:
    """Recursive descent for: unary (!, X, F, G) > U > & > | > -> .

    With ``clocks`` set it reads a guard or an invariant instead: ``true``,
    ``!``, ``&``, parentheses and clock comparisons, where any word
    followed by a relation names a clock, keywords included.

    A formula whose tree is more than :data:`MAX_DEPTH` levels deep, each
    ``&`` or ``|`` of a chain counting as one, or that opens more than
    that many operands and parentheses one inside the other, is a syntax
    error at the operator or parenthesis where it goes too deep."""

    def __init__(self, text: str, clocks=False):
        self.tokens = _Tokenizer(text).tokens()
        self.index = 0
        self.clocks = clocks
        self.open = 0  # operands being read, each inside the last
        self.heights: dict = {}  # id of a node built here -> its tree's depth

    def peek(self):
        return self.tokens[self.index]

    def take(self, kind=None):
        token = self.tokens[self.index]
        if kind is not None and token[0] != kind:
            self.error(f"expected {kind!r}, found {token[1]!r}" if token[1]
                       else f"expected {kind!r}, found end of input", token)
        self.index += 1
        return token

    def error(self, message, token=None):
        token = token or self.peek()
        line, col = token[2]
        raise MitlSyntaxError(message, line, col)

    def too_deep(self, token):
        self.error(f"formula nested deeper than {MAX_DEPTH} levels", token)

    @contextmanager
    def operand_of(self, token):
        """Reads the operand of the operator or parenthesis at ``token``,
        one level further in."""
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(token)
        yield
        self.open -= 1

    def built(self, formula: Formula, token) -> Formula:
        """``formula``, the node of the operator at ``token`` over operands
        that this parser returned, unless its tree is too deep."""
        height = 1 + max((self.heights.get(id(part), 1)
                          for part in vars(formula).values()
                          if isinstance(part, Formula)), default=0)
        if height > MAX_DEPTH:
            self.too_deep(token)
        self.heights[id(formula)] = height
        return formula

    def parse(self) -> Formula:
        formula = self.expression()
        if self.peek()[0] != "end":
            self.error(f"unexpected {self.peek()[1]!r}")
        return formula

    def expression(self) -> Formula:
        return self.conjunction() if self.clocks else self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            token = self.take()
            with self.operand_of(token):
                return self.built(Implies(left, self.implication()), token)
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            token = self.take()
            left = self.built(Or(left, self.conjunction()), token)
        return left

    def conjunction(self) -> Formula:
        operand = self.unary if self.clocks else self.until
        left = operand()
        while self.peek()[0] == "&":
            token = self.take()
            left = self.built(And(left, operand()), token)
        return left

    def until(self) -> Formula:
        left = self.unary()
        if self.peek()[0] == "U":
            token = self.take()
            interval = self.maybe_interval()
            with self.operand_of(token):  # right-associative
                return self.built(Until(interval, left, self.until()), token)
        return left

    def unary(self) -> Formula:
        token = self.peek()
        kind = token[0]
        if kind == "!":
            self.take()
            with self.operand_of(token):
                return self.built(Not(self.unary()), token)
        if kind == "(":
            self.take()
            with self.operand_of(token):
                inner = self.expression()
            self.take(")")
            return inner
        if self.clocks:
            return self.clock_leaf()
        if kind in _UNARY:
            self.take()
            interval = self.maybe_interval()
            with self.operand_of(token):
                return self.built(_UNARY[kind](interval, self.unary()), token)
        if kind == "true":
            self.take()
            return TrueFormula()
        if kind == "false":
            self.take()
            return FalseFormula()
        if kind == "name":
            return Atom(self.take()[1])
        self.error(f"unexpected {self.peek()[1]!r}" if self.peek()[1]
                   else "unexpected end of input")

    def clock_leaf(self) -> Formula:
        """``true``, or a comparison: a word, a relation and a constant."""
        kind, word, _ = self.peek()
        if (kind == "name" or kind in _KEYWORDS) and \
                self.tokens[self.index + 1][0] in _RELATIONS:
            self.take()
            relation = self.take()[0]
            return Compare(word, relation, self.rational())
        if kind == "true":
            self.take()
            return TrueFormula()
        self.error(f"expected a clock comparison, found {word!r}" if word
                   else "expected a clock comparison, found end of input")

    def maybe_interval(self) -> TimeInterval:
        # an open paren starts an interval only when a bound follows;
        # otherwise it groups a subformula, as in "G(red -> ...)"
        kind = self.peek()[0]
        if kind == "(" and self.tokens[self.index + 1][0] not in ("number", "<="):
            return UNIT_INTERVAL
        if kind not in ("[", "("):
            return UNIT_INTERVAL
        open_token = self.take()
        lower_closed = open_token[0] == "["
        if self.peek()[0] == "<=":
            if not lower_closed:
                self.error("the <= shorthand requires [<=b]")
            self.take()
            bound = self.rational()
            close = self.take()
            if close[0] != "]":
                self.error("the <= shorthand requires [<=b]", close)
            return self.build_interval(Fraction(0), bound, True, True, open_token)
        lower = self.rational()
        self.take(",")
        if self.peek()[0] == "inf":
            self.take()
            upper = INFINITY
        else:
            upper = self.rational()
        close = self.take()
        if close[0] not in ("]", ")"):
            self.error(f"expected interval close, found {close[1]!r}", close)
        upper_closed = close[0] == "]"
        return self.build_interval(lower, upper, lower_closed, upper_closed,
                                   open_token)

    def build_interval(self, lower, upper, lower_closed, upper_closed, token):
        lo = "[" if lower_closed else "("
        hi = "]" if upper_closed else ")"
        text = (f"{lo}{format_rational(lower)},"
                f"{format_rational(upper)}{hi}")
        if upper is not INFINITY:
            if lower == upper:
                raise PunctualIntervalError(
                    f"punctual interval {text} is not allowed on temporal operators")
            if lower > upper:
                self.error(f"malformed interval {text}: lower bound exceeds upper",
                           token)
        return TimeInterval(lower, upper, lower_closed, upper_closed)

    def rational(self) -> Fraction:
        token = self.take()
        if token[0] != "number":
            self.error(f"expected a number, found {token[1]!r}" if token[1]
                       else "expected a number, found end of input", token)
        try:
            return parse_rational(token[1])
        except InputError as exc:
            self.error(str(exc), token)


def reference_parse(text: str, clocks=False) -> Formula:
    """What ``parse_formula`` (``parse_constraint`` with ``clocks``) read
    when it walked the text character by character and had one method per
    precedence level: the same tree, or the same error and position."""
    return _Parser(text, clocks).parse()


# the pieces that random texts for the parsers are made of
_PIECES = ("!", "&", "|", "->", "U", "X", "F", "G", "(", ")", "[", "]", ",",
           "<", "<=", ">", ">=", "=", "==", "p", "q_1", "x", "true", "false",
           "inf", "0", "1", "2", "0.5", "3/2", "1/0", "1.2.3", "[1,2]",
           "(0,inf)", "[<=3]", "[2,2]", "(3,1]", "[1,inf]", " ", "\n", "\t",
           "@")
_CHARACTERS = "!&|-<>=()[],./_01239pqxUXFGtrueinf \n\t@#"


def _outcome(parse, text: str):
    """The tree that ``parse`` reads from ``text``, or the class and message
    of the error it raises, position included."""
    try:
        return parse(text)
    except InputError as exc:
        return type(exc), str(exc)


def _parser_texts(rng: random.Random):
    """Texts for both parsers, each with ``True`` for a guard or an
    invariant: printed random formulas and constraints, random strings of
    pieces, one-character edits of both, depth probes around the limit and
    texts over several lines."""
    atoms = ("p", "q", "r_2")
    printed = []
    for _ in range(400):
        printed.append((format_formula(random_bounded_formula(
            rng, atoms, depth=3, denominators=(1, 2, 3), constants=True)),
            False))
        printed.append((format_formula(random_fragment_formula(rng, atoms)),
                        False))
        printed.append((format_formula(random_propositional(rng, atoms, 3)),
                        False))
        printed.append((format_formula(random_clock_constraint(
            rng, ("x", "y1", "U", "inf", "true"), depth=3)), True))
    pieced = [("".join(rng.choice(("", " ")) + rng.choice(_PIECES)
                       for _ in range(rng.randrange(1, 12))), clocks)
              for _ in range(700) for clocks in (False, True)]
    edited = []
    for text, clocks in printed + pieced:
        at = rng.randrange(len(text))
        edited.append((text[:at] + text[at + 1:], clocks))
        at = rng.randrange(len(text) + 1)
        edited.append((text[:at] + rng.choice(_CHARACTERS) + text[at:],
                       clocks))
    probes = []
    for n in (99, 100, 101):
        for leaf, clocks in (("p", False), ("x < 1", True)):
            probes += [("(" * n + leaf + ")" * n, clocks),
                       ("!" * n + leaf, clocks), ("X " * n + leaf, clocks)]
            probes += [(f" {op} ".join([leaf] * (n + 1)), clocks)
                       for op in ("&", "|", "->", "U", "U[1,2]")]
    lines = [("a &\n  )", False), ("\n\n", False), ("\n\n", True),
             ("p\n\t& @", False), ("F[1,\n\t2] p", False),
             ("G(p ->\n\tX\tF[<=2]\n\t\tq)\n)", False),
             ("x <\n\t= 1", True), ("x <= 1 &\n\t\ty > 2 |", True),
             ("\tF[3,2]\n p", False), ("\n  F(1,1] p", False)]
    return printed + pieced + edited + probes + lines


class TestReferenceParser:
    def test_parsers_match_the_reference(self):
        texts = _parser_texts(random.Random(2024))
        assert len(texts) >= 5000
        for text, clocks in texts:
            parse = parse_constraint if clocks else parse_formula
            assert _outcome(parse, text) == _outcome(
                lambda t: reference_parse(t, clocks), text), (text, clocks)


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
        # every inner window; the tables sweep each F/G/U node once and
        # bisect the stamps no more often for a wider window
        w = word([], [({"p"}, Q(t, 2)) for t in range(1200)], 600)
        calls = _count_calls(monkeypatch, "_window", "first_at")
        for window in ("[<={}]", "[1,{}]"):
            counts = []
            for bound in (5, 50):
                calls.clear()
                phi = f"G G{window.format(bound)} p & F G{window.format(bound)} p"
                assert satisfies(w, parse_formula(phi))
                counts.append(calls.count("first_at"))
                assert calls.count("_window") == 3, (phi, calls)
            assert counts[0] == counts[1], (window, counts)

    def test_a_table_sweep_costs_no_more_single_reads_on_a_longer_word(
            self, monkeypatch):
        # one forward sweep builds each quantifier's table, stepping its
        # window start a position at a time: first_at bisects the stamps
        # only where a step is not enough, never once per position
        calls = _count_calls(monkeypatch, "_window", "first_at")
        for phi in ("G G[<=5] p", "G G[1,5] p"):
            counts = []
            for length in (12, 1200):
                w = word([], [({"p"}, Q(t, 2)) for t in range(length)],
                         length // 2)
                calls.clear()
                assert satisfies(w, parse_formula(phi))
                counts.append(calls.count("first_at"))
                assert calls.count("_window") == 2, (phi, calls)
            assert counts[1] <= counts[0], (phi, counts)


def _count_calls(monkeypatch, *names) -> list:
    """A list that records the name of each call to the named methods of
    the evaluator, while ``monkeypatch`` lasts."""
    calls = []
    for name in names:
        method = getattr(_Evaluator, name)

        def counted(self, *args, name=name, method=method):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(_Evaluator, name, counted)
    return calls


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


def _windows(rng, period):
    """An interval over stamps in halves: sometimes one that holds a single
    distance of the word (a point window), sometimes one whose lower bound
    lies one or three periods on, with either end open."""
    lower = Q(rng.randrange(0, 4), 2) + period * rng.choice([0, 0, 1, 3])
    if rng.random() < 0.25:
        return rng.choice([TimeInterval(lower, lower + Q(1, 2), True, False),
                           TimeInterval(lower, lower + Q(1, 2), False, True)])
    return TimeInterval(lower, lower + Q(rng.randrange(1, 6), 2),
                        rng.random() < 0.6, rng.random() < 0.6)


def _swept_formula(rng, period, depth):
    """A bounded formula over p and q whose quantifiers use :func:`_windows`,
    ``X`` over a quantifier and ``U`` with a left side of its own."""
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.choice("pq"))
    sub = lambda: _swept_formula(rng, period, depth - 1)
    pick = rng.randrange(7)
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return And(sub(), sub())
    if pick == 2:
        return Next(_windows(rng, period), sub())
    if pick == 3:
        return Eventually(_windows(rng, period), sub())
    if pick == 4:
        return Always(_windows(rng, period), sub())
    return Until(_windows(rng, period), sub(), sub())


def _temporal_nodes(node, formula):
    """Each temporal node below the evaluator's ``node`` with its
    normalized subformula ``formula``."""
    if node.kind is Formula:
        return
    if node.interval is not None:
        yield node, formula
    parts = ((formula.left, formula.right)
             if isinstance(formula, (And, Until)) else (formula.operand,))
    for below, part in zip(node.operands, parts):
        yield from _temporal_nodes(below, part)


class TestTableSweep:
    def test_every_temporal_table_matches_the_brute_force(self):
        # the sweep judges every position of prefix + cycle at once; each
        # entry must agree with the clauses applied one position at a time
        rng = random.Random(3203)
        seen = dict.fromkeys(("empty", "later", "point", "open", "until",
                              "next"), 0)
        for trial in range(160):
            w = random_lasso_word(rng, ["p", "q"],
                                  max_prefix=0 if trial % 4 == 0 else 3)
            phi = normalize(_swept_formula(rng, w.period, 3))
            evaluator = _Evaluator(w, phi)
            size = w.prefix_length + w.cycle_length
            for node, part in _temporal_nodes(evaluator.root, phi):
                expected = [brute_force_evaluate(w, j, part)
                            for j in range(size)]
                assert evaluator.table(node) == expected, (
                    format_formula(part), w)
                interval = part.interval
                seen["later"] += interval.lower > w.period
                seen["point"] += interval.upper - interval.lower == Q(1, 2)
                seen["open"] += not (interval.lower_closed
                                     and interval.upper_closed)
                if isinstance(part, Until):  # the left side fails first
                    seen["until"] += sum(
                        not holds and brute_force_evaluate(
                            w, j, Eventually(interval, part.right))
                        for j, holds in enumerate(expected))
                seen["next"] += isinstance(part, Next)
            seen["empty"] += not w.prefix
        assert min(seen.values()) >= 40, seen


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
