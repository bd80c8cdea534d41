"""MITL formulas: abstract syntax, a concrete-text parser and printer, and
a point-wise evaluator over lasso timed words.

One boolean language serves the whole package.  Formulas have atoms at
their leaves; the clock guards and invariants of automata are formulas
built from ``true``, ``!``, ``&`` and :class:`Compare` leaves (``x <= 3``).
:func:`parse_formula` and :func:`parse_constraint` read the two with one
parser, and :func:`format_formula` prints both.  :func:`compile_formula`
is the one decider of both: the automata's labels, guards and invariants
and the evaluator's propositional subformulas.

The evaluator is the ground-truth oracle for the rest of the pipeline.

Semantics (point-wise, positions are word indices).  A judgment carries the
position ``i`` and an *anchor* time ``a``; the top-level judgment anchors at
the timestamp of the evaluated position.

- atoms and boolean connectives: as usual, anchor unchanged;
- ``X[I] f``  holds at (i, a) iff f holds at (i+1, a) and t(i+1) - t(i) in I;
- ``F[I] f``  holds at (i, a) iff f holds at some (j, t(j)), j >= i, with
  t(j) - a in I;
- ``G[I] f``  dually for all such j;
- ``f U[I] g`` holds at (i, a) iff g holds at some (j, t(j)), j >= i, with
  t(j) - a in I, and f holds at every (k, t(k)) for i <= k < j.

Quantifiers re-anchor at the position they bind; the next operator passes
its anchor through.  For formulas without a temporal operator nested
directly under ``X`` this coincides with the textbook clauses where every
window measures from the evaluation position.  The anchor-preserving next
means that in ``G(p -> X G[0,c] !p)`` the inner window starts at the
position where ``p`` held, which is the "no revisit within c time units"
reading; see the README for a worked example.

The evaluator counts time in integers.  It normalizes the formula once,
counts time under the lcm of the word's unit and the denominators of the
formula's interval endpoints (the word's own ticks when that lcm is its
unit), and turns each interval into the closed range of integer distances
inside it.  Each maximal propositional
subformula is decided once per position of prefix + cycle.  A quantifier
anchors its operand at the operand's own position, so the operand has one
truth table over prefix + cycle, built once and periodic past the prefix
(the operand reads only the suffix from its position).  One backward pass
over the table gives the next-witness index that the quantifier reads:
the stamp of the next position at or after each one where the operand is
true (for ``F`` and the right side of ``U``) or false (for ``G`` and the
left side of ``U``).  The quantifier's own table is one forward sweep
over prefix + cycle: the first position inside the window only moves
forward with the anchor, so a pointer follows it, and each entry
compares one index entry with the anchor.  Evaluation costs
O(|word| * |formula|) whatever the width of the windows; the stamps are
bisected only where a window start moves on by more than one position.
The tables are the only decider: a position is judged by reading the
root's table, and ``first_violation`` reads its witness from the index
of the failing ``G``'s body and divides its stamp back into the exact
``Fraction`` of the input word.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import inf, lcm
from operator import sub
from typing import Callable

from .core import (INFINITY, InputError, LassoTimedWord, TimeInterval,
                   UNIT_INTERVAL, denominator_lcm, format_interval,
                   format_rational, parse_rational, ticks_of)


class MitlSyntaxError(InputError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class PunctualIntervalError(InputError):
    """A temporal operator carries a single-point interval, excluded from MITL."""

    exit_code = 4


class Formula:
    """The base of every formula node.  Each node is a frozen dataclass
    whose hash is computed once, on first use, and kept on the node (see
    :func:`_hash_once`); without that every dict or set lookup would walk
    the whole tree."""

    def __getstate__(self):
        # a kept hash of a string is only valid in the process that made it
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


_RELATIONS = ("<", "<=", ">", ">=", "=")


@dataclass(frozen=True)
class Compare(Formula):
    """A clock comparison, the leaf of a guard or an invariant."""

    clock: str
    relation: str  # one of < <= > >= =
    constant: Fraction  # an int in a scaled automaton

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.constant < 0:
            raise ValueError("clock constants are nonnegative")


@dataclass(frozen=True)
class Next(Formula):
    interval: TimeInterval
    operand: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    interval: TimeInterval
    operand: Formula


@dataclass(frozen=True)
class Always(Formula):
    interval: TimeInterval
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: TimeInterval
    left: Formula
    right: Formula


def _hash_once(generated):
    """``generated``, the field-tuple hash that ``dataclass`` writes, computed
    once per node: the same value, so equality and every set or dict order
    stay as they were."""
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
            return value
    return __hash__


for _node in Formula.__subclasses__():
    _node.__hash__ = _hash_once(_node.__hash__)


def normalize(formula: Formula) -> Formula:
    """Desugar Or/Implies so downstream passes see only the core grammar."""
    match formula:
        case Atom() | TrueFormula() | FalseFormula():
            return formula
        case Not(operand):
            return Not(normalize(operand))
        case And(left, right):
            return And(normalize(left), normalize(right))
        case Or(left, right):
            return Not(And(Not(normalize(left)), Not(normalize(right))))
        case Implies(left, right):
            return Not(And(normalize(left), Not(normalize(right))))
        case Next(interval, operand):
            return Next(interval, normalize(operand))
        case Eventually(interval, operand):
            return Eventually(interval, normalize(operand))
        case Always(interval, operand):
            return Always(interval, normalize(operand))
        case Until(interval, left, right):
            return Until(interval, normalize(left), normalize(right))
    raise TypeError(f"not a formula: {formula!r}")


def atoms_of(formula: Formula) -> frozenset[str]:
    match formula:
        case Atom(name):
            return frozenset({name})
        case TrueFormula() | FalseFormula():
            return frozenset()
        case Not(operand) | Next(_, operand) | Eventually(_, operand) | Always(_, operand):
            return atoms_of(operand)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return atoms_of(left) | atoms_of(right)
        case Until(_, left, right):
            return atoms_of(left) | atoms_of(right)
    raise TypeError(f"not a formula: {formula!r}")


def is_propositional(formula: Formula) -> bool:
    match formula:
        case Atom() | TrueFormula() | FalseFormula():
            return True
        case Not(operand):
            return is_propositional(operand)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return is_propositional(left) and is_propositional(right)
        case _:
            return False


_OPERATORS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=="}


def compile_formula(formula: Formula, clocks: tuple[str, ...] = ()) -> Callable:
    """A function deciding ``formula``.  A propositional formula is decided
    on a letter, the set of atoms that hold; a clock constraint on a
    valuation tuple ordered as ``clocks``.

    The function is one Python expression over its argument ``v``, whose
    text holds only operators, slot indices and the names that atoms and
    constants are bound to, so no atom or constant is read as code.  It
    brackets a part only where the part's operator binds less tightly than
    the one around it, so chains of ``!`` and ``&`` nest no brackets and
    the text stays under Python's limit of 200 nested brackets for every
    formula that the parser admits."""
    slot = {clock: i for i, clock in enumerate(clocks)}
    names: dict = {}  # atom or constant -> its name in the expression

    def bound(value) -> str:
        return names.setdefault(value, f"c{len(names)}")

    def source(part: Formula, outer: int = 0) -> str:
        # how tightly the part's operator binds: 0 or, 1 and, 2 not, 3 a leaf
        match part:
            case Atom(name):
                text, rank = f"{bound(name)} in v", 3
            case TrueFormula():
                text, rank = "True", 3
            case FalseFormula():
                text, rank = "False", 3
            case Not(operand):
                text, rank = f"not {source(operand, 2)}", 2
            case And(left, right):
                text, rank = f"{source(left, 1)} and {source(right, 1)}", 1
            case Or(left, right):
                text, rank = f"{source(left)} or {source(right)}", 0
            case Implies(left, right):
                text, rank = f"not {source(left, 2)} or {source(right)}", 0
            case Compare(clock, relation, constant):
                text, rank = (f"v[{slot[clock]}] {_OPERATORS[relation]} "
                              f"{bound(constant)}", 3)
            case _:
                raise TypeError(f"not a label or a clock constraint: {part!r}")
        return f"({text})" if rank < outer else text

    body = source(formula)
    return eval(f"lambda v: {body}",
                {name: value for value, name in names.items()})


# --- concrete syntax ---------------------------------------------------

_KEYWORDS = {"U", "X", "F", "G", "true", "false", "inf"}
_UNARY = {"X": Next, "F": Eventually, "G": Always}

# binary operator -> (precedence, node, right-associative); a guard or an
# invariant admits "&" alone
_BINARY = {"->": (0, Implies, True), "|": (1, Or, False),
           "&": (2, And, False), "U": (3, Until, True)}
_GUARD_BINARY = {"&": _BINARY["&"]}

# One token, or the white space before it: a symbol, a number (a decimal
# digit, then digits, "." and "/", for parse_rational to read or refuse),
# a name or keyword (a letter, a numeric character other than a decimal
# digit, or "_", then word characters), or any other character.
_TOKEN = re.compile(r"(\s+)|(->|[<>=]=|[!&|()\[\],<>=])|(\d[\d./]*)"
                    r"|([^\W\d]\w*)|(.)")

# The deepest nesting the parser reads.  It spends at most two Python
# frames on a level, and compile_formula's text nests brackets no deeper
# than the tree, under Python's limit of 200.
MAX_DEPTH = 100


def _tokens(text: str) -> list:
    """The tokens of ``text``, each ``(kind, text, (line, column))``, then
    an end token; a tab counts as one column."""
    tokens = []
    line, start = 1, 0  # the current line and the index it starts at
    for match in _TOKEN.finditer(text):
        group, word = match.lastindex, match.group()
        if group == 1:
            if "\n" in word:
                line += word.count("\n")
                start = match.start() + word.rindex("\n") + 1
            continue
        where = (line, match.start() - start)
        if group == 5:
            raise MitlSyntaxError(f"unknown token {word!r}", *where)
        if group == 3:
            kind = "number"
        elif group == 4 and word not in _KEYWORDS:
            kind = "name"
        else:
            kind = "=" if word == "==" else word
        tokens.append((kind, word, where))
    tokens.append(("end", "", (line, len(text) - start)))
    return tokens


class _Parser:
    """Precedence climbing over :data:`_BINARY`: unary operands (``!``,
    ``X``, ``F``, ``G``, parentheses, leaves) joined by ``U`` over ``&``
    over ``|`` over ``->``, where ``U`` and ``->`` group to the right and
    ``&`` and ``|`` to the left.

    With ``clocks`` set it reads a guard or an invariant instead: ``true``,
    ``!``, ``&``, parentheses and clock comparisons, where any word
    followed by a relation names a clock, keywords included.

    A formula whose tree is more than :data:`MAX_DEPTH` levels deep, each
    ``&`` or ``|`` of a chain counting as one, or that opens more than
    that many operands and parentheses one inside the other, is a syntax
    error at the operator or parenthesis where it goes too deep.  The
    operands opened are those of ``!``, ``X``, ``F``, ``G`` and
    parentheses, and the right operands of ``->`` and ``U``: the ones the
    parser recurses into, where a chain of ``&`` or ``|`` is a loop."""

    def __init__(self, text: str, clocks=False):
        self.tokens = _tokens(text)
        self.index = 0
        self.clocks = clocks
        self.binary = _GUARD_BINARY if clocks else _BINARY
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

    def expression(self, least: int = 0) -> Formula:
        """Unary operands joined by the binary operators of precedence
        ``least`` or more."""
        left = self.unary()
        while True:
            token = self.peek()
            operator = self.binary.get(token[0])
            if operator is None or operator[0] < least:
                return left
            precedence, node, right = operator
            self.take()
            if node is Until:
                node = partial(Until, self.maybe_interval())
            if right:
                with self.operand_of(token):
                    left = self.built(node(left, self.expression(precedence)),
                                      token)
            else:
                left = self.built(node(left, self.expression(precedence + 1)),
                                  token)

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
        if upper is not INFINITY and lower >= upper:
            text = format_interval(lower, upper, lower_closed, upper_closed)
            if lower == upper:
                raise PunctualIntervalError(
                    f"punctual interval {text} is not allowed on temporal operators")
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


def parse_formula(text: str) -> Formula:
    """A formula with atoms at its leaves."""
    return _Parser(text).parse()


def parse_constraint(text: str) -> Formula:
    """A clock guard or invariant: ``true``, ``!``, ``&`` and parentheses
    over clock comparisons ``clock <rel> constant``, where ``rel`` is one of
    ``< <= > >= =`` (or ``==``) and the constant a nonnegative rational."""
    return _Parser(text, clocks=True).parse()


def check_atom_names(fields: dict) -> None:
    """Refuses a listed text that no formula can name as an atom, such as
    ``p q``, ``true`` or ``&``: a text names an atom when it parses as
    the formula of that one atom.  ``fields`` maps each field to the
    texts it lists, and the refusal names the first field listing the
    text.  Each distinct text is parsed once."""
    first: dict = {}  # text -> the first field listing it
    for where, texts in fields.items():
        for text in texts:
            first.setdefault(text, where)
    for text, where in first.items():
        try:
            if atoms_of(parse_formula(text)) == {text}:
                continue
        except InputError:
            pass
        raise InputError(f"{where}: {text!r} is not an atom name")


def format_formula(formula: Formula) -> str:
    """Print a formula, guard or invariant in the concrete syntax;
    reparsing it with the matching parser yields an equal AST."""
    match formula:
        case Atom(name):
            return name
        case TrueFormula():
            return "true"
        case FalseFormula():
            return "false"
        case Compare(clock, relation, constant):
            return f"{clock} {relation} {format_rational(constant)}"
        case Not(Compare() | TrueFormula() | FalseFormula() as operand):
            # a leaf other than an atom is bracketed, as in ``!(x <= 3)``
            return f"!({format_formula(operand)})"
        case Not(operand):
            return f"!{_operand_text(operand)}"
        case And(left, right):
            return f"{_operand_text(left)} & {_operand_text(right)}"
        case Or(left, right):
            return f"{_operand_text(left)} | {_operand_text(right)}"
        case Implies(left, right):
            return f"{_operand_text(left)} -> {_operand_text(right)}"
        case Next(interval, operand):
            return f"X{_interval_text(interval)} {_operand_text(operand)}"
        case Eventually(interval, operand):
            return f"F{_interval_text(interval)} {_operand_text(operand)}"
        case Always(interval, operand):
            return f"G{_interval_text(interval)} {_operand_text(operand)}"
        case Until(interval, left, right):
            return (f"{_operand_text(left)} U{_interval_text(interval)} "
                    f"{_operand_text(right)}")
    raise TypeError(f"not a formula: {formula!r}")


def _operand_text(operand: Formula) -> str:
    text = format_formula(operand)
    if isinstance(operand, (And, Or, Implies, Until)):
        return f"({text})"
    return text


def _interval_text(interval: TimeInterval) -> str:
    return "" if interval.untimed else interval.text()


# --- evaluation over lasso words ---------------------------------------

class _Node:
    """One subformula of the normalized tree, as the evaluator reads it.

    ``kind`` is the formula class, or :class:`Formula` for a maximal
    propositional subformula.  A temporal node's interval is in the
    evaluator's integer time and closed at both ends: ``low`` is the least
    offset inside it, ``high`` the greatest or ``inf`` when unbounded.

    ``table`` lists the node's truth at each position of prefix + cycle,
    anchored at that position's own stamp.  A propositional node's table
    is built with the node; the evaluator fills the other tables, and the
    indexes, when it first reads the node or a node above it.
    ``next_true[j]`` (``next_false[j]``) is the stamp of the first
    position at or after ``j`` of the infinite word where the table reads
    true (false), or ``None`` when there is none.
    """

    __slots__ = ("kind", "operands", "interval", "low", "high", "table",
                 "next_true", "next_false")

    def __init__(self, kind, operands=(), interval=None, table=None):
        self.kind = kind
        self.operands = operands
        self.interval = interval
        self.table = table
        self.low = self.high = None
        self.next_true = self.next_false = None

    def scale(self, factor: int) -> None:
        interval = self.interval
        lower = ticks_of(interval.lower, factor)
        self.low = lower if interval.lower_closed else lower + 1
        self.high = inf
        if not interval.unbounded:
            upper = ticks_of(interval.upper, factor)
            self.high = upper if interval.upper_closed else upper - 1


def _build(formula: Formula, nodes: dict, letters: list) -> _Node:
    """The node of a normalized formula over a word whose prefix + cycle
    reads ``letters``; equal subformulas share a node, and so its tables."""
    node = nodes.get(formula)
    if node is not None:
        return node
    match formula:
        case _ if is_propositional(formula):
            check = compile_formula(formula)
            node = _Node(Formula, table=[check(letter) for letter in letters])
        case Not(operand):
            node = _Node(Not, (_build(operand, nodes, letters),))
        case And(left, right):
            node = _Node(And, (_build(left, nodes, letters),
                               _build(right, nodes, letters)))
        case Next(interval, operand) | Eventually(interval, operand) | \
                Always(interval, operand):
            node = _Node(type(formula), (_build(operand, nodes, letters),),
                         interval=interval)
        case Until(interval, left, right):
            node = _Node(Until, (_build(left, nodes, letters),
                                 _build(right, nodes, letters)),
                         interval=interval)
        case _:
            raise TypeError(f"not a normalized formula: {formula!r}")
    nodes[formula] = node
    return node


class _Evaluator:
    """One formula over one word, in integer time.

    The word's ticks and the formula's interval endpoints are counted
    under one factor, the lcm of the word's unit and the endpoints'
    denominators, so every anchor and every offset ``t(j) - a`` is an
    ``int``.  Stamps, tables and indexes
    are lists over prefix + cycle; positions past them are reduced into
    the cycle, and an index's stamps are lifted by a period per turn.

    A quantifier at ``(i, a)`` finds the first position ``k`` at or after
    ``i`` stamped ``a + low`` or later, and reads its operand's index at
    ``k``: ``G`` holds when the next false position is past ``a + high``,
    ``F`` when the next true one is within it.  ``U`` is ``F`` on its right
    operand, whose left operand has no false position from ``i`` on before
    that witness.  :meth:`table` judges every position at once, and is
    the only judge: the root, too, is read from its table.
    """

    def __init__(self, word: LassoTimedWord, formula: Formula):
        nodes: dict = {}
        self.root = _build(normalize(formula), nodes, word.payloads)
        temporal = [node for node in nodes.values()
                    if node.interval is not None]
        self.factor = lcm(word.unit, denominator_lcm(
            endpoint for node in temporal
            for endpoint in (node.interval.lower, node.interval.upper)
            if endpoint is not INFINITY))
        for node in temporal:
            node.scale(self.factor)
        self.stamps, self.period = word.integer_timeline(self.factor)
        self.loop = word.prefix_length
        self.size = len(self.stamps)
        self.cycle = self.size - self.loop

    def locate(self, j: int) -> tuple[int, int]:
        """The position of prefix + cycle that position ``j`` repeats, and
        the cycle turns between them."""
        if j < self.size:
            return j, 0
        turns, slot = divmod(j - self.loop, self.cycle)
        return self.loop + slot, turns

    def stamp(self, j: int) -> int:
        slot, turns = self.locate(j)
        return self.stamps[slot] + turns * self.period

    def first_at(self, i: int, time: int) -> int:
        """The first position at or after ``i`` stamped ``time`` or later."""
        if self.stamp(i) >= time:
            return i
        stamps, loop = self.stamps, self.loop
        if time <= stamps[-1]:
            return bisect_left(stamps, time)
        turns = (time - stamps[loop]) // self.period
        return turns * self.cycle + bisect_left(
            stamps, time - turns * self.period, loop)

    def _index(self, node: _Node, value: bool) -> list:
        """``node.next_true`` or ``node.next_false``, built on first use in
        one backward pass over prefix + cycle that starts from the first
        such position of the next cycle turn."""
        index = node.next_true if value else node.next_false
        if index is not None:
            return index
        table, stamps = self.table(node), self.stamps
        found = next((stamps[j] + self.period
                      for j in range(self.loop, self.size)
                      if table[j] == value), None)
        index = [None] * self.size
        for j in range(self.size - 1, -1, -1):
            if table[j] == value:
                found = stamps[j]
            index[j] = found
        if value:
            node.next_true = index
        else:
            node.next_false = index
        return index

    def table(self, node: _Node, shift: int = 0) -> list:
        """``node`` judged at ``(j + shift, t(j))`` for each position ``j``
        of prefix + cycle.  With ``shift`` 0 that is ``node.table``, built
        once; below ``X``, which passes its anchor down, a node is judged
        ``shift`` positions after its anchor's."""
        if shift == 0 and node.table is not None:
            return node.table
        kind = node.kind
        if kind is Formula:
            table = [node.table[slot] for slot in self._slots(shift)]
        elif kind is Not:
            table = [not v for v in self.table(node.operands[0], shift)]
        elif kind is And:
            left, right = node.operands
            table = [a and b for a, b in zip(self.table(left, shift),
                                             self.table(right, shift))]
        elif kind is Next:
            stamps, low, high = self.stamps, node.low, node.high
            gaps = [*map(sub, stamps[1:], stamps),
                    stamps[self.loop] + self.period - stamps[-1]]
            table = [low <= gaps[slot] <= high and v
                     for slot, v in zip(self._slots(shift), self.table(
                         node.operands[0], shift + 1))]
        else:
            table = self._window(node, shift)
        if shift == 0:
            node.table = table
        return table

    def _slots(self, shift: int) -> list:
        """The position of prefix + cycle that ``j + shift`` repeats, for
        each position ``j`` of prefix + cycle."""
        return [self.locate(j)[0] for j in range(shift, self.size + shift)]

    def _window(self, node: _Node, shift: int) -> list:
        """The table of ``F``, ``G`` or ``U`` at ``shift``: each entry
        compares the anchor with the stamp of the next witness from the
        window's start and, for ``U``, of its left side's next miss."""
        kind, high, stamps = node.kind, node.high, self.stamps
        found = self._starts(self._index(node.operands[-1],
                                          kind is not Always),
                             shift, node.low)
        if kind is Always:
            return [miss is None or miss - t > high
                    for miss, t in zip(found, stamps)]
        if kind is Eventually:
            return [hit is not None and hit - t <= high
                    for hit, t in zip(found, stamps)]
        misses = self._starts(self._index(node.operands[0], False), shift, 0)
        return [hit is not None and hit - t <= high
                and (miss is None or miss >= hit)
                for hit, miss, t in zip(found, misses, stamps)]

    def _starts(self, index: list, shift: int, low: int) -> list:
        """``index`` read, for each position ``j`` of prefix + cycle, at
        the first position ``k`` at or after ``j + shift`` stamped
        ``t(j) + low`` or later, its stamp lifted into ``k``'s cycle turn.

        ``j + shift`` and ``t(j)`` only grow with ``j``, and so does ``k``:
        one forward sweep moves it on, into later cycle turns if it must,
        a position at a time, and ``first_at`` finds it when one step is
        not enough."""
        if not shift and not low:
            return index
        stamps, size, loop, period = (self.stamps, self.size, self.loop,
                                      self.period)
        k = shift
        slot, turns = self.locate(k)
        lift = turns * period
        out = []
        for j, anchor in enumerate(stamps):
            edge = anchor + low
            if k < j + shift or stamps[slot] + lift < edge:
                k += 1
                slot += 1
                if slot == size:
                    slot, lift = loop, lift + period
                if stamps[slot] + lift < edge:
                    k = self.first_at(k, edge)
                    slot, turns = self.locate(k)
                    lift = turns * period
            found = index[slot]
            out.append(None if found is None else found + lift)
        return out


def evaluate_at(word: LassoTimedWord, position: int, formula: Formula) -> bool:
    """The root's table at ``position``, which past prefix + cycle reads
    the position it repeats: a table is periodic past the prefix."""
    if position < 0:
        raise ValueError("positions are nonnegative")
    evaluator = _Evaluator(word, formula)
    return evaluator.table(evaluator.root)[evaluator.locate(position)[0]]


def satisfies(word: LassoTimedWord, formula: Formula) -> bool:
    return evaluate_at(word, 0, formula)


def first_violation(word: LassoTimedWord, formula: Formula):
    """``None`` if the word satisfies the formula at position 0, else the
    first position witnessing the failure, with its exact timestamp.

    For a failing top-level ``G`` the witness is the earliest in-window
    position where the body fails; conjunctions descend into the first
    failing conjunct; anything else reports position 0.
    """
    evaluator = _Evaluator(word, formula)
    node = evaluator.root
    if evaluator.table(node)[0]:
        return None
    while node.kind is And:
        left, right = node.operands
        node = right if evaluator.table(left)[0] else left
    position = 0
    if node.kind is Always:
        miss = evaluator._starts(evaluator._index(node.operands[0], False),
                                 0, node.low)[0]
        position = evaluator.first_at(0, miss)
    return position, Fraction(evaluator.stamp(position), evaluator.factor)
