"""MITL formulas: abstract syntax, a concrete-text parser, and a point-wise
evaluator over lasso timed words.

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
multiplies the word's stamps and the formula's interval endpoints by the
lcm of all their denominators, and turns each interval into the closed
range of integer offsets inside it.  ``first_violation`` divides the stamp
it reports back into the exact ``Fraction`` of the input word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (INFINITY, LassoTimedWord, TimeInterval, UNIT_INTERVAL,
                   denominator_lcm, format_rational, parse_rational)


class MitlError(Exception):
    pass


class MitlSyntaxError(MitlError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class PunctualIntervalError(MitlError):
    """A temporal operator carries a single-point interval, excluded from MITL."""


class Formula:
    pass


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


def evaluate_propositional(formula: Formula, atoms: frozenset[str]) -> bool:
    match formula:
        case Atom(name):
            return name in atoms
        case TrueFormula():
            return True
        case FalseFormula():
            return False
        case Not(operand):
            return not evaluate_propositional(operand, atoms)
        case And(left, right):
            return (evaluate_propositional(left, atoms)
                    and evaluate_propositional(right, atoms))
        case Or(left, right):
            return (evaluate_propositional(left, atoms)
                    or evaluate_propositional(right, atoms))
        case Implies(left, right):
            return ((not evaluate_propositional(left, atoms))
                    or evaluate_propositional(right, atoms))
    raise ValueError(f"not propositional: {formula!r}")


# --- concrete syntax ---------------------------------------------------

_KEYWORDS = {"U", "X", "F", "G", "true", "false", "inf"}


def _is_untimed(interval: TimeInterval) -> bool:
    return (interval.lower == 0 and interval.lower_closed
            and interval.upper is INFINITY)


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
            elif self.text.startswith("<=", self.pos):
                out.append(("<=", "<=", start))
                self._advance(2)
            elif ch in "!&|()[],":
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
    """Recursive descent for: unary (!, X, F, G) > U > & > | > -> ."""

    def __init__(self, text: str):
        self.tokens = _Tokenizer(text).tokens()
        self.index = 0

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

    def parse(self) -> Formula:
        formula = self.implication()
        if self.peek()[0] != "end":
            self.error(f"unexpected {self.peek()[1]!r}")
        return formula

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.until()
        while self.peek()[0] == "&":
            self.take()
            left = And(left, self.until())
        return left

    def until(self) -> Formula:
        left = self.unary()
        if self.peek()[0] == "U":
            self.take()
            interval = self.maybe_interval()
            right = self.until()  # right-associative
            return Until(interval, left, right)
        return left

    def unary(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unary())
        if kind == "X":
            self.take()
            return Next(self.maybe_interval(), self.unary())
        if kind == "F":
            self.take()
            return Eventually(self.maybe_interval(), self.unary())
        if kind == "G":
            self.take()
            return Always(self.maybe_interval(), self.unary())
        if kind == "(":
            self.take()
            inner = self.implication()
            self.take(")")
            return inner
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
        try:
            return TimeInterval(lower, upper, lower_closed, upper_closed)
        except ValueError as exc:
            self.error(f"malformed interval {text}: {exc}", token)

    def rational(self) -> Fraction:
        token = self.take()
        if token[0] != "number":
            self.error(f"expected a number, found {token[1]!r}", token)
        try:
            return parse_rational(token[1])
        except ValueError as exc:
            self.error(str(exc), token)


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def format_formula(formula: Formula) -> str:
    """Print a formula in the concrete syntax; reparsing yields an equal AST."""

    def interval_text(interval):
        if _is_untimed(interval):
            return ""
        return interval.text()

    def wrap(sub):
        text = format_formula(sub)
        if isinstance(sub, (And, Or, Implies, Until)):
            return f"({text})"
        return text

    match formula:
        case Atom(name):
            return name
        case TrueFormula():
            return "true"
        case FalseFormula():
            return "false"
        case Not(operand):
            return f"!{wrap(operand)}"
        case And(left, right):
            return f"{wrap(left)} & {wrap(right)}"
        case Or(left, right):
            return f"{wrap(left)} | {wrap(right)}"
        case Implies(left, right):
            return f"{wrap(left)} -> {wrap(right)}"
        case Next(interval, operand):
            return f"X{interval_text(interval)} {wrap(operand)}"
        case Eventually(interval, operand):
            return f"F{interval_text(interval)} {wrap(operand)}"
        case Always(interval, operand):
            return f"G{interval_text(interval)} {wrap(operand)}"
        case Until(interval, left, right):
            return f"{wrap(left)} U{interval_text(interval)} {wrap(right)}"
    raise TypeError(f"not a formula: {formula!r}")


# --- evaluation over lasso words ---------------------------------------

class _Node:
    """One subformula of the normalized tree, as the evaluator reads it.

    ``kind`` is the formula class.  A temporal node's interval is in the
    evaluator's integer time and closed at both ends: ``low`` is the least
    offset inside it, ``high`` the greatest or ``None`` when unbounded.
    """

    __slots__ = ("kind", "atom", "operands", "interval", "low", "high", "memo")

    def __init__(self, kind, operands=(), atom=None, interval=None):
        self.kind = kind
        self.atom = atom
        self.operands = operands
        self.interval = interval
        self.low = self.high = None
        self.memo = {}  # (position, anchor) -> truth, on temporal nodes

    def scale(self, factor: int) -> None:
        interval = self.interval
        lower = int(interval.lower * factor)
        self.low = lower if interval.lower_closed else lower + 1
        if not interval.unbounded:
            upper = int(interval.upper * factor)
            self.high = upper if interval.upper_closed else upper - 1


def _build(formula: Formula, nodes: dict) -> _Node:
    """The node of a normalized formula; equal subformulas share a node,
    and so its memo."""
    node = nodes.get(formula)
    if node is not None:
        return node
    match formula:
        case Atom(name):
            node = _Node(Atom, atom=name)
        case TrueFormula() | FalseFormula():
            node = _Node(type(formula))
        case Not(operand):
            node = _Node(Not, (_build(operand, nodes),))
        case And(left, right):
            node = _Node(And, (_build(left, nodes), _build(right, nodes)))
        case Next(interval, operand) | Eventually(interval, operand) | \
                Always(interval, operand):
            node = _Node(type(formula), (_build(operand, nodes),),
                         interval=interval)
        case Until(interval, left, right):
            node = _Node(Until, (_build(left, nodes), _build(right, nodes)),
                         interval=interval)
        case _:
            raise TypeError(f"not a normalized formula: {formula!r}")
    nodes[formula] = node
    return node


class _Evaluator:
    """One formula over one word, in integer time.

    The word's stamps and the formula's interval endpoints are multiplied
    by one factor, the lcm of all their denominators, so every anchor and
    every offset ``t(j) - a`` is an ``int``.  Stamps and letters are read
    from lists over prefix + cycle; positions past them are reduced into
    the cycle.
    """

    def __init__(self, word: LassoTimedWord, formula: Formula):
        nodes: dict = {}
        self.root = _build(normalize(formula), nodes)
        temporal = [node for node in nodes.values()
                    if node.interval is not None]
        self.factor = denominator_lcm(word.time_values() + [
            endpoint for node in temporal
            for endpoint in (node.interval.lower, node.interval.upper)
            if endpoint is not INFINITY])
        for node in temporal:
            node.scale(self.factor)
        self.stamps, self.period = word.integer_timeline(self.factor)
        self.letters = [letter for letter, _ in word.prefix + word.cycle]
        self.loop = word.prefix_length
        self.size = len(self.stamps)

    def stamp(self, j: int) -> int:
        if j < self.size:
            return self.stamps[j]
        turns, slot = divmod(j - self.loop, self.size - self.loop)
        return self.stamps[self.loop + slot] + turns * self.period

    def letter(self, j: int) -> frozenset[str]:
        if j < self.size:
            return self.letters[j]
        slot = (j - self.loop) % (self.size - self.loop)
        return self.letters[self.loop + slot]

    def holds(self, node: _Node, i: int, anchor: int) -> bool:
        kind = node.kind
        if kind is Atom:
            return node.atom in self.letter(i)
        if kind is Not:
            return not self.holds(node.operands[0], i, anchor)
        if kind is And:
            left, right = node.operands
            return self.holds(left, i, anchor) and self.holds(right, i, anchor)
        if kind is TrueFormula:
            return True
        if kind is FalseFormula:
            return False
        key = (i, anchor)
        truth = node.memo.get(key)
        if truth is None:
            truth = node.memo[key] = self._temporal(node, i, anchor)
        return truth

    def _temporal(self, node: _Node, i: int, anchor: int) -> bool:
        kind, low = node.kind, node.low
        if kind is Next:
            gap = self.stamp(i + 1) - self.stamp(i)
            return (low <= gap and (node.high is None or gap <= node.high)
                    and self.holds(node.operands[0], i + 1, anchor))
        if kind is Eventually:
            operand = node.operands[0]
            for j, t in self.window(node, i, anchor):
                if t - anchor >= low and self.holds(operand, j, t):
                    return True
            return False
        if kind is Always:
            operand = node.operands[0]
            for j, t in self.window(node, i, anchor):
                if t - anchor >= low and not self.holds(operand, j, t):
                    return False
            return True
        left, right = node.operands  # Until
        for j, t in self.window(node, i, anchor):
            if t - anchor >= low and self.holds(right, j, t):
                return True
            if not self.holds(left, j, t):
                return False
        return False

    def window(self, node: _Node, i: int, anchor: int):
        """The ``(position, stamp)`` pairs that decide a quantifier anchored
        at ``anchor``; a pair is inside the interval once its offset
        reaches ``node.low``.

        Bounded interval: every position until the offset passes the upper
        bound.  Unbounded interval: positions up to one full cycle past the
        first position that is both inside the interval and inside the
        repeating cycle -- beyond that point the truth of the operand is
        cycle-periodic and the time constraint stays satisfied, so any
        witness (or violation) there already has a twin inside the window.
        """
        high = node.high
        j = i
        if high is not None:
            while (t := self.stamp(j)) - anchor <= high:
                yield j, t
                j += 1
            return
        horizon = None
        while True:
            t = self.stamp(j)
            if horizon is None and j >= self.loop and t - anchor >= node.low:
                horizon = j + self.size - self.loop
            yield j, t
            if horizon is not None and j >= horizon:
                return
            j += 1


def evaluate_at(word: LassoTimedWord, position: int, formula: Formula) -> bool:
    if position < 0:
        raise ValueError("positions are nonnegative")
    evaluator = _Evaluator(word, formula)
    return evaluator.holds(evaluator.root, position, evaluator.stamp(position))


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
    node, anchor = evaluator.root, evaluator.stamp(0)
    if evaluator.holds(node, 0, anchor):
        return None
    while node.kind is And:
        left, right = node.operands
        node = right if evaluator.holds(left, 0, anchor) else left
    position, stamp = 0, anchor
    if node.kind is Always:
        operand = node.operands[0]
        for j, t in evaluator.window(node, 0, anchor):
            if t - anchor >= node.low and not evaluator.holds(operand, j, t):
                position, stamp = j, t
                break
    return position, Fraction(stamp, evaluator.factor)
