"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package's evaluators: the brute
force unrolls a lasso word into a long finite list and applies the
semantics clauses literally; the emptiness oracle is Tarjan SCC
decomposition over a fully materialized graph; the automaton step walks
each constraint's tree over a clock-name map and scans every edge.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mitlplan.core import INFINITY, LassoTimedWord, TimeInterval
from mitlplan.mitl import (Always, And, Atom, Eventually, FalseFormula,
                           Implies, Next, Not, Or, TrueFormula, Until)


# --- brute-force MITL evaluation on a finite unrolling ------------------

def formula_horizon(formula) -> Fraction:
    """Upper bound on how far in time the truth at a position can depend.

    Only meaningful for bounded formulas (every interval has a finite
    upper endpoint).
    """
    match formula:
        case Atom() | TrueFormula() | FalseFormula():
            return Fraction(0)
        case Not(f):
            return formula_horizon(f)
        case And(a, b) | Or(a, b) | Implies(a, b):
            return max(formula_horizon(a), formula_horizon(b))
        case Next(interval, f):
            assert interval.upper is not INFINITY
            return interval.upper + formula_horizon(f)
        case Eventually(interval, f) | Always(interval, f):
            assert interval.upper is not INFINITY
            return interval.upper + formula_horizon(f)
        case Until(interval, a, b):
            assert interval.upper is not INFINITY
            return interval.upper + max(formula_horizon(a), formula_horizon(b))
    raise TypeError(formula)


def brute_force_evaluate(word: LassoTimedWord, position: int, formula) -> bool:
    """Evaluate a bounded formula by fully unrolling the word.

    The unrolling extends far enough past ``position`` that every
    quantifier window fits inside it, then the clauses are applied
    verbatim on plain lists.
    """
    horizon = formula_horizon(formula)
    need = word.stamp_at(position) + horizon + 2 * word.period
    count = 1
    while word.unroll(count)[-1][1] <= need:
        count += 1
    events = word.unroll(count + 1)
    letters = [atoms for atoms, _ in events]
    stamps = [t for _, t in events]

    def ev(f, i, anchor):
        match f:
            case Atom(name):
                return name in letters[i]
            case TrueFormula():
                return True
            case FalseFormula():
                return False
            case Not(g):
                return not ev(g, i, anchor)
            case And(a, b):
                return ev(a, i, anchor) and ev(b, i, anchor)
            case Or(a, b):
                return ev(a, i, anchor) or ev(b, i, anchor)
            case Implies(a, b):
                return (not ev(a, i, anchor)) or ev(b, i, anchor)
            case Next(interval, g):
                return (interval.contains(stamps[i + 1] - stamps[i])
                        and ev(g, i + 1, anchor))
            case Eventually(interval, g):
                return any(interval.contains(stamps[j] - anchor)
                           and ev(g, j, stamps[j])
                           for j in range(i, len(letters)))
            case Always(interval, g):
                return all(ev(g, j, stamps[j])
                           for j in range(i, len(letters))
                           if interval.contains(stamps[j] - anchor))
            case Until(interval, a, b):
                for j in range(i, len(letters)):
                    if interval.contains(stamps[j] - anchor) and ev(b, j, stamps[j]):
                        return True
                    if not ev(a, j, stamps[j]):
                        return False
                return False
        raise TypeError(f)

    return ev(formula, position, stamps[position])


# --- random generators ---------------------------------------------------

def random_lasso_word(rng: random.Random, atoms, max_prefix=3, max_cycle=3,
                      stamp_unit=Fraction(1, 2)) -> LassoTimedWord:
    atoms = sorted(atoms)
    prefix_len = rng.randrange(0, max_prefix + 1)
    cycle_len = rng.randrange(1, max_cycle + 1)

    def letter():
        return frozenset(a for a in atoms if rng.random() < 0.45)

    stamps = [Fraction(0)]
    for _ in range(prefix_len + cycle_len - 1):
        stamps.append(stamps[-1] + stamp_unit * rng.randrange(1, 5))
    events = [(letter(), t) for t in stamps]
    period = (stamps[-1] - (stamps[prefix_len] if prefix_len < len(stamps)
                            else Fraction(0)))
    period += stamp_unit * rng.randrange(1, 5)
    return LassoTimedWord(prefix=tuple(events[:prefix_len]),
                          cycle=tuple(events[prefix_len:]),
                          period=period)


def random_interval(rng: random.Random, bounded=True, max_const=4,
                    denominators=(1, 2)) -> TimeInterval:
    lower = Fraction(rng.randrange(0, max_const)) / rng.choice(denominators)
    if bounded:
        upper = lower + (Fraction(rng.randrange(1, max_const + 1))
                         / rng.choice(denominators))
    else:
        upper = INFINITY
    return TimeInterval(lower, upper,
                        lower_closed=rng.random() < 0.7,
                        upper_closed=bounded and rng.random() < 0.7)


def random_bounded_formula(rng: random.Random, atoms, depth=2,
                           denominators=(1, 2)):
    """Interval endpoints are drawn over ``denominators``."""
    atoms = sorted(atoms)
    if depth == 0 or rng.random() < 0.25:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(8)
    sub = lambda: random_bounded_formula(rng, atoms, depth - 1, denominators)
    interval = lambda: random_interval(rng, denominators=denominators)
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return And(sub(), sub())
    if pick == 2:
        return Or(sub(), sub())
    if pick == 3:
        return Implies(sub(), sub())
    if pick == 4:
        return Next(interval(), sub())
    if pick == 5:
        return Eventually(interval(), sub())
    if pick == 6:
        return Always(interval(), sub())
    return Until(interval(), sub(), sub())


def random_propositional(rng: random.Random, atoms, depth=1):
    atoms = sorted(atoms)
    if depth == 0 or rng.random() < 0.4:
        return Atom(rng.choice(atoms))
    pick = rng.randrange(4)
    sub = lambda: random_propositional(rng, atoms, depth - 1)
    if pick == 0:
        return Not(sub())
    if pick == 1:
        return And(sub(), sub())
    if pick == 2:
        return Or(sub(), sub())
    return Implies(sub(), sub())


def zero_based_interval(rng: random.Random, max_const=4) -> TimeInterval:
    upper = Fraction(rng.randrange(1, max_const + 1)) / rng.choice([1, 2])
    return TimeInterval(Fraction(0), upper, True, rng.random() < 0.7)


def random_fragment_formula(rng: random.Random, atoms, allow_and=True):
    """A random formula inside the automaton-translatable fragment."""
    pick = rng.randrange(8 if allow_and else 7)
    beta = lambda: random_propositional(rng, atoms)
    if pick == 0:
        return beta()
    if pick == 1:
        return Eventually(random_interval(rng, bounded=rng.random() < 0.8), beta())
    if pick == 2:
        return Always(random_interval(rng, bounded=rng.random() < 0.8), beta())
    if pick == 3:
        return Until(random_interval(rng, bounded=rng.random() < 0.8),
                     beta(), beta())
    if pick == 4:
        return Next(random_interval(rng, bounded=rng.random() < 0.8), beta())
    if pick == 5:
        return Always(_untimed(), Eventually(zero_based_interval(rng), beta()))
    if pick == 6:
        b = beta()
        return Always(_untimed(),
                      Implies(b, Next(_untimed(),
                                      Always(zero_based_interval(rng), Not(b)))))
    return And(random_fragment_formula(rng, atoms, allow_and=False),
               random_fragment_formula(rng, atoms, allow_and=False))


def _untimed() -> TimeInterval:
    from mitlplan.core import UNIT_INTERVAL
    return UNIT_INTERVAL


# --- one automaton step by the definition ---------------------------------

def evaluate_constraint(constraint, valuation) -> bool:
    """``valuation`` maps each clock name to its value."""
    from mitlplan.tba import (AndConstraint, Compare, NotConstraint,
                              TrueConstraint)

    match constraint:
        case TrueConstraint():
            return True
        case NotConstraint(operand):
            return not evaluate_constraint(operand, valuation)
        case AndConstraint(left, right):
            return (evaluate_constraint(left, valuation)
                    and evaluate_constraint(right, valuation))
        case Compare(clock, relation, constant):
            value = valuation[clock]
            if relation == "<":
                return value < constant
            if relation == "<=":
                return value <= constant
            if relation == ">":
                return value > constant
            if relation == ">=":
                return value >= constant
            return value == constant
    raise TypeError(f"not a clock constraint: {constraint!r}")


def reference_step(automaton, location, valuation, elapse, letter, cmax):
    """The ``(target, landed valuation)`` pairs of one step, in edge order:
    elapse, source invariant, target letter, guard, resets, saturation of
    clocks above ``cmax`` at ``cmax + 1``, target invariant."""
    elapsed = {clock: value + elapse
               for clock, value in zip(automaton.clocks, valuation)}
    if not evaluate_constraint(automaton.invariants[location], elapsed):
        return []
    out = []
    for edge in automaton.edges:
        if edge.source != location or automaton.labels[edge.target] != letter:
            continue
        if not evaluate_constraint(edge.guard, elapsed):
            continue
        landed = {clock: 0 if clock in edge.resets
                  else value if value <= cmax else cmax + 1
                  for clock, value in elapsed.items()}
        if evaluate_constraint(automaton.invariants[edge.target], landed):
            out.append((edge.target,
                        tuple(landed[clock] for clock in automaton.clocks)))
    return out


def random_clock_constraint(rng: random.Random, clocks, depth=2, max_const=4):
    from mitlplan.tba import AndConstraint, Compare, NotConstraint, TRUE

    pick = rng.randrange(4) if depth else 0
    if pick == 0:
        return Compare(rng.choice(clocks), rng.choice(["<", "<=", ">", ">=", "="]),
                       Fraction(rng.randrange(0, max_const + 1)))
    if pick == 1:
        return NotConstraint(random_clock_constraint(rng, clocks, depth - 1))
    if pick == 2:
        return AndConstraint(random_clock_constraint(rng, clocks, depth - 1),
                             random_clock_constraint(rng, clocks, depth - 1))
    return TRUE


def random_automaton(rng: random.Random, letters, clocks=("x", "y"), size=4):
    """Random invariants, guards and resets over two clocks, unlike the
    translator's fixed shapes."""
    from mitlplan.tba import TRUE, Edge, TimedBuchiAutomaton

    locations = [f"l{i}" for i in range(size)]
    edges = tuple(
        Edge(source, random_clock_constraint(rng, clocks),
             frozenset(c for c in clocks if rng.random() < 0.3), target)
        for source in locations for target in locations if rng.random() < 0.6)
    return TimedBuchiAutomaton(
        locations=tuple(locations), initial=frozenset({locations[0]}),
        clocks=tuple(clocks),
        invariants={loc: random_clock_constraint(rng, clocks)
                    if rng.random() < 0.5 else TRUE for loc in locations},
        edges=edges, accepting=frozenset({rng.choice(locations)}),
        atoms=frozenset().union(*letters),
        labels={loc: rng.choice(letters) for loc in locations})


# --- Buchi emptiness by SCC decomposition --------------------------------

def scc_has_accepting_cycle(initial, successors, accepting) -> bool:
    """Tarjan over the reachable graph; true iff some accepting state lies
    on a cycle (an SCC of size > 1, or a self-loop) reachable from an
    initial state."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    found = [False]

    def strongconnect(root):
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                members = set(component)
                cyclic = len(component) > 1 or v in successors(v)
                if cyclic and any(s in accepting for s in members):
                    found[0] = True

    for init in initial:
        if init not in index:
            strongconnect(init)
    return found[0]


def random_buchi_graph(rng: random.Random, max_states=50):
    n = rng.randrange(2, max_states + 1)
    states = list(range(n))
    edges = {s: [] for s in states}
    for s in states:
        for t in states:
            if rng.random() < 2.5 / n:
                edges[s].append(t)
        edges[s].sort()
    initial = sorted(rng.sample(states, rng.randrange(1, 3)))
    accepting = set(rng.sample(states, rng.randrange(0, min(6, n))))
    return states, initial, edges, accepting


def random_agent_system(rng: random.Random, atom: str, max_states=3,
                        weights=(Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                 Fraction(2))):
    """A small strongly connected weighted system labeling ``atom`` on a
    random nonempty subset of states; each weight is one of ``weights``."""
    from mitlplan.wts import WeightedTransitionSystem

    n = rng.randrange(2, max_states + 1)
    states = [f"s{i}" for i in range(n)]
    ring = list(states)
    rng.shuffle(ring)
    pairs = {(ring[i], ring[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randrange(0, 3)):
        a, b = rng.choice(states), rng.choice(states)
        pairs.add((a, b))
    chosen = {pair: rng.choice(weights) for pair in pairs}
    labeled = rng.sample(states, rng.randrange(1, n + 1))
    return WeightedTransitionSystem(
        states=tuple(states),
        initial=frozenset({rng.choice(states)}),
        transitions=tuple(pairs),
        weights=chosen,
        atoms=frozenset({atom}),
        labels={s: (frozenset({atom}) if s in labeled else frozenset())
                for s in states})


def enumerate_timed_runs(system, max_stem=4, max_cycle=3):
    """All lasso runs with a stem of at most ``max_stem`` edges and a cycle
    of at most ``max_cycle`` edges, as TimedRun objects."""
    from mitlplan.wts import TimedRun

    runs = []

    def cycles_from(head):
        out = []

        def walk(path, total):
            last = path[-1]
            if len(path) - 1 >= 1 and (last, head) in system.weights:
                out.append((list(path), total + system.weight_of(last, head)))
            if len(path) - 1 < max_cycle - 1:
                for nxt in system.successors(last):
                    walk(path + [nxt], total + system.weight_of(last, nxt))

        walk([head], Fraction(0))
        return out

    def stems(start):
        yield [start]
        frontier = [[start]]
        for _ in range(max_stem):
            grown = []
            for path in frontier:
                for nxt in system.successors(path[-1]):
                    grown.append(path + [nxt])
                    yield path + [nxt]
            frontier = grown

    for start in sorted(system.initial):
        for stem in stems(start):
            head = stem[-1]
            for cycle_states, period in cycles_from(head):
                stamps = [Fraction(0)]
                for here, there in zip(stem, stem[1:]):
                    stamps.append(stamps[-1] + system.weight_of(here, there))
                cycle_stamps = [stamps[-1]]
                for here, there in zip(cycle_states, cycle_states[1:]):
                    cycle_stamps.append(cycle_stamps[-1]
                                        + system.weight_of(here, there))
                prefix = tuple(zip(stem[:-1], stamps[:-1]))
                cycle = tuple(zip(cycle_states, cycle_stamps))
                runs.append(TimedRun(prefix=prefix, cycle=cycle, period=period))
    return runs


class ExplicitGraph:
    """Adapter giving a plain edge-dict the lazy-graph interface."""

    def __init__(self, initial, edges, accepting, weight=Fraction(1)):
        self._initial = list(initial)
        self._edges = edges
        self._accepting = set(accepting)
        self._weight = weight

    def initial_states(self):
        return tuple(self._initial)

    def successors(self, state):
        return tuple((self._weight, t) for t in self._edges.get(state, ()))

    def is_accepting(self, state):
        return state in self._accepting
