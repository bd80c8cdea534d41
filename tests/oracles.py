"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package's evaluators: the brute
force unrolls a lasso word into a long finite list and applies the
semantics clauses literally; the emptiness oracle is Tarjan SCC
decomposition over a fully materialized graph; the automaton step walks
each constraint's tree over a clock-name map and scans every edge; the
merge of runs advances the agents one arrival at a time until their
configuration repeats; the intersection builds every part afresh for each
location pair, edge pair and flag.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from math import inf, lcm

from mitlplan.core import INFINITY, LassoTimedWord, TimeInterval
from mitlplan.mitl import (Always, And, Atom, Compare, Eventually,
                           FalseFormula, Formula, Implies, Next, Not, Or,
                           TrueFormula, Until, normalize)
from mitlplan.product import (AutomatonProduct, GlobalProduct, LocalProduct,
                              TeamProduct, _time_bound)
from mitlplan.tba import (Edge, TimedBuchiAutomaton, label_and,
                          map_comparisons)


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
                    if stamps[j] - anchor > interval.upper:
                        return False
                    if interval.contains(stamps[j] - anchor) and ev(b, j, stamps[j]):
                        return True
                    if not ev(a, j, stamps[j]):
                        return False
                return False
        raise TypeError(f)

    return ev(formula, position, stamps[position])


def stamps_scaled(word: LassoTimedWord, factor: int) -> LassoTimedWord:
    """``word`` with every stamp and the period multiplied by ``factor``."""
    return LassoTimedWord(
        prefix=tuple((letter, t * factor) for letter, t in word.prefix),
        cycle=tuple((letter, t * factor) for letter, t in word.cycle),
        period=word.period * factor)


# --- lasso and run checks in Fraction arithmetic --------------------------

def lasso_refusal(prefix, cycle, period):
    """The message with which a lasso of these (payload, stamp) pairs and
    this period is refused, or ``None``: the checks applied to the
    ``Fraction``s as given, in the package's order."""
    if not cycle:
        return "lasso cycle must be nonempty"
    if period <= 0:
        return f"lasso period must be positive: {period}"
    stamps = [t for _, t in list(prefix) + list(cycle)]
    for a, b in zip(stamps, stamps[1:]):
        if a >= b:
            return f"timestamps must strictly increase: {a} then {b}"
    if cycle[0][1] + period - cycle[-1][1] <= 0:
        return ("cycle repetition would not advance time: "
                f"period {period} too small for the cycle span")
    return None


def run_refusal(system, prefix, cycle, period):
    """The message with which a run of these (state, stamp) pairs is
    refused as a run, or as a run of ``system``, or ``None``: every step of
    prefix + cycle, into the second turn and one more, must be a
    transition taking its weight."""
    refusal = lasso_refusal(prefix, cycle, period)
    if refusal is not None:
        return refusal
    events = list(prefix) + [(s, t + turn * period) for turn in range(3)
                             for s, t in cycle]
    if events[0][1] != 0:
        return "runs start at time zero"
    if events[0][0] not in system.initial:
        return f"run starts at {events[0][0]}, not an initial state"
    steps = len(prefix) + len(cycle) + 1
    for i, ((here, stamp), (there, arrival)) in enumerate(
            zip(events[:steps], events[1:])):
        weight = system.weights.get((here, there))
        if weight is None:
            return f"step {i}: {here} -> {there} is not a transition"
        if arrival != stamp + weight:
            return (f"step {i}: arrival at {there} stamped {arrival}, "
                    f"expected {stamp + weight}")
    return None


# --- the merge of runs, one event at a time --------------------------------

def integer_steps(sequence, factor: int) -> list:
    """Per position of prefix + cycle: the time to the next position, in
    units of ``1 / factor``, and that position reduced into prefix + cycle."""
    stamps, period = sequence.integer_timeline(factor)
    after = [*range(1, len(stamps)), sequence.loop]
    return [(stamps[a] + period * (a <= j) - stamps[j], a)
            for j, a in enumerate(after)]


def stepping_merge(runs):
    """The collective run of ``runs`` by simulation: repeatedly, the agents
    whose next arrival time is minimal complete their transitions together
    and that arrival time becomes the next collective stamp; everyone else
    stays in place.  The cycle closes at the first repeat of (per-agent
    reduced position, per-agent time to next arrival).  Counts in
    integers, under the lcm of the runs' units."""
    from math import lcm

    from mitlplan.wts import CollectiveRun

    factor = lcm(*(run.unit for run in runs))
    states = [run.payloads for run in runs]
    steps = [integer_steps(run, factor) for run in runs]
    agents = range(len(runs))
    positions = [0 for _ in runs]
    pending = [steps[k][0][0] for k in agents]
    now = 0
    vectors = [tuple(states[k][0] for k in agents)]
    ticks = [now]
    seen = {(tuple(positions), tuple(pending)): 0}
    while True:
        step = min(pending)
        now += step
        for k in agents:
            pending[k] -= step
            if pending[k] == 0:
                positions[k] = steps[k][positions[k]][1]
                pending[k] = steps[k][positions[k]][0]
        config = (tuple(positions), tuple(pending))
        if config in seen:
            start = seen[config]
            return CollectiveRun.from_ticks(vectors, start, ticks,
                                            now - ticks[start], factor)
        seen[config] = len(ticks)
        vectors.append(tuple(states[k][positions[k]] for k in agents))
        ticks.append(now)


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
                           denominators=(1, 2), constants=False):
    """Interval endpoints are drawn over ``denominators``; with
    ``constants`` a third of the leaves are ``true`` or ``false``."""
    atoms = sorted(atoms)
    if depth == 0 or rng.random() < 0.25:
        if constants and rng.random() < 1 / 3:
            return rng.choice([TrueFormula(), FalseFormula()])
        return Atom(rng.choice(atoms))
    pick = rng.randrange(8)
    sub = lambda: random_bounded_formula(rng, atoms, depth - 1, denominators,
                                         constants)
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
    match constraint:
        case TrueFormula():
            return True
        case Not(operand):
            return not evaluate_constraint(operand, valuation)
        case And(left, right):
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


def label_holds(label, letter) -> bool:
    """A propositional ``label`` on ``letter``, by the brute force on the
    one-position word that reads it."""
    word = LassoTimedWord(prefix=(), cycle=((frozenset(letter), Fraction(0)),),
                          period=Fraction(1))
    return brute_force_evaluate(word, 0, label)


def reference_step(automaton, location, valuation, elapse, letter, cmax):
    """The ``(target, landed valuation)`` pairs of one step, each listed
    once, at its first edge in edge order: elapse, source invariant, edge
    label on the target letter, guard, resets, saturation of clocks above
    ``cmax`` at ``cmax + 1``, target invariant."""
    elapsed = {clock: value + elapse
               for clock, value in zip(automaton.clocks, valuation)}
    if not evaluate_constraint(automaton.invariants[location], elapsed):
        return []
    out = []
    for edge in automaton.edges:
        if edge.source != location or not label_holds(edge.label, letter):
            continue
        if not evaluate_constraint(edge.guard, elapsed):
            continue
        landed = {clock: 0 if clock in edge.resets
                  else value if value <= cmax else cmax + 1
                  for clock, value in elapsed.items()}
        move = (edge.target, tuple(landed[clock] for clock in automaton.clocks))
        if (evaluate_constraint(automaton.invariants[edge.target], landed)
                and move not in out):
            out.append(move)
    return out


def random_clock_constraint(rng: random.Random, clocks, depth=2, max_const=4):
    pick = rng.randrange(4) if depth else 0
    if pick == 0:
        return Compare(rng.choice(clocks), rng.choice(["<", "<=", ">", ">=", "="]),
                       Fraction(rng.randrange(0, max_const + 1)))
    if pick == 1:
        return Not(random_clock_constraint(rng, clocks, depth - 1))
    if pick == 2:
        return And(random_clock_constraint(rng, clocks, depth - 1),
                   random_clock_constraint(rng, clocks, depth - 1))
    return TrueFormula()


def exact_letter(letter, atoms):
    """The label that holds on ``letter`` alone among the subsets of
    ``atoms``."""
    out = TrueFormula()
    for atom in sorted(atoms):
        literal = Atom(atom) if atom in letter else Not(Atom(atom))
        out = literal if isinstance(out, TrueFormula) else And(out, literal)
    return out


def random_automaton(rng: random.Random, letters, clocks=("x", "y"), size=4):
    """Random invariants, guards, resets and edge labels over two clocks,
    unlike the translator's fixed shapes; a label is a random propositional
    formula or the exact label of one letter.  About a third of the edges
    are copied under another label, so that two edges enabled on one
    letter often have one effect."""
    atoms = frozenset().union(*letters)

    def label():
        if rng.random() < 0.5:
            return random_propositional(rng, atoms)
        return exact_letter(rng.choice(letters), atoms)

    def relabelled(edge):
        other = label()
        while other == edge.label:
            other = label()
        return Edge(edge.source, edge.guard, edge.resets, edge.target, other)

    locations = [f"l{i}" for i in range(size)]
    edges = [
        Edge(source, random_clock_constraint(rng, clocks),
             frozenset(c for c in clocks if rng.random() < 0.3), target,
             label())
        for source in locations for target in locations if rng.random() < 0.6]
    edges += [relabelled(edge) for edge in rng.sample(edges, len(edges) // 3)]
    return TimedBuchiAutomaton(
        locations=tuple(locations), initial={locations[0]: label()},
        clocks=tuple(clocks),
        invariants={loc: random_clock_constraint(rng, clocks)
                    if rng.random() < 0.5 else TrueFormula()
                    for loc in locations},
        edges=tuple(edges), accepting=(frozenset({rng.choice(locations)}),),
        atoms=atoms)


# --- intersection by the nested loop ---------------------------------------

def reference_intersect(a: TimedBuchiAutomaton, b: TimedBuchiAutomaton) -> TimedBuchiAutomaton:
    """Accepts exactly the words accepted by both automata, each of one
    acceptance set, by the degeneralized product of one set.

    Combined locations are (location of a, location of b, flag); the flag
    alternates between waiting for an accepting visit of ``a`` (flag 1) and
    of ``b`` (flag 2), and acceptance is flag 1 at an accepting location of
    ``a``.  A combined edge or initial location reads the conjunction of
    the two labels.

    Every part is built afresh for each location pair, edge pair and
    flag.
    """
    (accepting_a,), (accepting_b,) = a.accepting, b.accepting

    def clock_a(name: str) -> str:
        return f"a_{name}"

    def clock_b(name: str) -> str:
        return f"b_{name}"

    def rename(constraint: Formula, prefix) -> Formula:
        return map_comparisons(constraint, lambda c: Compare(
            prefix(c.clock), c.relation, c.constant))

    def name(la: str, lb: str, flag: int) -> str:
        return f"{la}|{lb}|{flag}"

    locations = []
    invariants = {}
    initial = {}
    accepting = set()
    pairs = [(la, lb) for la in a.locations for lb in b.locations]
    for la, lb in pairs:
        for flag in (1, 2):
            loc = name(la, lb, flag)
            locations.append(loc)
            invariants[loc] = label_and(rename(a.invariants[la], clock_a),
                                             rename(b.invariants[lb], clock_b))
            if la in a.initial and lb in b.initial and flag == 1:
                initial[loc] = label_and(a.initial[la], b.initial[lb])
            if flag == 1 and la in accepting_a:
                accepting.add(loc)

    def next_flag(flag: int, la: str, lb: str) -> int:
        if flag == 1:
            return 2 if la in accepting_a else 1
        return 1 if lb in accepting_b else 2

    edges = []
    for la, lb in pairs:
        for ea in a.edges_from(la):
            for eb in b.edges_from(lb):
                guard = label_and(rename(ea.guard, clock_a),
                                       rename(eb.guard, clock_b))
                resets = frozenset(clock_a(c) for c in ea.resets) | frozenset(
                    clock_b(c) for c in eb.resets)
                label = label_and(ea.label, eb.label)
                for flag in (1, 2):
                    edges.append(Edge(name(la, lb, flag), guard, resets,
                                      name(ea.target, eb.target,
                                           next_flag(flag, la, lb)), label))
    return TimedBuchiAutomaton(
        locations=tuple(locations),
        initial=initial,
        clocks=tuple(clock_a(c) for c in a.clocks) + tuple(clock_b(c)
                                                           for c in b.clocks),
        invariants=invariants,
        edges=tuple(edges),
        accepting=(accepting,),
        atoms=a.atoms | b.atoms,
    )


# --- Buchi emptiness by SCC decomposition --------------------------------

def scc_has_accepting_cycle(initial, successors, marks, all_marks) -> bool:
    """Tarjan over the reachable graph; true iff some cyclic SCC (of size
    > 1, or a self-loop) reachable from an initial state holds every
    acceptance set: the union of its states' ``marks`` (a dict of
    bitmasks, 0 where absent) is ``all_marks``."""
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
                cyclic = len(component) > 1 or v in successors(v)
                union = 0
                for s in component:
                    union |= marks.get(s, 0)
                if cyclic and union == all_marks:
                    found[0] = True

    for init in initial:
        if init not in index:
            strongconnect(init)
    return found[0]


def lasso_product_oracle(automaton, word) -> tuple[bool, int]:
    """Whether ``word`` has an accepting run of ``automaton``, decided on
    the whole product of the word's positions with the automaton: each
    step by :func:`reference_step` under the lcm of the word's unit and
    the constants' denominators, and the product by
    :func:`scc_has_accepting_cycle`, a state's marks being the acceptance
    sets that hold its location.  Also the number of product states with
    more than one successor."""
    factor = lcm(word.unit, *(c.denominator for c in automaton.constants()))
    scaled = automaton.scaled(factor)
    cmax = scaled.cmax()
    gaps = integer_steps(word, factor)

    @cache  # the oracle's pass asks again for each state
    def successors(state):
        position, location, valuation = state
        gap, after = gaps[position]
        return [(after, target, landed) for target, landed in
                reference_step(scaled, location, valuation, gap,
                               word.payloads[after], cmax)]

    zero = dict.fromkeys(scaled.clocks, 0)
    initial = [(0, location, scaled.zero_valuation())
               for location in sorted(scaled.initial)
               if label_holds(scaled.initial[location], word.payloads[0])
               and evaluate_constraint(scaled.invariants[location], zero)]
    marks = dict.fromkeys(initial, 0)
    branching = 0
    queue = list(initial)
    for state in queue:
        marks[state] = sum(1 << i for i, held in enumerate(scaled.accepting)
                           if state[1] in held)
        following = successors(state)
        branching += len(following) > 1
        for succ in following:
            if succ not in marks:
                marks[succ] = 0
                queue.append(succ)
    all_marks = (1 << len(scaled.accepting)) - 1
    return (scc_has_accepting_cycle(initial, successors, marks, all_marks),
            branching)


def random_buchi_graph(rng: random.Random, max_states=50, sets=1):
    """A random graph with ``sets`` acceptance sets of up to 5 states each:
    its states, initial states, edges and marks (state -> bitmask, the
    states in no set left out).  The sets are drawn last, so a seed's
    edges, initial states and first set do not depend on ``sets``."""
    n = rng.randrange(2, max_states + 1)
    states = list(range(n))
    edges = {s: [] for s in states}
    for s in states:
        for t in states:
            if rng.random() < 2.5 / n:
                edges[s].append(t)
        edges[s].sort()
    initial = sorted(rng.sample(states, rng.randrange(1, 3)))
    marks = {}
    for k in range(sets):
        for s in rng.sample(states, rng.randrange(0, min(6, n))):
            marks[s] = marks.get(s, 0) | 1 << k
    return states, initial, edges, marks


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
                out.append((list(path), total + system.weights[last, head]))
            if len(path) - 1 < max_cycle - 1:
                for weight, nxt in system.successors(last):
                    walk(path + [nxt], total + weight)

        walk([head], Fraction(0))
        return out

    def stems(start):
        yield [start]
        frontier = [[start]]
        for _ in range(max_stem):
            grown = []
            for path in frontier:
                for _, nxt in system.successors(path[-1]):
                    grown.append(path + [nxt])
                    yield path + [nxt]
            frontier = grown

    for start in sorted(system.initial):
        for stem in stems(start):
            head = stem[-1]
            for cycle_states, period in cycles_from(head):
                stamps = [Fraction(0)]
                for here, there in zip(stem, stem[1:]):
                    stamps.append(stamps[-1] + system.weights[here, there])
                cycle_stamps = [stamps[-1]]
                for here, there in zip(cycle_states, cycle_states[1:]):
                    cycle_stamps.append(cycle_stamps[-1]
                                        + system.weights[here, there])
                prefix = tuple(zip(stem[:-1], stamps[:-1]))
                cycle = tuple(zip(cycle_states, cycle_stamps))
                runs.append(TimedRun(prefix=prefix, cycle=cycle, period=period))
    return runs


class ExplicitGraph:
    """Adapter giving a plain edge-dict and a dict of marks (state ->
    bitmask of its acceptance sets, 0 where absent) the lazy-graph
    interface."""

    def __init__(self, initial, edges, marks, all_marks=1,
                 weight=Fraction(1)):
        self._initial = list(initial)
        self._edges = edges
        self._marks = dict(marks)
        self.all_marks = all_marks
        self._weight = weight

    def initial_states(self):
        return tuple(self._initial)

    def successors(self, state):
        return tuple((self._weight, t) for t in self._edges.get(state, ()))

    def marks(self, state):
        return self._marks.get(state, 0)


def team_successor_key(pair):
    """The team layer's successor order, spelled out field by field: the
    components, then per agent ``(0,)`` without a move in flight and
    ``(1, target)`` with one.  It reads neither the remaining times nor the
    letter."""
    _, state = pair
    return (state.components,
            tuple((1, target) if target else (0,) for target in state.targets))


def deadline_exits(product: GlobalProduct, state):
    """Each conjunct of the invariant at the state's location that bounds a
    clock from above, as ``(clock, relation, constant, least exit bound)``,
    read from the invariant's comparisons with their own relations: a
    translated automaton writes each deadline as ``x <= u`` or ``x < u``.
    The exits are the edges that leave the location or reset the clock,
    each bounded through ``product``'s time to an atom."""
    automaton = product.automaton
    time_to = partial(product._time_to, state.node)
    parts = [automaton.invariants[state.location]]
    for part in parts:
        if isinstance(part, And):
            parts += (part.left, part.right)
        elif isinstance(part, Compare) and part.relation in ("<", "<="):
            exits = [_time_bound(normalize(edge.label))(time_to)
                     for edge in automaton.edges_from(state.location)
                     if edge.target != state.location
                     or part.clock in edge.resets]
            yield (part.clock, part.relation, part.constant,
                   min(exits, default=inf))


def least_exit_bound(product: GlobalProduct, state):
    """The global layer's sort key: the least exit bound over the state's
    deadlines, 0 without one."""
    return min((bound for *_, bound in deadline_exits(product, state)),
               default=0)


class UnprunedGlobalProduct(GlobalProduct):
    """The global layer without its deadline pruning: every initial state
    and successor that the team graph and the team automaton build, the
    successors stably sorted by :func:`least_exit_bound`, dead ones too."""

    initial_states = AutomatonProduct.initial_states

    def successors(self, state):
        return tuple(sorted(AutomatonProduct.successors(self, state),
                            key=lambda pair: least_exit_bound(self, pair[1])))


class _Memoized:
    """Mixed in before a layer: every successor list memoized per state,
    and the statistics walked off the memo, as they were when every layer
    memoized.  The global layer's ``pruned`` is what the unpruned product
    builds from the expanded states, initial ones included, less what the
    layer kept."""

    def __init__(self, *args):
        super().__init__(*args)
        self.cache = {}

    def successors(self, state):
        if state not in self.cache:
            self.cache[state] = super().successors(state)
        return self.cache[state]

    def statistics(self) -> dict:
        cache = self.cache
        out = {"states": len(cache),
               "edges": sum(len(v) for v in cache.values()),
               "accepting": sum(1 for s in cache
                                if self.marks(s) == self.all_marks)}
        if isinstance(self, GlobalProduct):
            built = len(AutomatonProduct.initial_states(self)) + sum(
                len(AutomatonProduct.successors(self, s)) for s in cache)
            out["pruned"] = built - len(self.initial_states()) - out["edges"]
        return out


class MemoizedLocalProduct(_Memoized, LocalProduct):
    pass


class MemoizedTeamProduct(_Memoized, TeamProduct):
    pass


class MemoizedGlobalProduct(_Memoized, GlobalProduct):
    pass
