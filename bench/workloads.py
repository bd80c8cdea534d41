"""Seeded inputs for the benchmark workloads, and their expected outcomes.

Every expected outcome is established here without the planner:

- a satisfiable plan instance comes with a witness pair of runs, built
  from shortest paths and checked with the brute-force evaluator of
  ``tests/oracles.py``; a returned plan is re-checked against its
  deadlines, its grid weights and that same evaluator;
- an unsatisfiable instance has a team deadline below a shortest-path
  lower bound on the meeting time;
- a check instance has verdicts that follow from gaps measured on the runs
  by this module's own merge, and ``accepts_lasso`` must agree with them;
- a translation must load back with the sizes its file lists, and accept
  the seeded sample words the evaluator accepts.

Instances are drawn from the seed alone and never filtered by running the
planner.  The drawn instances of one workload cost about the same to solve,
so that runs on different seeds can be compared: plan instances are mirror
images of one layout (mirroring moves the start, recharge and meeting cells
and swaps the move weights with them, so the product graphs are
isomorphic); translations keep their pattern shapes and draw atoms,
polarities and constants; check runs have fixed lengths and draw their
walks and labelled cells.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Callable, Optional

from mitlplan.core import LassoSequence, LassoTimedWord
from mitlplan.mitl import parse_formula, satisfies
from mitlplan.tba import accepts_lasso, tba_from_dict
from oracles import brute_force_evaluate, random_lasso_word

MOVES = {"up": (-1, 0), "right": (0, 1), "down": (1, 0), "left": (0, -1)}
SIXTH = Fraction(1, 6)


@dataclass
class Operation:
    """One step of a pass: a CLI call (``argv``) or a harness call
    (``call``, given the modules it may use).  ``check`` turns the outcome
    into a list of problems; an empty list means the output is correct."""

    label: str
    check: Callable
    argv: Optional[list] = None
    call: Optional[Callable] = None
    expect_code: int = 0


@dataclass
class Outcome:
    code: Optional[int] = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: Optional[str] = None


# --- grids -----------------------------------------------------------------

def cell_name(cols: int, row: int, col: int) -> str:
    return f"p{row * cols + col + 1}"


def cell_of(cols: int, name: str) -> tuple:
    return divmod(int(name[1:]) - 1, cols)


def grid_neighbours(rows, cols, cell, weights):
    row, col = cell
    for move, (dr, dc) in MOVES.items():
        r2, c2 = row + dr, col + dc
        if 0 <= r2 < rows and 0 <= c2 < cols:
            yield (r2, c2), Fraction(weights[move])


def grid_weight(rows, cols, weights, here, there) -> Fraction:
    for cell, weight in grid_neighbours(rows, cols, here, weights):
        if cell == there:
            return weight
    raise ValueError(f"{here} -> {there} is not a grid move")


def shortest_path(rows, cols, weights, start, goal):
    """Dijkstra on the grid: (travel time, cells from start to goal)."""
    best = {start: Fraction(0)}
    parent = {}
    queue = [(Fraction(0), start)]
    while queue:
        here_time, here = heapq.heappop(queue)
        if here == goal:
            path = [goal]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return here_time, path[::-1]
        if here_time > best[here]:
            continue
        for there, weight in grid_neighbours(rows, cols, here, weights):
            if there not in best or here_time + weight < best[there]:
                best[there] = here_time + weight
                parent[there] = here
                heapq.heappush(queue, (best[there], there))
    raise ValueError(f"{goal} unreachable from {start}")


# --- lasso runs and their merge, independent of the package ---------------

@dataclass(frozen=True)
class Run:
    """A lasso run as plain data: ``prefix`` and ``cycle`` hold
    (state, arrival time) pairs; the cycle repeats shifted by ``period``."""

    prefix: tuple
    cycle: tuple
    period: Fraction

    def unrolled(self, horizon):
        """Events with time below ``horizon``."""
        out = [e for e in self.prefix if e[1] < horizon]
        for turn in itertools.count():
            shift = turn * self.period
            if self.cycle[0][1] + shift >= horizon:
                return out
            out.extend((s, t + shift) for s, t in self.cycle
                       if t + shift < horizon)

    def renamed(self, name):
        return Run(tuple((name(s), t) for s, t in self.prefix),
                   tuple((name(s), t) for s, t in self.cycle), self.period)

    def to_json(self) -> dict:
        def events(part):
            return [[s, str(t)] for s, t in part]
        return {"prefix": events(self.prefix), "cycle": events(self.cycle),
                "period": str(self.period)}


def run_along(path_cells, weight_of, loop_cells):
    """Walk ``path_cells`` from time zero, then repeat ``loop_cells`` (a
    closed walk starting at the path's last cell) forever."""
    events = [(path_cells[0], Fraction(0))]
    for here, there in zip(path_cells, path_cells[1:]):
        events.append((there, events[-1][1] + weight_of(here, there)))
    start = len(events) - 1
    for here, there in zip(loop_cells, loop_cells[1:] + loop_cells[:1]):
        events.append((there, events[-1][1] + weight_of(here, there)))
    period = events[-1][1] - events[start][1]
    return Run(prefix=tuple(events[:start]), cycle=tuple(events[start:-1]),
               period=period)


def rational_lcm(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(lcm(a.numerator, b.numerator),
                    gcd(a.denominator, b.denominator))


def merged_events(runs):
    """The collective lasso of several runs: at every arrival time of any
    agent, the vector of each agent's latest state.  Returns (prefix,
    cycle, period) with vector payloads."""
    period = runs[0].period
    for run in runs[1:]:
        period = rational_lcm(period, run.period)
    start = max(run.cycle[0][1] for run in runs)
    streams = [run.unrolled(start + period) for run in runs]
    times = sorted({t for stream in streams for _, t in stream})
    cursors = [0] * len(runs)
    events = []
    for t in times:
        for k, stream in enumerate(streams):
            while (cursors[k] + 1 < len(stream)
                   and stream[cursors[k] + 1][1] <= t):
                cursors[k] += 1
        events.append((tuple(stream[c][0] for stream, c in
                             zip(streams, cursors)), t))
    prefix = tuple(e for e in events if e[1] < start)
    cycle = tuple(e for e in events if e[1] >= start)
    return prefix, cycle, period


def word_of(prefix, cycle, period, label) -> LassoTimedWord:
    return LassoTimedWord(prefix=tuple((label(v), t) for v, t in prefix),
                          cycle=tuple((label(v), t) for v, t in cycle),
                          period=period)


def first_positions(word: LassoSequence, count: int) -> list:
    """The first ``count`` (payload, stamp) pairs of a lasso."""
    turns = max(0, count - word.prefix_length) // word.cycle_length + 1
    return list(word.unroll(turns)[:count])


def unrolled_events(prefix, cycle, period, turns):
    out = list(prefix)
    for turn in range(turns):
        out.extend((v, t + turn * period) for v, t in cycle)
    return out


# --- plan instances --------------------------------------------------------

@dataclass(frozen=True)
class Layout:
    """A two-robot meeting problem on one grid.  Cells are (row, col)."""

    rows: int
    cols: int
    weights: tuple          # move weights of r1 and r2
    starts: tuple
    recharge: tuple         # recharge cell of r1 and r2
    areas: tuple            # meeting areas A and B
    recharge_deadlines: tuple
    meeting_deadline: int

    def mirrored(self, flip_cols: bool, flip_rows: bool) -> "Layout":
        def cell(c):
            row, col = c
            return ((self.rows - 1 - row) if flip_rows else row,
                    (self.cols - 1 - col) if flip_cols else col)

        def weights(w):
            w = dict(w)
            if flip_cols:
                w["left"], w["right"] = w["right"], w["left"]
            if flip_rows:
                w["up"], w["down"] = w["down"], w["up"]
            return w
        return Layout(self.rows, self.cols,
                      tuple(weights(w) for w in self.weights),
                      tuple(map(cell, self.starts)),
                      tuple(map(cell, self.recharge)),
                      tuple(map(cell, self.areas)),
                      self.recharge_deadlines, self.meeting_deadline)


def _deadline(formula: str) -> int:
    match = re.match(r"\s*F\[<=(\d+)\]", formula)
    if match is None:
        raise ValueError(f"expected a deadline formula F[<=d] ..., got {formula!r}")
    return int(match.group(1))


def layout_from_problem(problem: dict) -> Layout:
    """The layout of a problem file shaped like ``fixtures/grid_meet.json``."""
    r1, r2 = problem["agents"]
    rows, cols = r1["grid"]["rows"], r1["grid"]["cols"]

    def where(agent, atom):
        for name, atoms in agent["grid"]["labels"].items():
            if atom in atoms:
                return cell_of(cols, name)
        raise ValueError(f"no cell labelled {atom}")
    return Layout(
        rows=rows, cols=cols,
        weights=tuple({k: Fraction(v) for k, v in a["grid"]["moveWeights"].items()}
                      for a in (r1, r2)),
        starts=(cell_of(cols, r1["initial"][0]), cell_of(cols, r2["initial"][0])),
        recharge=(where(r1, "recharge1"), where(r2, "recharge2")),
        areas=(where(r1, "meet1A"), where(r1, "meet1B")),
        recharge_deadlines=(_deadline(r1["formula"]), _deadline(r2["formula"])),
        meeting_deadline=_deadline(problem["global"]["formula"]),
    )


# a small layout of the same kind, for the benchmark's own tests
TINY_LAYOUT = Layout(
    rows=2, cols=3,
    weights=({"up": 1, "right": 1, "down": 2, "left": 2},
             {"up": 2, "right": 2, "down": 4, "left": 4}),
    starts=((0, 0), (1, 2)), recharge=((1, 1), (0, 2)),
    areas=((0, 1), (1, 0)), recharge_deadlines=(3, 6), meeting_deadline=8)


def problem_of(layout: Layout, meeting_deadline: int) -> dict:
    agents = []
    for k in (0, 1):
        n = k + 1
        labels = {layout.recharge[k]: [f"recharge{n}"],
                  layout.areas[0]: [f"meet{n}A"],
                  layout.areas[1]: [f"meet{n}B"]}
        agents.append({
            "name": f"r{n}",
            "grid": {"rows": layout.rows, "cols": layout.cols,
                     "moveWeights": {m: str(Fraction(layout.weights[k][m]))
                                     for m in MOVES},
                     "labels": {cell_name(layout.cols, *c): atoms
                                for c, atoms in labels.items()}},
            "initial": [cell_name(layout.cols, *layout.starts[k])],
            "formula": f"F[<={layout.recharge_deadlines[k]}] recharge{n}",
        })
    return {"agents": agents,
            "global": {"formula": f"F[<={meeting_deadline}] ((meet1A & meet2A)"
                                  f" | (meet1B & meet2B))"}}


def meeting_lower_bound(layout: Layout) -> Fraction:
    """No joint run meets before both robots can reach the same area."""
    return min(max(shortest_path(layout.rows, layout.cols, layout.weights[k],
                                 layout.starts[k], area)[0] for k in (0, 1))
               for area in layout.areas)


def meeting_witness(layout: Layout):
    """Runs for both robots: each recharges, walks to area A and then
    shuttles between A and the neighbour it leaves A for most slowly.
    Returns the two runs with cell names."""
    runs = []
    area = layout.areas[0]
    for k in (0, 1):
        size = (layout.rows, layout.cols, layout.weights[k])
        _, leg1 = shortest_path(*size, layout.starts[k], layout.recharge[k])
        _, leg2 = shortest_path(*size, layout.recharge[k], area)
        neighbour, _ = max(grid_neighbours(layout.rows, layout.cols, area,
                                           layout.weights[k]),
                           key=lambda pair: (pair[1], pair[0]))
        runs.append(run_along(leg1 + leg2[1:],
                              lambda a, b, size=size: grid_weight(*size, a, b),
                              [area, neighbour]))
    return tuple(run.renamed(lambda c: cell_name(layout.cols, *c))
                 for run in runs)


def labeller(agent: dict):
    labels = agent["grid"]["labels"]
    return lambda cell: frozenset(labels.get(cell, ()))


def team_word(problem: dict, runs) -> LassoTimedWord:
    labels = [labeller(agent) for agent in problem["agents"]]
    return word_of(*merged_events(runs), lambda vector: frozenset().union(
        *(label(cell) for label, cell in zip(labels, vector))))


def formulas_hold(problem: dict, runs) -> list:
    """Problems found by brute-force evaluation of every formula of the
    problem on the given runs (cell names)."""
    problems = []
    agents = problem["agents"]
    for agent, run in zip(agents, runs):
        word = word_of(run.prefix, run.cycle, run.period, labeller(agent))
        if not brute_force_evaluate(word, 0, parse_formula(agent["formula"])):
            problems.append(f"{agent['name']}: {agent['formula']} fails")
    formula = problem["global"]["formula"]
    if not brute_force_evaluate(team_word(problem, runs), 0,
                                parse_formula(formula)):
        problems.append(f"team: {formula} fails")
    return problems


def draw_plan(rng: random.Random, base: Layout, satisfiable: bool):
    """A mirror image of ``base`` and its problem file; unsatisfiable
    instances get a meeting deadline below the lower bound.

    The search stops at the first lasso, and successors are ordered by cell
    name, which mirroring left to right does not preserve: on grid_meet
    those images explore 8% more states.  Satisfiable draws therefore
    mirror top to bottom only (2.4% apart), so that runs on different seeds
    stay comparable; exhaustive unsatisfiable searches use all four."""
    flip_cols = rng.random() < 0.5 and not satisfiable
    layout = base.mirrored(flip_cols, rng.random() < 0.5)
    bound = meeting_lower_bound(layout)
    if satisfiable:
        deadline = layout.meeting_deadline
        problem = problem_of(layout, deadline)
        witness = meeting_witness(layout)
        problems = formulas_hold(problem, witness)
        if problems:
            raise ValueError(f"the witness of a satisfiable draw fails: {problems}")
    else:
        if bound < 2:
            raise ValueError("the layout's meeting bound is too small to undercut")
        deadline = rng.randrange(max(1, int(bound) // 2), int(bound))
        problem = problem_of(layout, deadline)
    return layout, problem, bound, deadline


def _plan_json_runs(plan: dict):
    def events(part):
        return tuple((s, Fraction(t)) for s, t in part)
    return [Run(events(a["run"]["prefix"]), events(a["run"]["cycle"]),
                Fraction(a["run"]["period"])) for a in plan["agents"]]


def check_plan(layout: Layout, problem: dict, out_dir: Path) -> list:
    """Re-check a returned plan without the package's evaluator: every
    step follows a grid move at its weight, every deadline is met, the
    collective word is the merge of the runs, and brute force agrees."""
    try:
        plan = json.loads((out_dir / "plan.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"plan.json unreadable: {exc}"]
    problems = []
    if plan.get("status") != "success":
        problems.append(f"status {plan.get('status')!r}")
    if not all(v["satisfied"] for v in plan["verdicts"]):
        problems.append("a verdict in plan.json is not satisfied")
    runs = _plan_json_runs(plan)
    for k, run in enumerate(runs):
        size = (layout.rows, layout.cols, layout.weights[k])
        stamps = list(run.prefix) + list(run.cycle) + [
            (run.cycle[0][0], run.cycle[0][1] + run.period)]
        for (a, ta), (b, tb) in zip(stamps, stamps[1:]):
            try:
                weight = grid_weight(*size, cell_of(layout.cols, a),
                                     cell_of(layout.cols, b))
            except ValueError:
                problems.append(f"r{k + 1}: {a} -> {b} is not a move")
                break
            if tb - ta != weight:
                problems.append(f"r{k + 1}: {a} -> {b} takes {tb - ta}, "
                                f"not {weight}")
                break
        if stamps[0] != (cell_name(layout.cols, *layout.starts[k]), 0):
            problems.append(f"r{k + 1} does not start at its initial cell")
        first = min((t for s, t in run.unrolled(4 * run.period + stamps[-1][1])
                     if cell_of(layout.cols, s) == layout.recharge[k]),
                    default=None)
        if first is None or first > layout.recharge_deadlines[k]:
            problems.append(f"r{k + 1} recharges at {first}, after "
                            f"{layout.recharge_deadlines[k]}")
    deadline = _deadline(problem["global"]["formula"])
    mine = team_word(problem, runs)
    theirs = plan["collective"]["word"]
    horizon = max(mine.prefix_length, len(theirs["prefix"])) + 2 * max(
        mine.cycle_length, len(theirs["cycle"]))
    given = LassoTimedWord(
        prefix=tuple((frozenset(a), Fraction(t)) for a, t in theirs["prefix"]),
        cycle=tuple((frozenset(a), Fraction(t)) for a, t in theirs["cycle"]),
        period=Fraction(theirs["period"]))
    if first_positions(given, horizon) != first_positions(mine, horizon):
        problems.append("collective word differs from the merge of the runs")
    meets = [t for a, t in mine.unroll(3)
             if {"meet1A", "meet2A"} <= a or {"meet1B", "meet2B"} <= a]
    if not meets or min(meets) > deadline:
        problems.append(f"no meeting by {deadline}")
    problems.extend(formulas_hold(problem, runs))
    return problems


def plan_operations(rng, work: Path, base: Layout, satisfiable: bool):
    layout, problem, bound, deadline = draw_plan(rng, base, satisfiable)
    path = work / "problem.json"
    path.write_text(json.dumps(problem, indent=2))
    out_dir = work / "out"
    if satisfiable:
        def check(outcome):
            return check_plan(layout, problem, out_dir)
        return [Operation("plan", check, argv=["plan", str(path), "--out-dir",
                                               str(out_dir)])]

    def check_unsat(outcome):
        problems = []
        if not deadline < bound:
            problems.append(f"deadline {deadline} is not below the bound {bound}")
        if "UNSATISFIABLE" not in outcome.stdout:
            problems.append("no UNSATISFIABLE line")
        if (out_dir / "plan.json").exists():
            problems.append("plan.json written for an unsatisfiable problem")
        return problems
    return [Operation("plan", check_unsat, expect_code=1,
                      argv=["plan", str(path), "--out-dir", str(out_dir)])]


# --- translate-conj --------------------------------------------------------

ATOMS = ("a", "b", "c", "d", "e", "f")
# one two-conjunct and one three-conjunct formula per pass; together they
# use each of the five translatable patterns
CONJUNCTIONS = (("F", "G"), ("GF", "response", "U"))
BOUNDED = {"F", "G", "U"}


def _pattern(kind: str, atoms, rng: random.Random) -> str:
    def literal(atom):
        return f"!{atom}" if rng.random() < 0.5 else atom
    bound = rng.randrange(2, 13)
    if kind == "F":
        return f"F[<={bound}] {literal(atoms[0])}"
    if kind == "G":
        return f"G[<={bound}] {literal(atoms[0])}"
    if kind == "U":
        return f"({literal(atoms[0])} U[<={bound}] {literal(atoms[1])})"
    if kind == "GF":
        return f"G F[<={bound}] {literal(atoms[0])}"
    if kind == "response":
        atom = literal(atoms[0])
        return f"G({atom} -> X G[<={bound}] !{atom})"
    raise ValueError(kind)


def draw_conjunction(rng: random.Random, kinds, atoms) -> str:
    order = list(atoms)
    rng.shuffle(order)
    parts = []
    for kind in kinds:
        used = 2 if kind == "U" else 1
        parts.append(_pattern(kind, order[:used], rng))
        order = order[used:]
    return " & ".join(parts)


def check_translation(path: Path, formula: str, kinds, words) -> list:
    try:
        data = json.loads(path.read_text())
        automaton = tba_from_dict(data)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name} does not load back: {exc}"]
    problems = []
    if (len(automaton.locations), len(automaton.edges), len(automaton.clocks)) != (
            len(data["locations"]), len(data["edges"]), len(data["clocks"])):
        problems.append(f"{path.name}: loaded sizes differ from the file's lists")
    parsed = parse_formula(formula)
    for word in words:
        expected = (brute_force_evaluate(word, 0, parsed)
                    if set(kinds) <= BOUNDED else satisfies(word, parsed))
        if accepts_lasso(automaton, word) != expected:
            problems.append(f"{path.name}: membership of a sample word "
                            f"differs from the evaluator")
    return problems


def translate_operations(rng, work: Path, shapes, atoms, sample_words=2):
    ops = []
    for index, kinds in enumerate(shapes):
        formula = draw_conjunction(rng, kinds, atoms)
        words = [random_lasso_word(rng, atoms, max_prefix=2, max_cycle=3)
                 for _ in range(sample_words)]
        path = work / f"automaton{index}.json"

        def check(outcome, path=path, formula=formula, kinds=kinds, words=words):
            return check_translation(path, formula, kinds, words)
        ops.append(Operation(f"translate#{index}", check,
                             argv=["translate", formula, "--alphabet",
                                   ",".join(atoms), "--out", str(path)]))
    return ops


# --- check-long ------------------------------------------------------------

@dataclass(frozen=True)
class CheckSize:
    rows: int
    cols: int
    cycles: tuple      # closed-walk lengths of r1 and r2
    weights: tuple     # every move of r1 takes 1/2, of r2 1/3
    max_prefix: int


# periods 100 and 120: the merged cycle spans 600 time units, about 2.4k
# positions
CHECK_FULL = CheckSize(rows=4, cols=4, cycles=(200, 360),
                       weights=(Fraction(1, 2), Fraction(1, 3)), max_prefix=4)
CHECK_TINY = CheckSize(rows=2, cols=3, cycles=(8, 12),
                       weights=(Fraction(1, 2), Fraction(1, 3)), max_prefix=2)


def _manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def closed_walk(rng, rows, cols, start, length):
    """A random walk of exactly ``length`` moves that ends where it starts
    (``length`` is even, as every closed walk on a grid is)."""
    walk = [start]
    for remaining in range(length, 0, -1):
        options = [c for c, _ in grid_neighbours(rows, cols, walk[-1],
                                                 {m: 1 for m in MOVES})
                   if _manhattan(c, start) <= remaining - 1]
        walk.append(rng.choice(options))
    return walk[:-1]


def draw_check_runs(rng, size: CheckSize):
    runs = []
    labels = []
    cells = [(r, c) for r in range(size.rows) for c in range(size.cols)]
    unit = {m: 1 for m in MOVES}
    for k in (0, 1):
        path = [rng.choice(cells)]
        for _ in range(rng.randrange(1, size.max_prefix + 1)):
            path.append(rng.choice([c for c, _ in grid_neighbours(
                size.rows, size.cols, path[-1], unit)]))
        loop = closed_walk(rng, size.rows, size.cols, path[-1], size.cycles[k])
        weight = size.weights[k]
        runs.append(run_along(path, lambda a, b, w=weight: w, loop))
        labels.append(rng.sample(sorted(set(loop)), 2))
    return runs, labels


def _need(events, atom, count):
    """For each of the first ``count`` positions, the time until ``atom``
    next holds (at or after the position)."""
    out = []
    nxt = None
    for j in range(len(events) - 1, -1, -1):
        if atom in events[j][0]:
            nxt = events[j][1]
        if j < count:
            out.append(None if nxt is None else nxt - events[j][1])
    return out[::-1]


def _gaps(events, atom, count):
    """Times from each ``atom`` position among the first ``count`` to the
    next one."""
    hits = [t for a, t in events if atom in a]
    firsts = sum(1 for a, _ in events[:count] if atom in a)
    return [hits[i + 1] - hits[i] for i in range(firsts)]


@dataclass
class CheckCase:
    scope: str
    formula: str
    holds: bool
    violation: Optional[int] = None   # expected first violating position
    translatable: bool = False


def cell_atoms(size: CheckSize, marked, k):
    """Atoms of agent ``k`` per cell: ``a``/``b`` on its two marked cells,
    ``e`` on every cell of even parity.  Each move flips the parity, so
    ``e`` holds after every other arrival, whatever the walk."""
    n = k + 1
    atoms = {(r, c): ({f"e{n}"} if (r + c) % 2 == 0 else set())
             for r in range(size.rows) for c in range(size.cols)}
    atoms[marked[0]] = atoms[marked[0]] | {f"a{n}"}
    atoms[marked[1]] = atoms[marked[1]] | {f"b{n}"}
    return atoms


def check_cases(size: CheckSize, runs, labels, names):
    """The formulas of one check instance, with verdicts that follow from
    the runs.  ``a`` and ``b`` mark different cells of one agent, so no
    window ever sees both at once; the ``G G`` windows are set from the run
    periods and are scanned in full at every position.  ``e`` recurs
    within one move time by parity, and fails a shorter window at the first
    position found by scanning the merged events.  The response window is
    set just below the shortest return of r2 to its ``b`` cell."""
    p1, p2 = runs[0].period, runs[1].period
    atoms = [cell_atoms(size, labels[k], k) for k in (0, 1)]
    prefix, cycle, period = merged_events(runs)
    team = [(frozenset().union(*(atoms[k][v[k]] for k in (0, 1))), t)
            for v, t in unrolled_events(prefix, cycle, period, 3)]
    short = Fraction(1, 4)
    first_late = next(j for j, n in enumerate(
        _need(team, "e2", len(prefix) + len(cycle))) if n > short)
    own = [(atoms[1][cell], t) for cell, t in
           unrolled_events(runs[1].prefix, runs[1].cycle, runs[1].period, 3)]
    quiet = min(_gaps(own, "b2", len(runs[1].prefix) + len(runs[1].cycle))) - SIXTH
    cases = [
        CheckCase("team", f"G G[<={p1 / 20}] !(a1 & b1)", True),
        CheckCase("team", f"G G[<={p2 / 20}] !(a2 & b2)", True),
        CheckCase("team", f"G F[<={size.weights[1]}] e2", True,
                  translatable=True),
        CheckCase("team", f"G F[<={short}] e2", False, first_late,
                  translatable=True),
        CheckCase(names[0], f"G F[<={size.weights[0]}] e1", True,
                  translatable=True),
        CheckCase(names[1], f"G (b2 -> X G[<={quiet}] !b2)", True,
                  translatable=True),
    ]
    return cases, (prefix, cycle, period)


def check_operations(rng, work: Path, size: CheckSize):
    runs, labels = draw_check_runs(rng, size)
    names = ("r1", "r2")
    named = [run.renamed(lambda c: cell_name(size.cols, *c)) for run in runs]
    model = {"agents": [{
        "name": names[k],
        "grid": {"rows": size.rows, "cols": size.cols,
                 "moveWeights": {m: str(size.weights[k]) for m in MOVES},
                 "labels": {cell_name(size.cols, *cell): sorted(atoms)
                            for cell, atoms in
                            cell_atoms(size, labels[k], k).items() if atoms}},
        "initial": [named[k].prefix[0][0]],
    } for k in (0, 1)]}
    model_path, runs_path = work / "model.json", work / "runs.json"
    model_path.write_text(json.dumps(model, indent=2))
    runs_path.write_text(json.dumps(
        {"runs": {names[k]: named[k].to_json() for k in (0, 1)}}, indent=2))
    cases, merged = check_cases(size, runs, labels, names)

    def check_verdicts(outcome):
        lines = outcome.stdout.splitlines()
        if len(lines) != len(cases):
            return [f"{len(lines)} verdict lines for {len(cases)} formulas"]
        problems = []
        for case, line in zip(cases, lines):
            if case.holds and not line.endswith("SATISFIED"):
                problems.append(f"{case.scope}: {case.formula}: {line}")
            if not case.holds and f"VIOLATED at position {case.violation} " \
                    not in line:
                problems.append(f"{case.scope}: {case.formula}: expected a "
                                f"violation at {case.violation}: {line}")
        return problems

    argv = ["check", "--model", str(model_path), "--runs", str(runs_path)]
    for case in cases:
        argv += ["--formula", f"{case.scope}: {case.formula}"]
    members = [case for case in cases if case.translatable]

    def membership(mods):
        """What ``plan`` does when it re-validates: build the words from
        the loaded runs and run each formula's automaton on its word."""
        cli, wts, mitl, tba = mods.cli, mods.wts, mods.mitl, mods.tba
        systems = cli.load_model(model_path)
        loaded = cli.load_runs(runs_path)
        collective = wts.collective_word_of(
            [systems[n] for n in names],
            wts.collective_run([loaded[n] for n in names]))
        words = {n: wts.timed_word_of(systems[n], loaded[n]) for n in names}
        verdicts = []
        for case in members:
            word = collective if case.scope == "team" else words[case.scope]
            atoms = (frozenset().union(*(s.atoms for s in systems.values()))
                     if case.scope == "team" else systems[case.scope].atoms)
            automaton = tba.translate_mitl(mitl.parse_formula(case.formula),
                                           alphabet=atoms)
            verdicts.append(tba.accepts_lasso(automaton, word))
        return verdicts, collective

    def check_membership(outcome):
        verdicts, collective = outcome.value
        problems = [f"accepts_lasso says {got} on {case.scope}: {case.formula}"
                    for case, got in zip(members, verdicts)
                    if got != case.holds]
        prefix, cycle, period = merged
        horizon = len(prefix) + 2 * len(cycle)
        mine = unrolled_events(prefix, cycle, period, 3)[:horizon]
        if [t for _, t in first_positions(collective, horizon)] != \
                [t for _, t in mine]:
            problems.append("the merged word's stamps differ from the "
                            "independent merge")
        return problems

    return [Operation("check", check_verdicts, argv=argv),
            Operation("membership", check_membership, call=membership)]


# --- workloads -------------------------------------------------------------

WORKLOADS = ("plan-sat", "plan-unsat", "translate-conj", "check-long")


def operations(workload: str, seed: int, work: Path, root: Path,
               tiny: bool = False):
    """Write the inputs of one pass into ``work``; return its operations."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("plan-sat", "plan-unsat"):
        base = TINY_LAYOUT if tiny else layout_from_problem(
            json.loads((root / "fixtures" / "grid_meet.json").read_text()))
        return plan_operations(rng, work, base, workload == "plan-sat")
    if workload == "translate-conj":
        if tiny:
            return translate_operations(rng, work, CONJUNCTIONS, ATOMS[:4])
        return translate_operations(rng, work, CONJUNCTIONS, ATOMS)
    if workload == "check-long":
        return check_operations(rng, work, CHECK_TINY if tiny else CHECK_FULL)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
