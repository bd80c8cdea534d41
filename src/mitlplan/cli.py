"""Command-line front end.

Commands:

- ``plan``       synthesize per-agent timed plans from a problem file
- ``check``      evaluate formulas on given runs
- ``translate``  compile a formula to an automaton file
- ``simulate``   merge runs into the collective trace and export it

Exit codes: 0 success, 1 unsatisfiable, 2 exploration budget exhausted,
3 parse or validation error, 4 formula outside the supported fragment.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import denominator_lcm, format_rational, parse_rational
from .mitl import (Formula, MitlError, PunctualIntervalError, atoms_of,
                   first_violation, format_formula, parse_formula)
from .search import (ExplorationLimitError, PlanBundle, ProductStack,
                     find_accepting_lasso, project_plan)
from .tba import (TimedBuchiAutomaton, UnsupportedFragmentError,
                  tba_from_dict, tba_to_dict, translate_mitl)
from .product import GlobalProduct, LocalProduct, TeamProduct
from .wts import (CollectiveRun, ModelValidationError, RunValidationError,
                  TimedRun, WeightedTransitionSystem, collective_run,
                  collective_word_of, grid_system, timed_word_of)

EXIT_SUCCESS = 0
EXIT_UNSATISFIABLE = 1
EXIT_EXPLORATION_LIMIT = 2
EXIT_INVALID_INPUT = 3
EXIT_UNSUPPORTED_FRAGMENT = 4

DEFAULT_STATE_BUDGET = 5_000_000


class InputError(Exception):
    """Malformed file contents or inconsistent problem definition."""


# --- the shape of input files -------------------------------------------------
# The loaders read fields without looking, after _check has held the file
# against its schema: a dict is an object whose "?" keys are optional (keyed
# by ``str``: any keys), ``[item]`` a list, ``[a, b]`` a pair, and a type or
# tuple of types a value.

_RATIONAL = (str, int)
_KINDS = {dict: "an object", list: "a list", str: "a string",
          int: "an integer", bool: "true or false",
          _RATIONAL: "a number or a rational string"}
_LABELS = {str: [str]}
_AGENT = {"name": str, "formula?": str, "tba?": str}
_EXPLICIT_AGENT = {**_AGENT, "states": [str], "initial": [str],
                   "atoms?": [str], "labels?": _LABELS,
                   "transitions": [{"from": str, "to": str,
                                    "weight": _RATIONAL}]}
_GRID_AGENT = {**_AGENT, "initial?": [str],
               "grid": {"rows": int, "cols": int,
                        "moveWeights": {str: _RATIONAL},
                        "labels?": _LABELS, "initial?": [str]}}
_TEAM = {"formula?": str, "tba?": str}
_RUNS = {"runs": {str: {"prefix?": [[str, _RATIONAL]],
                        "cycle?": [[str, _RATIONAL]], "period": _RATIONAL}}}
_TBA = {"clocks?": [str], "atoms?": [str],
        "locations": [{"name": str, "label?": [str], "invariant?": str,
                       "accepting?": bool, "initial?": bool}],
        "edges": [{"from": str, "to": str, "guard?": str, "resets?": [str]}]}


def _check(value, schema, where: str) -> None:
    if isinstance(schema, dict):
        _check(value, dict, where)
        if str in schema:
            for key, item in value.items():
                _check(item, schema[str], f"{where}.{key}")
            return
        for key, item in schema.items():
            name = key.rstrip("?")
            path = f"{where}.{name}" if where else name
            if name in value:
                _check(value[name], item, path)
            elif not key.endswith("?"):
                raise InputError(f"{path}: missing")
    elif isinstance(schema, list):
        _check(value, list, where)
        items = schema if len(schema) > 1 else schema * len(value)
        if len(value) != len(items):
            raise InputError(f"{where}: expected a list of {len(items)}")
        for i, (item, inner) in enumerate(zip(value, items)):
            _check(item, inner, f"{where}[{i}]")
    elif not isinstance(value, schema) or (isinstance(value, bool)
                                           and schema is not bool):
        # a JSON true is no number
        raise InputError(f"{where or 'top level'}: expected {_KINDS[schema]}")


def _check_model_file(data) -> None:
    """A model file, or the model part of a problem file."""
    _check(data, {"agents": list}, "")
    for i, entry in enumerate(data["agents"]):
        grid = isinstance(entry, dict) and "grid" in entry
        _check(entry, _GRID_AGENT if grid else _EXPLICIT_AGENT, f"agents[{i}]")


def _positive(value, where: str) -> int:
    _check(value, int, where)
    if value < 1:
        raise InputError(f"{where}: must be a positive integer, got {value}")
    return value


# --- loading ---------------------------------------------------------------

def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def load_system(entry: dict) -> WeightedTransitionSystem:
    if "grid" in entry:
        grid = entry["grid"]
        labels = {cell: list(atoms) for cell, atoms in
                  grid.get("labels", {}).items()}
        return grid_system(rows=int(grid["rows"]), cols=int(grid["cols"]),
                           move_weights={k: parse_rational(v) for k, v in
                                         grid["moveWeights"].items()},
                           labels=labels,
                           initial=entry.get("initial", grid.get("initial", [])))
    states = entry["states"]
    labels = {state: frozenset(atoms)
              for state, atoms in entry.get("labels", {}).items()}
    atoms = set(entry.get("atoms", []))
    for atom_set in labels.values():
        atoms |= atom_set
    transitions = []
    weights = {}
    for item in entry["transitions"]:
        pair = (item["from"], item["to"])
        transitions.append(pair)
        weights[pair] = parse_rational(item["weight"])
    return WeightedTransitionSystem(
        states=tuple(states),
        initial=frozenset(entry["initial"]),
        transitions=tuple(transitions),
        weights=weights,
        atoms=frozenset(atoms),
        labels={state: labels.get(state, frozenset()) for state in states},
    )


@dataclass
class AgentSpec:
    name: str
    system: WeightedTransitionSystem
    formula: Optional[Formula]
    formula_text: Optional[str]
    automaton: TimedBuchiAutomaton


@dataclass
class PlanningProblem:
    agents: tuple
    global_formula: Optional[Formula]
    global_formula_text: Optional[str]
    global_automaton: TimedBuchiAutomaton
    state_budget: int


def load_model(path: Path) -> dict:
    """Agent name -> transition system, from a model or problem file."""
    data = _load_json(path)
    _check_model_file(data)
    out = {}
    for entry in data["agents"]:
        name = entry["name"]
        if not name:
            raise InputError(f"{path}: agent entry without a name")
        if name in out:
            raise InputError(f"{path}: duplicate agent name {name!r}")
        out[name] = load_system(entry)
    if not out:
        raise InputError(f"{path}: no agents defined")
    return out


def load_runs(path: Path) -> dict:
    data = _load_json(path)
    _check(data, _RUNS, "")
    runs = {}
    for name, entry in data["runs"].items():
        runs[name] = TimedRun(
            prefix=tuple((state, parse_rational(stamp))
                         for state, stamp in entry.get("prefix", [])),
            cycle=tuple((state, parse_rational(stamp))
                        for state, stamp in entry.get("cycle", [])),
            period=parse_rational(entry["period"]),
        )
    if not runs:
        raise InputError(f"{path}: no runs defined")
    return runs


def _load_automaton(path: Path, where: str) -> TimedBuchiAutomaton:
    """A hand-written automaton file; an error names ``where`` and the
    field, as in ``global.tba: edges[2].to: missing``."""
    data = _load_json(path)
    try:
        _check(data, _TBA, "")
        return tba_from_dict(data)
    except (InputError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def _load_agent_automaton(entry: dict, system: WeightedTransitionSystem,
                          base: Path, where: str):
    formula = None
    text = entry.get("formula")
    if text is not None:
        formula = parse_formula(text)
        unknown = atoms_of(formula) - system.atoms
        if unknown:
            raise InputError(
                f"agent {entry['name']}: formula atoms {sorted(unknown)} are "
                f"not in the agent's alphabet")
        automaton = translate_mitl(formula, alphabet=system.atoms)
        return formula, text, automaton
    if "tba" in entry:
        automaton = _load_automaton(base / entry["tba"], f"{where}.tba")
        if automaton.atoms != system.atoms:
            raise InputError(
                f"agent {entry['name']}: automaton alphabet "
                f"{sorted(automaton.atoms)} must equal the agent's alphabet "
                f"{sorted(system.atoms)}")
        return None, None, automaton
    raise InputError(f"agent {entry['name']}: needs a formula or a tba file")


def load_problem(path: Path) -> PlanningProblem:
    data = _load_json(path)
    _check(data, {"global?": _TEAM, "options?": {"stateBudget?": int}}, "")
    base = path.parent
    model = load_model(path)
    agents = []
    union_atoms: set[str] = set()
    for i, entry in enumerate(data["agents"]):
        system = model[entry["name"]]
        overlap = union_atoms & system.atoms
        if overlap:
            raise InputError(
                f"agent alphabets must be pairwise disjoint; {sorted(overlap)} "
                f"appears twice")
        union_atoms |= system.atoms
        formula, text, automaton = _load_agent_automaton(
            entry, system, base, f"agents[{i}]")
        agents.append(AgentSpec(name=entry["name"], system=system,
                                formula=formula, formula_text=text,
                                automaton=automaton))
    global_entry = data.get("global", {})
    global_formula = None
    global_text = global_entry.get("formula")
    if global_text is not None:
        global_formula = parse_formula(global_text)
        unknown = atoms_of(global_formula) - union_atoms
        if unknown:
            raise InputError(
                f"team formula atoms {sorted(unknown)} are not in any agent's "
                f"alphabet")
        global_automaton = translate_mitl(global_formula,
                                          alphabet=frozenset(union_atoms))
    elif "tba" in global_entry:
        global_automaton = _load_automaton(base / global_entry["tba"],
                                           "global.tba")
        if global_automaton.atoms != frozenset(union_atoms):
            raise InputError(
                "team automaton alphabet must equal the union of agent "
                "alphabets")
    else:
        raise InputError("a global formula or tba is required")
    options = data.get("options", {})
    return PlanningProblem(
        agents=tuple(agents),
        global_formula=global_formula,
        global_formula_text=global_text,
        global_automaton=global_automaton,
        state_budget=_positive(options.get("stateBudget", DEFAULT_STATE_BUDGET),
                               "options.stateBudget"),
    )


# --- the planning pipeline ---------------------------------------------------

@dataclass
class PlanOutcome:
    status: str  # "success" | "unsatisfiable" | "exploration-limit"
    bundle: Optional[PlanBundle]
    statistics: dict
    notes: tuple = ()


def solve(problem: PlanningProblem) -> PlanOutcome:
    # the products count time in units of 1/factor, which makes every
    # duration and clock constant an int
    automata = ([agent.automaton for agent in problem.agents]
                + [problem.global_automaton])
    factor = denominator_lcm(
        [weight for agent in problem.agents
         for weight in agent.system.weights.values()]
        + [constant for automaton in automata
           for constant in automaton.constants()])
    systems = tuple(agent.system.scaled(factor) for agent in problem.agents)
    *local_automata, global_automaton = (automaton.scaled(factor)
                                         for automaton in automata)

    notes = []
    locals_ = []
    for agent, system, automaton in zip(problem.agents, systems, local_automata):
        local = LocalProduct(system, automaton)
        if not local.has_initial_states:
            notes.append(
                f"agent {agent.name}: no initial state matches the automaton; "
                f"the local specification is unsatisfiable from the start")
        locals_.append(local)

    # an agent whose own specification has an empty language makes the team
    # problem unsatisfiable before any interleaving is explored
    for agent, local in zip(problem.agents, locals_):
        try:
            local_lasso = find_accepting_lasso(local, problem.state_budget)
        except ExplorationLimitError as exc:
            statistics = _collect_statistics(locals_, None, None,
                                             exc.states_explored)
            return PlanOutcome("exploration-limit", None, statistics,
                               tuple(notes))
        if local_lasso is None:
            notes.append(f"agent {agent.name}: local specification is "
                         f"unsatisfiable on its own transition system")
            statistics = _collect_statistics(locals_, None, None, 0)
            return PlanOutcome("unsatisfiable", None, statistics, tuple(notes))

    team = TeamProduct(locals_)
    global_prod = GlobalProduct(team, global_automaton)
    try:
        lasso = find_accepting_lasso(global_prod, problem.state_budget)
    except ExplorationLimitError as exc:
        statistics = _collect_statistics(locals_, team, global_prod,
                                         exc.states_explored)
        return PlanOutcome("exploration-limit", None, statistics, tuple(notes))
    if lasso is None:
        statistics = _collect_statistics(locals_, team, global_prod, 0)
        return PlanOutcome("unsatisfiable", None, statistics, tuple(notes))

    stack = ProductStack(
        agent_names=tuple(agent.name for agent in problem.agents),
        systems=tuple(agent.system for agent in problem.agents),
        local_formulas=tuple(agent.formula for agent in problem.agents),
        local_automata=tuple(agent.automaton for agent in problem.agents),
        global_formula=problem.global_formula,
        global_automaton=problem.global_automaton,
        local_products=tuple(locals_),
        team_product=team,
        global_product=global_prod,
    )
    bundle = project_plan(lasso, stack, rescale=factor)
    statistics = _collect_statistics(locals_, team, global_prod, 0)
    statistics["scalingFactor"] = factor
    return PlanOutcome("success", bundle, statistics, tuple(notes))


def _collect_statistics(locals_, team, global_prod, budget_hit) -> dict:
    stats = {
        "localLayers": [
            {"states": local.explored_states, "edges": local.explored_edges,
             "accepting": local.explored_accepting()}
            for local in locals_
        ],
    }
    if team is not None:
        stats["teamLayer"] = {"states": team.explored_states,
                              "edges": team.explored_edges,
                              "accepting": team.explored_accepting()}
    if global_prod is not None:
        stats["globalLayer"] = {"states": global_prod.explored_states,
                                "edges": global_prod.explored_edges,
                                "accepting": global_prod.explored_accepting()}
    if budget_hit:
        stats["statesAtLimit"] = budget_hit
    return stats


# --- serialization -----------------------------------------------------------

def _lasso_to_json(lasso, payload) -> dict:
    return {
        "prefix": [[payload(p), format_rational(t)] for p, t in lasso.prefix],
        "cycle": [[payload(p), format_rational(t)] for p, t in lasso.cycle],
        "period": format_rational(lasso.period),
    }


def _word_payload(atoms) -> list:
    return sorted(atoms)


def bundle_to_json(bundle: PlanBundle, statistics: dict) -> dict:
    agents = []
    for k, name in enumerate(bundle.agent_names):
        agents.append({
            "name": name,
            "run": _lasso_to_json(bundle.runs[k], str),
            "word": _lasso_to_json(bundle.words[k], _word_payload),
        })
    return {
        "status": "success",
        "agents": agents,
        "collective": {
            "run": _lasso_to_json(bundle.collective_run, list),
            "word": _lasso_to_json(bundle.collective_word, _word_payload),
        },
        "verdicts": [
            {
                "description": v.description,
                "satisfied": v.satisfied,
                "violationPosition": v.violation_position,
                "violationTime": (None if v.violation_time is None
                                  else format_rational(v.violation_time)),
            }
            for v in bundle.verdicts
        ],
        "statistics": statistics,
    }


def trace_csv(names, run: CollectiveRun, word) -> str:
    """One row per collective event; the phase column separates the events
    that repeat (shifted by the period) from the one-off opening."""
    lines = ["time,phase," + ",".join(names) + ",atoms"]
    for phase, events in (("prefix", run.prefix),
                          (f"cycle/{format_rational(run.period)}", run.cycle)):
        for index, (vector, stamp) in enumerate(events):
            offset = (index if phase == "prefix"
                      else len(run.prefix) + index)
            atoms = " ".join(sorted(word.payload_at(offset)))
            lines.append(f"{format_rational(stamp)},{phase},"
                         + ",".join(vector) + f",{atoms}")
    return "\n".join(lines) + "\n"


def timeline_svg(names, run: CollectiveRun, word) -> str:
    """A static strip per agent plus one for the team's atoms."""
    events = list(run.prefix) + list(run.cycle)
    stamps = [t for _, t in events]
    span = float(stamps[-1] + run.period) if stamps else 1.0
    span = max(span, 1.0)
    left, lane_height, width = 110.0, 46.0, 860.0

    def x_of(stamp) -> float:
        return left + float(stamp) / span * (width - left - 30.0)

    rows = list(names) + ["atoms"]
    height = lane_height * (len(rows) + 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="monospace" font-size="11">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for row, label in enumerate(rows):
        y = lane_height * (row + 1)
        parts.append(f'<text x="8" y="{y + 4:.1f}">{label}</text>')
        parts.append(f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{width - 20:.1f}" '
                     f'y2="{y:.1f}" stroke="#999"/>')
    cut = x_of(run.cycle[0][1])
    parts.append(f'<line x1="{cut:.1f}" y1="20" x2="{cut:.1f}" '
                 f'y2="{height - 10:.1f}" stroke="#c33" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{cut + 4:.1f}" y="16" fill="#c33">cycle, period '
                 f'{format_rational(run.period)}</text>')
    for index, (vector, stamp) in enumerate(events):
        x = x_of(stamp)
        for row, state in enumerate(vector):
            y = lane_height * (row + 1)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#225"/>')
            parts.append(f'<text x="{x - 8:.1f}" y="{y - 8:.1f}">{state}</text>')
        y = lane_height * (len(vector) + 1)
        atoms = " ".join(sorted(word.payload_at(index)))
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#252"/>')
        if atoms:
            parts.append(f'<text x="{x - 8:.1f}" y="{y - 8:.1f}">{atoms}</text>')
        parts.append(f'<text x="{x - 6:.1f}" y="{height - 6:.1f}">'
                     f'{format_rational(stamp)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


# --- commands ---------------------------------------------------------------

def command_plan(args) -> int:
    problem = load_problem(Path(args.problem))
    if args.state_budget is not None:
        problem.state_budget = _positive(args.state_budget, "--state-budget")
    outcome = solve(problem)
    for note in outcome.notes:
        print(f"note: {note}", file=sys.stderr)
    out_dir = Path(args.out_dir)
    if outcome.status == "unsatisfiable":
        print("UNSATISFIABLE: no joint plan meets every specification")
        return EXIT_UNSATISFIABLE
    if outcome.status == "exploration-limit":
        print(f"EXPLORATION LIMIT: stopped after "
              f"{outcome.statistics.get('statesAtLimit')} states")
        return EXIT_EXPLORATION_LIMIT
    bundle = outcome.bundle
    _write(out_dir / "plan.json",
           json.dumps(bundle_to_json(bundle, outcome.statistics), indent=2) + "\n")
    names = list(bundle.agent_names)
    _write(out_dir / "trace.csv",
           trace_csv(names, bundle.collective_run, bundle.collective_word))
    _write(out_dir / "timeline.svg",
           timeline_svg(names, bundle.collective_run, bundle.collective_word))
    print("SUCCESS: all specifications hold; artifacts written to "
          f"{out_dir / 'plan.json'}, trace.csv, timeline.svg")
    for verdict in bundle.verdicts:
        print(f"  [ok] {verdict.description}")
    return EXIT_SUCCESS


def _parse_scoped_formulas(items, model, runs):
    scoped = []
    for item in items:
        scope, _, text = item.partition(":")
        scope = scope.strip()
        text = text.strip()
        if not text:
            raise InputError(f"--formula needs the form scope:formula, got {item!r}")
        if scope != "team" and scope not in model:
            raise InputError(f"unknown formula scope {scope!r}")
        if scope != "team" and scope not in runs:
            raise InputError(f"no run given for agent {scope!r}")
        scoped.append((scope, parse_formula(text)))
    return scoped


def _collective_of(model: dict, runs: dict):
    names = sorted(runs)
    systems = [model[name] for name in names]
    for name in names:
        runs[name].validate_for(model[name])
    merged = collective_run([runs[name] for name in names])
    word = collective_word_of(systems, merged)
    return names, merged, word


def command_check(args) -> int:
    model = load_model(Path(args.model))
    runs = load_runs(Path(args.runs))
    unknown = set(runs) - set(model)
    if unknown:
        raise InputError(f"runs given for unknown agents: {sorted(unknown)}")
    scoped = _parse_scoped_formulas(args.formula or [], model, runs)
    names, merged, collective_word = _collective_of(model, runs)
    for scope, formula in scoped:
        if scope == "team":
            word = collective_word
        else:
            word = timed_word_of(model[scope], runs[scope])
        violation = first_violation(word, formula)
        if violation is None:
            print(f"{scope}: {format_formula(formula)} -> SATISFIED")
        else:
            position, stamp = violation
            print(f"{scope}: {format_formula(formula)} -> VIOLATED at position "
                  f"{position} (time {format_rational(stamp)})")
    return EXIT_SUCCESS


def command_simulate(args) -> int:
    model = load_model(Path(args.model))
    runs = load_runs(Path(args.runs))
    unknown = set(runs) - set(model)
    if unknown:
        raise InputError(f"runs given for unknown agents: {sorted(unknown)}")
    names, merged, word = _collective_of(model, runs)
    out_dir = Path(args.out_dir)
    _write(out_dir / "trace.csv", trace_csv(names, merged, word))
    _write(out_dir / "timeline.svg", timeline_svg(names, merged, word))
    print(f"trace written to {out_dir / 'trace.csv'} and timeline.svg")
    return EXIT_SUCCESS


def command_translate(args) -> int:
    formula = parse_formula(args.formula)
    alphabet = None
    if args.alphabet:
        alphabet = frozenset(a.strip() for a in args.alphabet.split(",") if a.strip())
    automaton = translate_mitl(formula, alphabet=alphabet)
    payload = json.dumps(tba_to_dict(automaton), indent=2) + "\n"
    if args.out:
        _write(Path(args.out), payload)
        print(f"automaton written to {args.out}")
    else:
        print(payload, end="")
    return EXIT_SUCCESS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mitlplan",
        description="Timed plan synthesis for agent teams under interval "
                    "temporal deadlines")
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="synthesize a joint timed plan")
    plan.add_argument("problem", help="problem file (JSON)")
    plan.add_argument("--out-dir", default=".", help="artifact directory")
    plan.add_argument("--state-budget", type=int, default=None)
    plan.set_defaults(handler=command_plan)

    check = commands.add_parser("check", help="evaluate formulas on given runs")
    check.add_argument("--model", required=True)
    check.add_argument("--runs", required=True)
    check.add_argument("--formula", action="append", default=[],
                       metavar="SCOPE:FORMULA",
                       help="agent name or 'team', a colon, then the formula")
    check.set_defaults(handler=command_check)

    simulate = commands.add_parser("simulate",
                                   help="merge runs and export the trace")
    simulate.add_argument("--model", required=True)
    simulate.add_argument("--runs", required=True)
    simulate.add_argument("--out-dir", default=".")
    simulate.set_defaults(handler=command_simulate)

    translate = commands.add_parser("translate",
                                    help="compile a formula to an automaton file")
    translate.add_argument("formula")
    translate.add_argument("--alphabet", default=None,
                           help="comma-separated atoms beyond those in the formula")
    translate.add_argument("--out", default=None)
    translate.set_defaults(handler=command_translate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PunctualIntervalError, UnsupportedFragmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_FRAGMENT
    except (InputError, MitlError, ModelValidationError, RunValidationError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
