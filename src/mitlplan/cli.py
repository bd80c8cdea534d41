"""Command-line front end.

Commands:

- ``plan``       synthesize per-agent timed plans from a problem file
- ``check``      evaluate formulas on given runs
- ``translate``  compile a formula to an automaton file
- ``simulate``   merge runs into the collective trace and export it

Exit codes: 0 success, 1 unsatisfiable, 2 exploration budget exhausted,
else the ``exit_code`` of the :class:`~mitlplan.core.InputError` that
stopped the command: 3 for malformed input, 4 for a formula outside the
supported fragment.  Any other exception is a bug and shows its traceback.

Every command's arguments are rows of one table, ``_COMMANDS``.
:func:`main` reads a line from it (:func:`read_arguments`) when the line
is a command's name, its options by their exact names, as ``--opt value``
or ``--opt=value``, and its positionals, none starting with ``-``.  Any
other line (help, an abbreviation, ``--``, an unknown option, a missing
or extra argument) goes to the argparse parser that :func:`build_parser`
builds from the same table, for the invoked command alone or, when the
line names none, for every command; so each help text, usage error and
exit code is argparse's own.  A line the reader takes loads no argparse:
cold, in a fresh interpreter (CPython 3.11, the fastest of 15 to 21
processes), reading it costs about 0.03 ms, where the command's argparse
parser took 2.3 ms to build and parse it, after 2.1 ms of
``import argparse``.

``plan.json`` and the automaton of ``translate`` are written by
:func:`indented_json`, whose bytes are those of
``json.dumps(value, indent=2)``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from math import lcm
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .core import (InputError, denominator_lcm, format_rational, naming,
                   parse_rational)
from .mitl import (Formula, atoms_of, check_atom_names, first_violation,
                   format_formula, parse_formula)
from .search import (ExplorationLimitError, PlanBundle, find_accepting_lasso,
                     live_states, project_plan)
from .tba import (TimedBuchiAutomaton, tba_from_dict, tba_to_dict,
                  translate_mitl)
from .product import GlobalProduct, LocalProduct, TeamProduct
from .wts import (GRID_MOVES, CollectiveRun, TimedRun,
                  WeightedTransitionSystem, collective_run, collective_word_of,
                  grid_cells, grid_system, timed_word_of)

EXIT_SUCCESS = 0
EXIT_UNSATISFIABLE = 1
EXIT_EXPLORATION_LIMIT = 2

DEFAULT_STATE_BUDGET = 5_000_000


# --- the shape of input files -------------------------------------------------
# The loaders read fields without looking, after _check (for a runs file,
# _runs_shaped) has held the file against its schema: a dict is an object
# whose "?" keys are optional (keyed by ``str``: any keys), ``[item]`` a
# list, ``[a, b]`` a pair, and a type or tuple of types a value.

_RATIONAL = (str, int)
_INITIAL = (str, bool)  # a label, true for any letter, or false
_KINDS = {dict: "an object", list: "a list", str: "a string",
          int: "an integer", bool: "true or false",
          _RATIONAL: "an integer or a rational string",
          _INITIAL: "a label, true or false"}
_LABELS = {str: [str]}
_AGENT = {"name": str, "formula?": str, "tba?": str}
_EXPLICIT_AGENT = {**_AGENT, "states": [str], "initial": [str],
                   "atoms?": [str], "labels?": _LABELS,
                   "transitions": [{"from": str, "to": str,
                                    "weight": _RATIONAL}]}
_GRID_AGENT = {**_AGENT, "initial?": [str],
               "grid": {"rows": int, "cols": int,
                        "moveWeights": dict.fromkeys(GRID_MOVES, _RATIONAL),
                        "labels?": _LABELS, "initial?": [str]}}
_TEAM = {"formula?": str, "tba?": str}
_RUNS = {"runs": {str: {"prefix?": [[str, _RATIONAL]],
                        "cycle?": [[str, _RATIONAL]], "period": _RATIONAL}}}
_TBA = {"clocks?": [str], "atoms?": [str],
        "locations": [{"name": str, "invariant?": str,
                       "accepting?": bool, "initial?": _INITIAL}],
        "edges": [{"from": str, "to": str, "label?": str, "guard?": str,
                   "resets?": [str]}]}
# an automaton of several acceptance sets lists those holding a location
_TBA_SETS = {**_TBA, "acceptanceSets": int, "locations": [
    {**_TBA["locations"][0], "accepting?": [int]}]}


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
                                           and schema not in (bool, _INITIAL)):
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
    if "\0" in str(path):  # open() would raise a ValueError
        raise InputError(f"{str(path)!r}: a path cannot hold a NUL byte")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=partial(_json_int, path))
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc


def _json_int(path: Path, literal: str) -> int:
    """A JSON integer literal of ``path``; one with more digits than
    ``int`` reads (``sys.get_int_max_str_digits``) is refused, where
    ``int`` would raise a ``ValueError``."""
    limit = sys.get_int_max_str_digits()
    digits = len(literal) - literal.startswith("-")
    if limit and digits > limit:
        raise InputError(f"{path}: an integer of {digits} digits is longer "
                         f"than the {limit} digits allowed")
    return int(literal)


def _rational(value, where: str):
    with naming(where):
        return parse_rational(value)


def _duration(value, where: str):
    """A positive rational of a model file."""
    duration = _rational(value, where)
    if duration <= 0:
        raise InputError(f"{where}: must be positive, got {value}")
    return duration


def _declared(state: str, states, where: str) -> str:
    if state not in states:
        raise InputError(f"{where}: {state!r} is not a declared state")
    return state


def _initial(states: list, known, where: str) -> list:
    """The start states of an agent: at least one, each declared."""
    if not states:
        raise InputError(f"{where}: at least one initial state is required")
    for i, state in enumerate(states):
        _declared(state, known, f"{where}[{i}]")
    return states


def load_system(entry: dict, where: str) -> WeightedTransitionSystem:
    """The system of one agent entry; ``where`` names the entry in errors.
    Every atom it lists must be one that a formula can name, and a
    transition may be listed again only with the same weight."""
    if "grid" in entry:
        grid = entry["grid"]
        rows = _positive(grid["rows"], f"{where}.grid.rows")
        cols = _positive(grid["cols"], f"{where}.grid.cols")
        cells = set(grid_cells(rows, cols))
        labels = grid.get("labels", {})
        for cell in labels:
            _declared(cell, cells, f"{where}.grid.labels.{cell}")
        check_atom_names({f"{where}.grid.labels.{cell}": atoms
                          for cell, atoms in labels.items()})
        if "initial" in entry and "initial" in grid:
            raise InputError(f"{where}.grid.initial: the start cells are "
                             f"given in {where}.initial already")
        for move in grid["moveWeights"]:
            if move not in GRID_MOVES:
                raise InputError(f"{where}.grid.moveWeights.{move}: unknown "
                                 f"direction, expected one of "
                                 f"{', '.join(GRID_MOVES)}")
        field = "grid.initial" if "initial" in grid else "initial"
        return grid_system(
            rows=rows, cols=cols,
            move_weights={k: _duration(v, f"{where}.grid.moveWeights.{k}")
                          for k, v in grid["moveWeights"].items()},
            labels=labels,
            initial=_initial(grid.get("initial", entry.get("initial", [])),
                             cells, f"{where}.{field}"))
    states = entry["states"]
    known = set(states)
    _initial(entry["initial"], known, f"{where}.initial")
    labels = {_declared(state, known, f"{where}.labels.{state}"):
              frozenset(atoms)
              for state, atoms in entry.get("labels", {}).items()}
    check_atom_names({f"{where}.atoms": entry.get("atoms", []),
                      **{f"{where}.labels.{state}": atoms
                         for state, atoms in entry.get("labels", {}).items()}})
    atoms = set(entry.get("atoms", []))
    for atom_set in labels.values():
        atoms |= atom_set
    weights = {}
    for i, item in enumerate(entry["transitions"]):
        here = f"{where}.transitions[{i}]"
        pair = (_declared(item["from"], known, f"{here}.from"),
                _declared(item["to"], known, f"{here}.to"))
        weight = _duration(item["weight"], f"{here}.weight")
        if weights.setdefault(pair, weight) != weight:
            raise InputError(
                f"{here}: {pair[0]} -> {pair[1]} is listed "
                f"before with weight {format_rational(weights[pair])}")
    return WeightedTransitionSystem(
        states=tuple(states),
        initial=frozenset(entry["initial"]),
        weights=weights,
        atoms=frozenset(atoms),
        labels={state: labels.get(state, frozenset()) for state in states},
    )


@dataclass
class AgentSpec:
    name: str
    system: WeightedTransitionSystem
    formula: Optional[Formula]
    automaton: TimedBuchiAutomaton


@dataclass
class PlanningProblem:
    agents: tuple
    global_formula: Optional[Formula]
    global_automaton: TimedBuchiAutomaton
    state_budget: int


def load_model(path: Path) -> dict:
    """Agent name -> transition system, from a model or problem file."""
    return _systems_of(_load_json(path))


def _systems_of(data) -> dict:
    """The agents of a model or problem file by name.  The names are
    distinct and none is ``team``, which scopes the team's formulas; the
    alphabets are pairwise disjoint."""
    _check_model_file(data)
    out = {}
    owner: dict[str, str] = {}  # atom -> the agent whose alphabet holds it
    for i, entry in enumerate(data["agents"]):
        name = entry["name"]
        if not name:
            raise InputError(f"agents[{i}].name: empty agent name")
        if name == "team":
            raise InputError(f"agents[{i}].name: 'team' is reserved for the "
                             f"team's scope")
        if name in out:
            raise InputError(f"agents[{i}].name: duplicate agent name "
                             f"{name!r}")
        system = out[name] = load_system(entry, f"agents[{i}]")
        overlap = system.atoms & owner.keys()
        if overlap:
            atom = min(overlap)
            raise InputError(f"agents[{i}]: atom {atom!r} also belongs to "
                             f"agent {owner[atom]!r}")
        owner.update(dict.fromkeys(system.atoms, name))
    if not out:
        raise InputError("agents: no agents defined")
    return out


# no limit on the digits that int() reads from text can be set below this
_PLAIN_LENGTH = sys.int_info.str_digits_check_threshold


def _plain_rational(value):
    """``value`` as a (numerator, denominator) pair when it is a JSON
    integer, or text of at most ``_PLAIN_LENGTH`` ASCII digits with an
    optional ``/`` and a nonzero denominator; ``None`` for anything else,
    which ``parse_rational`` then reads or refuses."""
    if type(value) is int:  # a JSON true is no number
        return value, 1
    if type(value) is not str or not value.isascii() or \
            len(value) > _PLAIN_LENGTH:
        return None
    if value.isdigit():
        return int(value), 1
    numerator, _, denominator = value.partition("/")
    if numerator.isdigit() and denominator.isdigit() and \
            int(denominator):
        return int(numerator), int(denominator)
    return None


def _runs_shaped(data) -> bool:
    """Whether ``data`` holds to ``_RUNS``, tested without ``_check``."""
    runs = data.get("runs") if type(data) is dict else None
    # by type(), as a JSON true is no stamp
    return type(runs) is dict and all(
        type(entry) is dict and type(entry.get("period")) in _RATIONAL
        and all(type(events) is list and all(
            type(event) is list and len(event) == 2
            and type(event[0]) is str and type(event[1]) in _RATIONAL
            for event in events)
            for events in (entry.get("prefix", []), entry.get("cycle", [])))
        for entry in runs.values())


def load_runs(path: Path) -> dict:
    """The runs of a runs file by agent name, built from ticks.  A file
    that does not hold to the schema is worded by ``_check``; each stamp is
    read by :func:`_plain_rational`, or else by ``parse_rational`` under
    its field name."""
    data = _load_json(path)
    if not _runs_shaped(data):
        _check(data, _RUNS, "")
    read = {}
    for name, entry in data["runs"].items():
        where = f"runs.{name}"
        parts = {part: entry.get(part, []) for part in ("prefix", "cycle")}
        stamps = [_plain_rational(stamp) or _rational(
                      stamp, f"{where}.{part}[{i}][1]").as_integer_ratio()
                  for part, events in parts.items()
                  for i, (_, stamp) in enumerate(events)]
        stamps.append(_plain_rational(entry["period"]) or _rational(
            entry["period"], f"{where}.period").as_integer_ratio())
        read[name] = ([state for events in parts.values()
                       for state, _ in events], len(parts["prefix"]), stamps)
    runs = {}
    for name, (states, loop, stamps) in read.items():
        unit = lcm(*(denominator for _, denominator in stamps))
        *ticks, period = [numerator * (unit // denominator)
                          for numerator, denominator in stamps]
        with naming(f"runs.{name}"):
            runs[name] = TimedRun.from_ticks(states, loop, ticks, period,
                                             unit)
    if not runs:
        raise InputError(f"{path}: no runs defined")
    return runs


def _load_automaton(path: Path, where: str) -> TimedBuchiAutomaton:
    """A hand-written automaton file; an error names ``where`` and the
    field, as in ``global.tba: edges[2].to: missing``."""
    data = _load_json(path)
    with naming(where):
        _check(data, _TBA_SETS if isinstance(data, dict)
               and "acceptanceSets" in data else _TBA, "")
        return tba_from_dict(data)


def _formula_over(text: str, atoms: frozenset, where: str) -> Formula:
    """The formula ``text``, whose atoms must be in the alphabet ``atoms``;
    an error names ``where``."""
    with naming(where):
        formula = parse_formula(text)
        unknown = atoms_of(formula) - atoms
        if unknown:
            raise InputError(f"atoms {sorted(unknown)} are not in the "
                             f"alphabet {sorted(atoms)}")
    return formula


def _load_specification(entry: dict, atoms: frozenset, base: Path,
                        where: str):
    """The formula, or ``None``, and the automaton of an agent or of the
    team: the entry's formula, over ``atoms`` and translated, or its
    automaton file, whose alphabet must be ``atoms``, but not both."""
    if "formula" in entry and "tba" in entry:
        raise InputError(f"{where}: give a formula or a tba file, not both")
    if "formula" in entry:
        formula = _formula_over(entry["formula"], atoms, f"{where}.formula")
        return formula, translate_mitl(formula, alphabet=atoms)
    if "tba" in entry:
        automaton = _load_automaton(base / entry["tba"], f"{where}.tba")
        if automaton.atoms != atoms:
            raise InputError(f"{where}.tba: the automaton's atoms "
                             f"{sorted(automaton.atoms)} differ from the "
                             f"alphabet {sorted(atoms)}")
        return None, automaton
    raise InputError(f"{where}: needs a formula or a tba file")


def load_problem(path: Path) -> PlanningProblem:
    data = _load_json(path)
    _check(data, {"global?": _TEAM, "options?": {"stateBudget?": int}}, "")
    base = path.parent
    model = _systems_of(data)
    agents = []
    for i, entry in enumerate(data["agents"]):
        system = model[entry["name"]]
        formula, automaton = _load_specification(
            entry, system.atoms, base, f"agents[{i}]")
        agents.append(AgentSpec(name=entry["name"], system=system,
                                formula=formula, automaton=automaton))
    global_formula, global_automaton = _load_specification(
        data.get("global", {}),
        frozenset().union(*(system.atoms for system in model.values())),
        base, "global")
    options = data.get("options", {})
    return PlanningProblem(
        agents=tuple(agents),
        global_formula=global_formula,
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
        if not local.initial_states():
            notes.append(
                f"agent {agent.name}: no initial state matches the automaton; "
                f"the local specification is unsatisfiable from the start")
        locals_.append(local)

    team = global_prod = None
    try:
        # the first stage: each local product trimmed to its live states
        live = [live_states(local, problem.state_budget) for local in locals_]
        team = TeamProduct(locals_, live)
        # an agent without live states has an empty language of its own,
        # and leaves the team no initial state; one without initial states
        # has its note already
        for agent, local, states in zip(problem.agents, locals_, live):
            if not states and local.initial_states():
                notes.append(f"agent {agent.name}: local specification is "
                             f"unsatisfiable on its own transition system")
        global_prod = GlobalProduct(team, global_automaton)
        lasso = find_accepting_lasso(global_prod, problem.state_budget)
    except ExplorationLimitError as exc:
        statistics = _collect_statistics(locals_, team, global_prod,
                                         exc.states_explored)
        return PlanOutcome("exploration-limit", None, statistics, tuple(notes))
    if lasso is None:
        statistics = _collect_statistics(locals_, team, global_prod, 0)
        if (not global_prod.initial_states()
                and statistics["globalLayer"]["pruned"]):
            notes.append("team: no initial state can meet the team "
                         "specification's deadline")
        return PlanOutcome("unsatisfiable", None, statistics, tuple(notes))

    bundle = project_plan(lasso, problem, factor)
    statistics = _collect_statistics(locals_, team, global_prod, 0)
    statistics["scalingFactor"] = factor
    return PlanOutcome("success", bundle, statistics, tuple(notes))


def _collect_statistics(locals_, team, global_prod, budget_hit) -> dict:
    stats = {"localLayers": [local.statistics() for local in locals_]}
    if team is not None:
        for entry, live in zip(stats["localLayers"], team.live):
            entry["live"] = len(live)
        stats["teamLayer"] = team.statistics()
        stats["globalLayer"] = global_prod.statistics()
    if budget_hit:
        stats["statesAtLimit"] = budget_hit
    return stats


# --- serialization -----------------------------------------------------------

def indented_json(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the dicts with
    string keys, lists, strings, bools, ints and ``None`` that plans and
    automata are written as; any other type raises ``TypeError``.  With
    ``indent``, ``json`` encodes in pure Python through nested generators;
    this writer appends each piece to one list, and escapes each string
    with ``json``'s C function."""
    pieces = []
    _append_json(value, "\n", pieces.append)
    return "".join(pieces)


def _append_json(value, newline: str, out) -> None:
    """Appends ``value`` through ``out``, each nested line started by
    ``newline``: a line break and the indentation of ``value``."""
    kind = type(value)
    if kind is str:
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif kind is int:
        out(repr(value))
    elif kind is list:
        if not value:
            out("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out(separator)
            _append_json(item, inner, out)
            separator = "," + inner
        out(newline + "]")
    elif kind is dict:
        if not value:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out(separator)
            out(encode_basestring_ascii(key))
            out(": ")
            _append_json(item, inner, out)
            separator = "," + inner
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        f"serializable")


def _lasso_to_json(lasso, payload) -> dict:
    return {
        "prefix": [[payload(p), format_rational(t)] for p, t in lasso.prefix],
        "cycle": [[payload(p), format_rational(t)] for p, t in lasso.cycle],
        "period": format_rational(lasso.period),
    }


def bundle_to_json(bundle: PlanBundle, statistics: dict) -> dict:
    agents = []
    for k, name in enumerate(bundle.agent_names):
        agents.append({
            "name": name,
            "run": _lasso_to_json(bundle.runs[k], str),
            "word": _lasso_to_json(bundle.words[k], sorted),
        })
    return {
        "status": "success",
        "agents": agents,
        "collective": {
            "run": _lasso_to_json(bundle.collective_run, list),
            "word": _lasso_to_json(bundle.collective_word, sorted),
        },
        # a plan is written only when it passed every check: a failed one
        # raises ProjectionError first, so no check has a violation to give
        "verdicts": [
            {
                "description": description,
                "satisfied": True,
                "violationPosition": None,
                "violationTime": None,
            }
            for description in bundle.verdicts
        ],
        "statistics": statistics,
    }


def trace_csv(names, run: CollectiveRun, word) -> str:
    """One row per collective event; the phase column separates the events
    that repeat (shifted by the period) from the one-off opening."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["time", "phase", *names, "atoms"])
    for phase, events, start in (
            ("prefix", run.prefix, 0),
            (f"cycle/{format_rational(run.period)}", run.cycle,
             run.prefix_length)):
        for index, (vector, stamp) in enumerate(events):
            offset = start + index
            atoms = " ".join(sorted(word.payload_at(offset)))
            rows.writerow([format_rational(stamp), phase, *vector, atoms])
    return out.getvalue()


def _xml_text(text: str) -> str:
    """``text`` with the characters that XML reserves in text escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        parts.append(f'<text x="8" y="{y + 4:.1f}">'
                     f'{_xml_text(label)}</text>')
        parts.append(f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{width - 20:.1f}" '
                     f'y2="{y:.1f}" stroke="#999"/>')
    cut = x_of(stamps[run.prefix_length])
    parts.append(f'<line x1="{cut:.1f}" y1="20" x2="{cut:.1f}" '
                 f'y2="{height - 10:.1f}" stroke="#c33" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{cut + 4:.1f}" y="16" fill="#c33">cycle, period '
                 f'{format_rational(run.period)}</text>')
    for index, (vector, stamp) in enumerate(events):
        x = x_of(stamp)
        for row, state in enumerate(vector):
            y = lane_height * (row + 1)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#225"/>')
            parts.append(f'<text x="{x - 8:.1f}" y="{y - 8:.1f}">'
                         f'{_xml_text(state)}</text>')
        y = lane_height * (len(vector) + 1)
        atoms = " ".join(sorted(word.payload_at(index)))
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#252"/>')
        if atoms:
            parts.append(f'<text x="{x - 8:.1f}" y="{y - 8:.1f}">'
                         f'{_xml_text(atoms)}</text>')
        parts.append(f'<text x="{x - 6:.1f}" y="{height - 6:.1f}">'
                     f'{format_rational(stamp)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(path: Path, content: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc}") from exc


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
           indented_json(bundle_to_json(bundle, outcome.statistics)) + "\n")
    names = list(bundle.agent_names)
    _write(out_dir / "trace.csv",
           trace_csv(names, bundle.collective_run, bundle.collective_word))
    _write(out_dir / "timeline.svg",
           timeline_svg(names, bundle.collective_run, bundle.collective_word))
    print("SUCCESS: all specifications hold; artifacts written to "
          f"{out_dir / 'plan.json'}, trace.csv, timeline.svg")
    for description in bundle.verdicts:
        print(f"  [ok] {description}")
    return EXIT_SUCCESS


def _split_scope(item: str, model) -> tuple:
    """The scope and the formula text of a ``--formula`` option: the
    scope is the longest text before a ``:`` that is ``team`` or a model
    agent, as an agent's name may hold a colon; when none is, the text
    before the last ``:``, as the formula language has no ``:``."""
    cuts = [i for i, char in enumerate(item) if char == ":"]
    scopes = {"team", *model}
    known = [cut for cut in cuts if item[:cut].strip() in scopes]
    cut = (known or cuts or [len(item)])[-1]
    return item[:cut].strip(), item[cut + 1:].strip()


def _parse_scoped_formulas(items, model, runs):
    """The (scope, formula) pairs of ``--formula`` options.  A formula's
    atoms must be in its agent's alphabet, or for the team in the union of
    the alphabets of the agents with runs, as ``plan`` requires."""
    team_atoms = frozenset().union(*(model[name].atoms for name in runs))
    scoped = []
    for item in items:
        scope, text = _split_scope(item, model)
        if not text:
            raise InputError(f"--formula needs the form scope:formula, got {item!r}")
        if scope != "team" and scope not in model:
            raise InputError(f"--formula {item}: unknown formula scope "
                             f"{scope!r}")
        if scope != "team" and scope not in runs:
            raise InputError(f"--formula {item}: no run given for agent "
                             f"{scope!r}")
        atoms = team_atoms if scope == "team" else model[scope].atoms
        scoped.append((scope, _formula_over(text, atoms,
                                            f"--formula {scope}: {text}")))
    return scoped


def _model_and_runs(args):
    """The model and the runs of ``check`` and ``simulate``."""
    model = load_model(Path(args.model))
    runs = load_runs(Path(args.runs))
    for name in runs:
        if name not in model:
            raise InputError(f"runs.{name}: the model has no such agent")
    return model, runs


def _collective_of(model: dict, runs: dict):
    """The agents' names in order, each agent's word, the collective run
    and the team's word; building an agent's word validates its run."""
    names = sorted(runs)
    words = {}
    for name in names:
        with naming(f"runs.{name}"):
            words[name] = timed_word_of(model[name], runs[name])
    merged = collective_run([runs[name] for name in names])
    word = collective_word_of([model[name] for name in names], merged)
    return names, words, merged, word


def command_check(args) -> int:
    model, runs = _model_and_runs(args)
    scoped = _parse_scoped_formulas(args.formula or [], model, runs)
    _, words, _, collective_word = _collective_of(model, runs)
    for scope, formula in scoped:
        word = collective_word if scope == "team" else words[scope]
        violation = first_violation(word, formula)
        if violation is None:
            print(f"{scope}: {format_formula(formula)} -> SATISFIED")
        else:
            position, stamp = violation
            print(f"{scope}: {format_formula(formula)} -> VIOLATED at position "
                  f"{position} (time {format_rational(stamp)})")
    return EXIT_SUCCESS


def command_simulate(args) -> int:
    model, runs = _model_and_runs(args)
    names, _, merged, word = _collective_of(model, runs)
    out_dir = Path(args.out_dir)
    _write(out_dir / "trace.csv", trace_csv(names, merged, word))
    _write(out_dir / "timeline.svg", timeline_svg(names, merged, word))
    print(f"trace written to {out_dir / 'trace.csv'} and timeline.svg")
    return EXIT_SUCCESS


def command_translate(args) -> int:
    formula = parse_formula(args.formula)
    listed = [atom for atom in map(str.strip, (args.alphabet or "").split(","))
              if atom]
    check_atom_names({"--alphabet": listed})
    automaton = translate_mitl(formula,
                               alphabet=atoms_of(formula) | set(listed))
    payload = indented_json(tba_to_dict(automaton)) + "\n"
    if args.out:
        _write(Path(args.out), payload)
        print(f"automaton written to {args.out}")
    else:
        print(payload, end="")
    return EXIT_SUCCESS


# --- the command line -------------------------------------------------------
# Each command's help, its handler and its arguments in the order the
# parser adds them: a positional by its name, an option by its flag, each
# with the keywords of ``add_argument``.  An argument's attribute is its
# name without the leading dashes, each other "-" read as "_".

_COMMANDS = {
    "plan": ("synthesize a joint timed plan", command_plan, {
        "problem": {"help": "problem file (JSON)"},
        "--out-dir": {"default": ".", "help": "artifact directory"},
        "--state-budget": {"type": int},
    }),
    "check": ("evaluate formulas on given runs", command_check, {
        "--model": {"required": True},
        "--runs": {"required": True},
        "--formula": {"action": "append", "metavar": "SCOPE:FORMULA",
                      "help": "agent name or 'team', a colon, then the "
                              "formula"},
    }),
    "simulate": ("merge runs and export the trace", command_simulate, {
        "--model": {"required": True},
        "--runs": {"required": True},
        "--out-dir": {"default": "."},
    }),
    "translate": ("compile a formula to an automaton file",
                  command_translate, {
        "formula": {},
        "--alphabet": {"help": "comma-separated atoms beyond those in "
                                "the formula"},
        "--out": {},
    }),
}


def read_arguments(argv) -> Optional[SimpleNamespace]:
    """The attributes that ``build_parser().parse_args(argv)`` sets,
    ``handler`` included, when ``argv`` is a command's name, then its
    options by their exact flags, as ``--opt value`` or ``--opt=value``,
    and its positionals, no value or positional starting with ``-``.
    ``None`` for any other line (help, an abbreviation, ``--``, an unknown
    option, a missing or extra argument), which argparse reads or refuses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    names = []  # of the positionals
    for name, spec in arguments.items():
        if name.startswith("-"):
            values[name[2:].replace("-", "_")] = spec.get("default")
        else:
            names.append(name)
    positionals, given = [], set()
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        flag, equals, value = word.partition("=")
        spec = arguments.get(flag)
        if spec is None:
            return None
        if not equals:
            value = next(words, "-")  # none left: a missing value
        if value.startswith("-"):
            return None
        if spec.get("type") is int:
            # any other text argparse reads with int(), or refuses
            if not (value.isascii() and value.isdigit()
                    and len(value) <= _PLAIN_LENGTH):
                return None
            value = int(value)
        dest = flag[2:].replace("-", "_")
        if spec.get("action") == "append":
            value = (values[dest] or []) + [value]
        values[dest] = value
        given.add(flag)
    if len(positionals) != len(names) or any(
            spec.get("required") and name not in given
            for name, spec in arguments.items()):
        return None
    values.update(zip(names, positionals))
    return SimpleNamespace(**values)


def build_parser(command: Optional[str] = None):
    """The argparse parser of every command, or of ``command`` alone, from
    ``_COMMANDS``.  A subparser's usage, help and errors do not depend on
    its siblings, so a command's arguments parse and fail alike in both."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Reports a usage error as an input error; the subcommands'
        parsers are of this class too."""

        def error(self, message):
            raise InputError(f"{self.prog}: {message}")

    parser = _ArgumentParser(
        prog="mitlplan",
        description="Timed plan synthesis for agent teams under interval "
                    "temporal deadlines")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, arguments) in _COMMANDS.items():
        if command in (None, name):
            subparser = commands.add_parser(name, help=summary)
            for flag, spec in arguments.items():
                subparser.add_argument(flag, **spec)
            subparser.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a line of the plain forms is read from _COMMANDS; any other is read
    # or refused by argparse, built for the invoked command alone or,
    # without one (no command, --help, an unknown name), for every command
    try:
        args = read_arguments(argv)
        if args is None:
            command = argv[0] if argv and argv[0] in _COMMANDS else None
            args = build_parser(command).parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
