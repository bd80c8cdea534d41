import ast
import csv
import json
import random
import re
import shlex
import sys
import xml.etree.ElementTree as ElementTree
from fractions import Fraction as Q
from pathlib import Path

import pytest

from mitlplan.cli import build_parser, indented_json, main, read_arguments
from mitlplan.core import InputError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1))
    return str(path)


class TestTranslateCommand:
    def test_deadline_formula_to_file(self, tmp_path, capsys):
        out = tmp_path / "deadline.json"
        code = main(["translate", "F[<=6] recharge1", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["clocks"] == ["x"]
        assert any(entry["accepting"] for entry in data["locations"])
        # round-trips through the loader
        from mitlplan.tba import tba_from_dict, accepts_lasso
        from mitlplan.core import LassoTimedWord
        automaton = tba_from_dict(data)
        word = LassoTimedWord(
            prefix=((frozenset(), Q(0)), (frozenset({"recharge1"}), Q(6))),
            cycle=((frozenset(), Q(7)),), period=Q(1))
        assert accepts_lasso(automaton, word)

    @pytest.mark.parametrize("formula, sizes", [
        ("F[<=5] !a & G[<=9] b", (4, 12)),
        ("G F[<=3] c & G(d -> X G[<=4] !d) & (e U[<=6] !f)", (32, 192)),
    ])
    def test_conjunctions_load_back_edge_for_edge(self, tmp_path, formula,
                                                  sizes):
        # the shapes of the translate benchmark, over six atoms
        from mitlplan.mitl import parse_formula
        from mitlplan.tba import tba_from_dict, translate_mitl
        out = tmp_path / "conjunction.json"
        assert main(["translate", formula, "--alphabet", "a,b,c,d,e,f",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        automaton = tba_from_dict(data)
        assert (len(automaton.locations), len(automaton.edges)) == (
            len(data["locations"]), len(data["edges"])) == sizes
        assert automaton.edges == translate_mitl(
            parse_formula(formula), alphabet=set("abcdef")).edges

    def test_alphabet_adds_to_the_formula_atoms(self, tmp_path):
        written = []
        for listed in ("b", "a,b", ", b,,"):  # an empty entry is skipped
            out = tmp_path / f"{len(written)}.json"
            assert main(["translate", "F a", "--alphabet", listed,
                         "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]
        assert json.loads(written[0])["atoms"] == ["a", "b"]

    @pytest.mark.parametrize("listed, entry", [
        ("p q,,&", "p q"), ("q,&", "&"), ("true", "true"), ("q, G ", "G"),
        ("(q)", "(q)"), ("7", "7"), ("!q", "!q"),
    ])
    def test_an_alphabet_entry_that_names_no_atom_exits_3(self, capsys,
                                                          listed, entry):
        # an entry names an atom when it reads as the formula of that atom
        assert main(["translate", "F p", "--alphabet", listed]) == 3
        assert capsys.readouterr().err == (
            f"error: --alphabet: {entry!r} is not an atom name\n")

    def test_propositional_formula_is_clock_free(self, capsys):
        assert main(["translate", "p & q"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clocks"] == []

    def test_false_translates_to_an_automaton_that_accepts_nothing(
            self, capsys):
        assert main(["translate", "false"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [location["accepting"] for location in data["locations"]] == [
            False]

    def test_punctual_interval_is_rejected_as_unsupported(self, capsys):
        assert main(["translate", "F[2,2] p"]) == 4

    def test_fragment_violation_exits_4(self, capsys):
        assert main(["translate", "F[0,3] F[0,3] p"]) == 4
        err = capsys.readouterr().err
        assert "hand-written automaton" in err


# the formulas of the fixtures and one of each translated shape
TRANSLATED = {
    "recurrence_green": "G F[<=10] green",
    "eventually_red": "F red",
    "eventually_green_and_red": "F (green & red)",
    "deadline_recharge1": "F[<=6] recharge1",
    "deadline_recharge2": "F[<=12] recharge2",
    "deadline_meet": "F[<=30] ((meet1A & meet2A) | (meet1B & meet2B))",
    "always_window": "G[2,5] p",
    "always": "G p",
    "response": "G(p -> X G[<=3] !p)",
    "until_window": "p U[1,4] q",
    "next_window": "X[1,2] p",
    # the two shapes of the translate benchmark, as drawn for its seed 7
    "conjunction_two": "F[<=2] a & G[<=6] b",
    "conjunction_three": "G F[<=12] !f & G(!c -> X G[<=9] !!c) & "
                         "(b U[<=11] !e)",
}


@pytest.mark.parametrize("name", sorted(TRANSLATED))
def test_translate_output_is_pinned(name, capsys):
    assert main(["translate", TRANSLATED[name]]) == 0
    expected = FIXTURES / "expected" / "translate" / f"{name}.json"
    assert capsys.readouterr().out.encode() == expected.read_bytes()


# characters that json escapes, or writes as \\u escapes (non-ASCII, and
# an astral one as a surrogate pair), with a few it writes as they are
JSON_CHARACTERS = ('"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00",
                   "\x1f", "\x7f", "\u00e9", "\u20ac", "\u2028", "\ud800",
                   "\U0001f600", "\U0010ffff", "a", "Z", "0", " ", ":", ",")


def random_text(rng: random.Random) -> str:
    return "".join(rng.choices(JSON_CHARACTERS, k=rng.randrange(6)))


def random_json(rng: random.Random, depth: int):
    """A value of the types that plans and automata are written as,
    nested at most ``depth`` deep."""
    kind = rng.choice(["str", "int", "bool", "none", "list", "dict"]
                      if depth else ["str", "int", "bool", "none"])
    if kind == "str":
        return random_text(rng)
    if kind == "int":
        return rng.choice([0, -1, rng.randrange(-1000, 1000), -2 ** 63,
                           2 ** 64, rng.randrange(-2 ** 80, 2 ** 80)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "list":
        return [random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {random_text(rng): random_json(rng, depth - 1)
            for _ in range(rng.randrange(4))}


class TestIndentedJson:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_json_dumps_on_random_values(self, seed):
        rng = random.Random(seed)
        value = [random_json(rng, 4) for _ in range(3)]
        assert indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}}, [[]], [{}], {"a": [], "b": {"c": []}},
        "", "".join(JSON_CHARACTERS), True, False, None, 0, -7,
        -2 ** 100, 2 ** 64 + 1, [True, None, -1, "x"],
    ])
    def test_equals_json_dumps(self, value):
        assert indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        1.5, (1, 2), {"a"}, frozenset(), [0.0], {"a": (1,)}, {1: "one"},
        b"bytes",
    ])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            indented_json(value)


class TestCheckCommand:
    def test_response_formula_verdicts(self, capsys):
        code = main([
            "check",
            "--model", fixture("two_agent_chain_model.json"),
            "--runs", fixture("two_agent_chain_runs.json"),
            "--formula", "r2: G(red -> X G[<=5] !red)",
            "--formula", "r2: G(red -> X G[<=2] !red)",
            "--formula", "team: G(red -> X G[<=2] !red)",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("VIOLATED at position 2 (time 5/2)")
        assert out[1].endswith("SATISFIED")
        assert out[2].endswith("VIOLATED at position 3 (time 5/2)")

    def test_empty_formula_list(self, capsys):
        code = main([
            "check",
            "--model", fixture("two_agent_chain_model.json"),
            "--runs", fixture("two_agent_chain_runs.json"),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_invalid_run_names_the_step(self, tmp_path, capsys):
        runs = write_json(tmp_path / "bad_runs.json", {
            "runs": {"r1": {"prefix": [], "period": "4",
                            "cycle": [["p1", "0"], ["p3", "2"]]}}})
        code = main([
            "check",
            "--model", fixture("two_agent_chain_model.json"),
            "--runs", runs,
            "--formula", "r1: true",
        ])
        assert code == 3
        assert "p1 -> p3" in capsys.readouterr().err

    def test_violation_at_a_fractional_time(self, tmp_path, capsys):
        # stamps in thirds, bounds in halves: the evaluator counts in sixths
        # and prints the stamp of the input word
        model = write_json(tmp_path / "model.json", {"agents": [{
            "name": "r", "states": ["a", "b"], "initial": ["a"],
            "labels": {"b": ["hot"]},
            "transitions": [{"from": "a", "to": "b", "weight": "7/3"},
                            {"from": "b", "to": "a", "weight": "2/3"}]}]})
        runs = write_json(tmp_path / "runs.json", {"runs": {"r": {
            "cycle": [["a", "0"], ["b", "7/3"]], "period": "3"}}})
        code = main(["check", "--model", model, "--runs", runs,
                     "--formula", "r: G[<=5/2] !hot",
                     "--formula", "r: G[0,7/3) !hot",
                     "--formula", "r: F[1/2,7/3] hot"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "r: G[0,5/2] !hot -> VIOLATED at position 1 (time 7/3)",
            "r: G[0,7/3) !hot -> SATISFIED",
            "r: F[1/2,7/3] hot -> SATISFIED",
        ]

    def test_a_clock_comparison_is_no_formula(self, capsys):
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", fixture("two_agent_chain_runs.json"),
                     "--formula", "r1: F[<=3] x <= 2"]) == 3
        assert "unexpected '<='" in capsys.readouterr().err

    def test_a_formula_that_does_not_parse_is_named(self, capsys):
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", fixture("two_agent_chain_runs.json"),
                     "--formula", "r1: true",
                     "--formula", "r1: F[<=3] x <= 2"]) == 3
        assert capsys.readouterr().err == (
            "error: --formula r1: F[<=3] x <= 2: 1:9: unexpected '<='\n")

    @pytest.mark.parametrize("formula, message", [
        ("r1: F red",
         "--formula r1: F red: atoms ['red'] are not in the alphabet "
         "['green']"),
        ("team: F zzz",
         "--formula team: F zzz: atoms ['zzz'] are not in the alphabet "
         "['green', 'red']"),
    ])
    def test_atoms_outside_the_scope_exit_3_as_in_plan(self, capsys, formula,
                                                       message):
        # red is r2's atom; the team's alphabet is that of the agents
        # with runs
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", fixture("two_agent_chain_runs.json"),
                     "--formula", "team: F (red & green)",
                     "--formula", formula]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("formula, message", [
        ("F green", "--formula needs the form scope:formula, got 'F green'"),
        ("r2: F red", "--formula r2: F red: no run given for agent 'r2'"),
    ])
    def test_a_formula_without_its_scope_or_run_exits_3(self, tmp_path,
                                                        capsys, formula,
                                                        message):
        runs = json.loads(Path(fixture("two_agent_chain_runs.json")).read_text())
        del runs["runs"]["r2"]
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", write_json(tmp_path / "runs.json", runs),
                     "--formula", formula]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_unknown_scope(self, capsys):
        code = main([
            "check",
            "--model", fixture("two_agent_chain_model.json"),
            "--runs", fixture("two_agent_chain_runs.json"),
            "--formula", "nobody: true",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: --formula nobody: true: unknown formula scope 'nobody'\n")

    @pytest.fixture
    def colon_named(self, tmp_path):
        """The corridor's model and runs with r1 named ``r`` and r2
        ``r:2``: the scope of ``r:2: ...`` is the longer name."""
        names = {"r1": "r", "r2": "r:2"}
        model = json.loads(Path(fixture("two_agent_chain_model.json"))
                           .read_text())
        for agent in model["agents"]:
            agent["name"] = names[agent["name"]]
        runs = json.loads(Path(fixture("two_agent_chain_runs.json"))
                          .read_text())
        runs["runs"] = {names[name]: run for name, run in runs["runs"].items()}
        return ["check", "--model", write_json(tmp_path / "model.json", model),
                "--runs", write_json(tmp_path / "runs.json", runs)]

    def test_an_agent_name_may_hold_a_colon(self, capsys, colon_named):
        assert main(colon_named + ["--formula", "r:2: G(red -> X G[<=5] !red)",
                                   "--formula", "r: F green",
                                   "--formula", "team: F (green & red)"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "r:2: G (red -> X G[0,5] !red) -> VIOLATED at position 2 "
            "(time 5/2)",
            "r: F green -> SATISFIED",
            "team: F (green & red) -> SATISFIED"]

    @pytest.mark.parametrize("formula, message", [
        # no text before a colon names a scope, so the one named is the
        # text before the last colon
        ("q:3: F red", "--formula q:3: F red: unknown formula scope 'q:3'"),
        # r names one, and the formula language has no ':'
        ("r:3: F red", "--formula r: 3: F red: 1:1: unknown token ':'"),
    ])
    def test_a_scope_with_a_colon_that_names_no_agent(self, capsys,
                                                      colon_named, formula,
                                                      message):
        assert main(colon_named + ["--formula", formula]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulateCommand:
    def test_reference_event_times(self, tmp_path, capsys):
        code = main([
            "simulate",
            "--model", fixture("two_agent_chain_model.json"),
            "--runs", fixture("two_agent_chain_runs.json"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[0] == "time,phase,r1,r2,atoms"
        times = [row.split(",")[0] for row in rows[1:8]]
        assert times == ["0", "1", "2", "5/2", "3", "9/2", "5"]
        assert (tmp_path / "timeline.svg").read_text().startswith("<svg")

    def test_single_agent_trace_is_its_own_run(self, tmp_path):
        model = write_json(tmp_path / "solo_model.json", {
            "agents": [{
                "name": "solo", "states": ["a", "b"], "initial": ["a"],
                "transitions": [
                    {"from": "a", "to": "b", "weight": "1"},
                    {"from": "b", "to": "a", "weight": "1"}],
                "labels": {"a": ["home"]}}]})
        runs = write_json(tmp_path / "solo_runs.json", {
            "runs": {"solo": {"prefix": [], "period": "2",
                              "cycle": [["a", "0"], ["b", "1"]]}}})
        assert main(["simulate", "--model", model, "--runs", runs,
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert [r.split(",")[2] for r in rows[1:3]] == ["a", "b"]

    def test_tied_arrivals_share_a_row(self, tmp_path):
        model = write_json(tmp_path / "tied_model.json", {
            "agents": [
                {"name": "one", "states": ["a", "b"], "initial": ["a"],
                 "transitions": [
                     {"from": "a", "to": "b", "weight": "2"},
                     {"from": "b", "to": "a", "weight": "2"}],
                 "labels": {}},
                {"name": "two", "states": ["c", "d"], "initial": ["c"],
                 "transitions": [
                     {"from": "c", "to": "d", "weight": "2"},
                     {"from": "d", "to": "c", "weight": "2"}],
                 "labels": {}},
            ]})
        runs = write_json(tmp_path / "tied_runs.json", {
            "runs": {
                "one": {"prefix": [], "period": "4",
                        "cycle": [["a", "0"], ["b", "2"]]},
                "two": {"prefix": [], "period": "4",
                        "cycle": [["c", "0"], ["d", "2"]]},
            }})
        assert main(["simulate", "--model", model, "--runs", runs,
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[:1] + rows[0].split(",")[2:4] == ["0", "a", "c"]
        assert rows[1].split(",")[0] == "2"
        assert rows[1].split(",")[2:4] == ["b", "d"]

    def test_names_with_commas_and_markup_are_escaped(self, tmp_path):
        agents = {"r<1>": ("a,b", "<s>"), "q&2": ('"c"', "d")}
        model = write_json(tmp_path / "model.json", {"agents": [
            {"name": name, "states": [one, two], "initial": [one],
             "labels": {two: [f"<{name}>"]},
             "transitions": [{"from": one, "to": two, "weight": "1"},
                             {"from": two, "to": one, "weight": "1"}]}
            for name, (one, two) in agents.items()]})
        runs = write_json(tmp_path / "runs.json", {"runs": {
            name: {"cycle": [[one, "0"], [two, "1"]], "period": "2"}
            for name, (one, two) in agents.items()}})
        assert main(["simulate", "--model", model, "--runs", runs,
                     "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "trace.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        # the merge orders agents by name
        assert rows[:3] == [["time", "phase", "q&2", "r<1>", "atoms"],
                            ["0", "cycle/2", '"c"', "a,b", ""],
                            ["1", "cycle/2", "d", "<s>", "<q&2> <r<1>>"]]
        svg = ElementTree.fromstring((tmp_path / "timeline.svg").read_text())
        texts = {element.text for element in svg.iter()
                 if element.tag.endswith("text")}
        assert {"r<1>", "q&2", "a,b", "<s>", "<q&2> <r<1>>"} <= texts


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_runs_of_an_agent_the_model_lacks_exit_3(tmp_path, capsys, command):
    runs = json.loads(Path(fixture("two_agent_chain_runs.json")).read_text())
    runs["runs"]["r9"] = runs["runs"]["r1"]
    argv = [command, "--model", fixture("two_agent_chain_model.json"),
            "--runs", write_json(tmp_path / "runs.json", runs)]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: runs.r9: the model has no such agent\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cycle, message", [
    ([["p1", "0"], ["p3", "1"]],
     "runs.r1: step 0: p1 -> p3 is not a transition"),
    ([["p2", "0"], ["p1", "2"]],
     "runs.r1: run starts at p2, not an initial state"),
])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_a_run_that_does_not_fit_its_agent_is_named(tmp_path, capsys, command,
                                                    cycle, message):
    runs = write_json(tmp_path / "runs.json", {"runs": {
        "r1": {"cycle": cycle, "period": "4"}}})
    argv = [command, "--model", fixture("two_agent_chain_model.json"),
            "--runs", runs]
    if command == "simulate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("agents, message", [
    # the name of an agent would be read as the team's scope
    ([{"name": "team", "labels": {"s": ["p"]}}, {"name": "other"}],
     "agents[0].name: 'team' is reserved for the team's scope"),
    ([{"name": "r1", "labels": {"s": ["p"]}},
      {"name": "r2", "labels": {"s": ["p", "q"]}}],
     "agents[1]: atom 'p' also belongs to agent 'r1'"),
])
@pytest.mark.parametrize("command", ["plan", "check", "simulate"])
def test_the_agent_loader_refuses_for_every_command(tmp_path, capsys, command,
                                                    agents, message):
    model = write_json(tmp_path / "model.json", {
        "agents": [{**GOOD_AGENT, **agent} for agent in agents],
        "global": {"formula": "true"}})
    if command == "plan":
        argv = ["plan", model]
    else:
        runs = write_json(tmp_path / "runs.json", {"runs": {
            agent["name"]: {"cycle": [["s", "0"]], "period": "1"}
            for agent in agents}})
        argv = [command, "--model", model, "--runs", runs]
    if command != "check":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


class TestPlanCommand:
    def test_corridor_plan_succeeds(self, tmp_path, capsys):
        code = main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "plan.json").read_text())
        assert data["status"] == "success"
        assert all(v["satisfied"] for v in data["verdicts"])
        letters = [set(a) for a, _ in
                   (tuple(e) for e in data["collective"]["word"]["prefix"]
                    + data["collective"]["word"]["cycle"])]
        assert any({"green", "red"} <= s for s in letters)
        expected = FIXTURES / "expected" / "two_agent_chain_plan"
        for name in ("plan.json", "trace.csv", "timeline.svg"):
            assert (tmp_path / name).read_bytes() == \
                (expected / name).read_bytes(), name

    def test_statistics_keep_their_keys(self, tmp_path):
        assert main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(tmp_path)]) == 0
        statistics = json.loads((tmp_path / "plan.json").read_text())["statistics"]
        assert set(statistics) == {"localLayers", "teamLayer", "globalLayer",
                                   "scalingFactor"}
        for layer in statistics["localLayers"]:
            assert set(layer) == {"states", "edges", "accepting", "live"}
        assert set(statistics["teamLayer"]) == {"states", "edges", "accepting"}
        assert set(statistics["globalLayer"]) == {"states", "edges",
                                                  "accepting", "pruned"}

    def test_an_old_automaton_file_plans_as_its_formula(self, tmp_path):
        # the fixture is translate's output of the team formula from when
        # every location carried the exact letter read there
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        assert data["global"] == {"formula": "F (green & red)"}
        data["global"] = {"tba": fixture("old_format_team_goal.json")}
        problem = write_json(tmp_path / "old.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        expected = json.loads((FIXTURES / "expected" / "two_agent_chain_plan"
                               / "plan.json").read_text())
        for key in ("agents", "collective", "statistics"):
            assert plan[key] == expected[key], key

    @pytest.mark.parametrize("count", [600, 2000])
    def test_an_old_automaton_file_over_many_atoms_plans(self, tmp_path,
                                                         count):
        # each location's exact letter becomes a conjunction over every
        # atom of the file, one literal per atom
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        idle = [f"idle{i}" for i in range(count - 2)]
        data["agents"][0]["atoms"] = ["green", *idle]
        automaton = json.loads(Path(fixture("old_format_team_goal.json")).read_text())
        automaton["atoms"] = ["green", "red", *idle]
        data["global"] = {"tba": write_json(tmp_path / "goal.json", automaton)}
        problem = write_json(tmp_path / "old.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        expected = json.loads((FIXTURES / "expected" / "two_agent_chain_plan"
                               / "plan.json").read_text())
        assert plan["collective"]["run"] == expected["collective"]["run"]

    def test_atoms_named_like_code_plan_as_the_corridor(self, tmp_path):
        # v and c0 hold where green does, not, True and lambda where red
        # does: compiled labels must bind these names, not splice them
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        r1, r2 = data["agents"]
        r1["labels"], r1["formula"] = {"p1": ["v", "c0"]}, "G F[<=10] (v & c0)"
        r2["labels"] = {"p3": ["not", "True", "lambda"]}
        r2["formula"] = "F (not & (True | lambda))"
        data["global"] = {
            "formula": "F (c0 & (v -> c0) & not & !(True -> !lambda))"}
        problem = write_json(tmp_path / "code_names.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        expected = json.loads((FIXTURES / "expected" / "two_agent_chain_plan"
                               / "plan.json").read_text())
        assert all(v["satisfied"] for v in plan["verdicts"])
        assert [agent["run"] for agent in plan["agents"]] == \
            [agent["run"] for agent in expected["agents"]]
        assert plan["collective"]["run"] == expected["collective"]["run"]
        assert plan["statistics"] == expected["statistics"]

    def test_malformed_interval_exits_3(self, tmp_path, capsys):
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        data["agents"][0]["formula"] = "F[6,0] green"
        problem = write_json(tmp_path / "broken.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        assert "[6,0]" in capsys.readouterr().err

    def test_a_clock_comparison_in_a_formula_exits_3(self, tmp_path, capsys):
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        data["agents"][0]["formula"] = "F[<=3] x <= 2"
        problem = write_json(tmp_path / "broken.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        assert "unexpected '<='" in capsys.readouterr().err

    def test_unsupported_fragment_exits_4(self, tmp_path, capsys):
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        data["agents"][0]["formula"] = "F[0,2] F[0,2] green"
        problem = write_json(tmp_path / "outside.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 4

    def test_unsatisfiable_deadline_exits_1(self, tmp_path, capsys):
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        data["agents"][1]["formula"] = "F[0,1] red"
        problem = write_json(tmp_path / "unsat.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 1

    def test_tiny_state_budget_exits_2(self, tmp_path, capsys):
        code = main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(tmp_path), "--state-budget", "3"])
        assert code == 2

    def test_a_missed_team_deadline_is_proven_within_a_small_budget(
            self, tmp_path, capsys):
        # the robots cannot meet by time 7.  Each agent's local layer is
        # trimmed to its live states before the team layer interleaves
        # them; without that the search needs 329 global states
        data = json.loads(Path(fixture("grid_meet.json")).read_text())
        data["global"]["formula"] = data["global"]["formula"].replace(
            "F[<=30]", "F[<=7]")
        data["options"]["stateBudget"] = 100
        problem = write_json(tmp_path / "tight.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().out.startswith("UNSATISFIABLE")

    def test_a_team_deadline_no_initial_state_can_meet_is_noted(
            self, tmp_path, capsys):
        # r2 needs 8 time units to reach area A and r1 needs 10 to reach B,
        # so no initial global state can meet by time 5
        data = json.loads(Path(fixture("grid_meet.json")).read_text())
        data["global"]["formula"] = data["global"]["formula"].replace(
            "F[<=30]", "F[<=5]")
        problem = write_json(tmp_path / "tight.json", data)
        out_dir = tmp_path / "out"
        assert main(["plan", problem, "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("UNSATISFIABLE")
        assert captured.err == ("note: team: no initial state can meet the "
                                "team specification's deadline\n")
        assert not (out_dir / "plan.json").exists()

    def test_the_live_state_pass_counts_against_the_budget(
            self, tmp_path, capsys):
        # r1's local product has 47 reachable states
        from mitlplan.cli import load_problem, solve
        data = json.loads(Path(fixture("grid_meet.json")).read_text())
        data["options"]["stateBudget"] = 40
        problem = write_json(tmp_path / "small.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().out == \
            "EXPLORATION LIMIT: stopped after 41 states\n"
        assert not (tmp_path / "plan.json").exists()
        outcome = solve(load_problem(Path(problem)))
        assert outcome.status == "exploration-limit"
        assert outcome.statistics == {
            "localLayers": [{"states": 40, "edges": 101, "accepting": 22},
                            {"states": 0, "edges": 0, "accepting": 0}],
            "statesAtLimit": 41}

    def test_the_global_search_counts_against_the_budget(
            self, tmp_path, capsys, gf_all):
        # gf_all is unsatisfiable: its live-state passes fit in 1,000
        # states, the global search of 30,467 states does not
        from mitlplan.cli import load_problem, solve
        gf_all["options"]["stateBudget"] = 1000
        problem = write_json(tmp_path / "small.json", gf_all)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().out == \
            "EXPLORATION LIMIT: stopped after 1001 states\n"
        assert not (tmp_path / "plan.json").exists()
        outcome = solve(load_problem(Path(problem)))
        assert outcome.status == "exploration-limit"
        assert outcome.notes == ()
        assert outcome.statistics == {
            "localLayers": [
                {"states": 135, "edges": 331, "accepting": 7, "live": 53},
                {"states": 62, "edges": 138, "accepting": 4, "live": 19},
                {"states": 148, "edges": 424, "accepting": 43, "live": 105}],
            "teamLayer": {"states": 1000, "edges": 4994, "accepting": 0},
            "globalLayer": {"states": 1000, "edges": 2548, "accepting": 0,
                            "pruned": 2446},
            "statesAtLimit": 1001}

    def test_plan_revalidates_under_check(self, tmp_path, capsys):
        assert main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        runs_payload = {"runs": {
            agent["name"]: agent["run"] for agent in plan["agents"]}}
        runs = write_json(tmp_path / "replay.json", runs_payload)
        capsys.readouterr()
        code = main([
            "check",
            "--model", fixture("two_agent_chain_plan.json"),
            "--runs", runs,
            "--formula", "r1: G F[<=10] green",
            "--formula", "r2: F red",
            "--formula", "team: F (green & red)",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("SATISFIED") == 3
        assert "VIOLATED" not in out

    def test_plan_stamps_are_exact_rationals(self, tmp_path):
        # the products count the corridor's time in halves; plan.json
        # carries the stamps divided back, not the integers
        assert main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["statistics"]["scalingFactor"] == 2
        stamps = [Q(stamp) for agent in plan["agents"]
                  for _, stamp in agent["run"]["prefix"] + agent["run"]["cycle"]]
        assert {stamp.denominator for stamp in stamps} == {1, 2}

    def test_cycle_through_the_initial_state_projects(self, tmp_path, capsys):
        # the lasso's stem is the initial state alone, and its position
        # opens every agent's cycle: one self-loop of period 1
        problem = write_json(tmp_path / "loop.json", {
            "agents": [{"name": "solo", "states": ["s"], "initial": ["s"],
                        "transitions": [{"from": "s", "to": "s",
                                         "weight": "1"}],
                        "formula": "true"}],
            "global": {"formula": "true"}})
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0
        run = json.loads((tmp_path / "plan.json").read_text())["agents"][0]["run"]
        assert run == {"prefix": [], "cycle": [["s", "0"]], "period": "1"}

    def test_exports_are_pure_functions_of_the_plan(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(first)]) == 0
        assert main(["plan", fixture("two_agent_chain_plan.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("plan.json", "trace.csv", "timeline.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_file_exits_3(self, capsys):
        assert main(["plan", "no_such_file.json"]) == 3

    def test_hand_written_automata_instead_of_formulas(self, tmp_path, capsys):
        # agents and the team may reference automaton files directly, for
        # specifications the translator does not cover
        assert main(["translate", "F[<=6] green",
                     "--out", str(tmp_path / "r1_goal.json")]) == 0
        assert main(["translate", "F (green & red)", "--alphabet", "green,red",
                     "--out", str(tmp_path / "team_goal.json")]) == 0
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        del data["agents"][0]["formula"]
        data["agents"][0]["tba"] = "r1_goal.json"
        data["global"] = {"tba": "team_goal.json"}
        problem = write_json(tmp_path / "handwritten.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert all(v["satisfied"] for v in plan["verdicts"])
        descriptions = [v["description"] for v in plan["verdicts"]]
        # automaton-only agents report membership verdicts, no formula line
        assert "r1: timed automaton membership" in descriptions
        assert not any(d.startswith("r1: F") for d in descriptions)


GOOD_AGENT = {"name": "solo", "states": ["s"], "initial": ["s"],
              "transitions": [{"from": "s", "to": "s", "weight": "1"}],
              "formula": "true"}


def with_agent(**changes):
    """A one-agent problem; a field changed to None is left out."""
    agent = {**GOOD_AGENT, **changes}
    return {"agents": [{key: value for key, value in agent.items()
                        if value is not None}],
            "global": {"formula": "true"}}


class TestMalformedProblemFiles:
    @pytest.mark.parametrize("data, flags, names", [
        ([GOOD_AGENT], [], "top level"),
        ({"agents": {"solo": GOOD_AGENT}}, [], "agents"),
        ({"global": {"formula": "true"}}, [], "agents: missing"),
        ({"agents": ["solo"]}, [], "agents[0]"),
        (with_agent(transitions=None), [], "agents[0].transitions: missing"),
        (with_agent(transitions="s->s"), [], "agents[0].transitions"),
        (with_agent(transitions=[{"from": "s", "to": "s"}]), [],
         "agents[0].transitions[0].weight"),
        (with_agent(name=None), [], "agents[0].name"),
        (with_agent(states=None), [], "agents[0].states"),
        (with_agent(initial="s"), [], "agents[0].initial"),
        (with_agent(formula=7), [], "agents[0].formula"),
        (with_agent(grid={"rows": 1, "cols": 2}), [],
         "agents[0].grid.moveWeights"),
        ({**with_agent(), "global": "true"}, [], "global"),
        ({**with_agent(), "options": {"stateBudget": -3}}, [],
         "options.stateBudget"),
        ({**with_agent(), "options": {"stateBudget": 0}}, [],
         "options.stateBudget"),
        ({**with_agent(), "options": {"stateBudget": "9"}}, [],
         "options.stateBudget"),
        (with_agent(), ["--state-budget", "-3"], "--state-budget"),
        (with_agent(), ["--state-budget", "0"], "--state-budget"),
        # s -> t at weight 1 meets the formula, at weight 5 it does not
        (with_agent(states=["s", "t"], labels={"t": ["g"]},
                    transitions=[{"from": "s", "to": "t", "weight": "1"},
                                 {"from": "s", "to": "t", "weight": "5"},
                                 {"from": "t", "to": "s", "weight": "1"}],
                    formula="G F[<=3] g"), [],
         "agents[0].transitions[1]: s -> t is listed before with weight 1"),
        (with_agent(transitions=[{"from": "s", "to": "s", "weight": "abc"}]),
         [], "agents[0].transitions[0].weight: not a rational number: 'abc'"),
        (with_agent(transitions=[{"from": "s", "to": "s", "weight": -2}]),
         [], "agents[0].transitions[0].weight: must be positive, got -2"),
        (with_agent(transitions=[{"from": "s", "to": "nowhere",
                                  "weight": "1"}]), [],
         "agents[0].transitions[0].to: 'nowhere' is not a declared state"),
        (with_agent(initial=["zz"]), [],
         "agents[0].initial[0]: 'zz' is not a declared state"),
        (with_agent(labels={"zz": ["h"]}), [],
         "agents[0].labels.zz: 'zz' is not a declared state"),
        (with_agent(initial=["p1"], grid={
            "rows": 2, "cols": 2,
            "moveWeights": {"up": 1, "right": 1, "down": "x", "left": 1}}),
         [], "agents[0].grid.moveWeights.down: not a rational number: 'x'"),
        (with_agent(initial=["p1"], grid={
            "rows": 2, "cols": 2, "labels": {"p9": ["g"]},
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].grid.labels.p9: 'p9' is not a declared state"),
        (with_agent(initial=["p1"], grid={
            "rows": 0, "cols": 2,
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].grid.rows: must be a positive integer, got 0"),
        (with_agent(initial=["p999"], grid={
            "rows": 2, "cols": 2,
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].initial[0]: 'p999' is not a declared state"),
        (with_agent(initial=None, grid={
            "rows": 2, "cols": 2, "initial": ["p1", "p5"],
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].grid.initial[1]: 'p5' is not a declared state"),
        (with_agent(formula="F[<=3] x <= 2"), [],
         "agents[0].formula: 1:9: unexpected '<='"),
        (with_agent(formula="F[<=3"), [], "agents[0].formula: 1:"),
        ({**with_agent(), "global": {"formula": "F[<=3] x <= 2"}}, [],
         "global.formula: 1:9: unexpected '<='"),
        (with_agent(initial=["p1"], grid={
            "rows": 2, "cols": 2, "initial": ["p999"],
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].grid.initial: the start cells are given in "
             "agents[0].initial already"),
        (with_agent(initial=[]), [],
         "agents[0].initial: at least one initial state is required"),
        (with_agent(initial=None, grid={
            "rows": 2, "cols": 2,
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].initial: at least one initial state is required"),
        (with_agent(initial=None, grid={
            "rows": 2, "cols": 2, "initial": [],
            "moveWeights": {"up": 1, "right": 1, "down": 1, "left": 1}}),
         [], "agents[0].grid.initial: at least one initial state is required"),
        (with_agent(initial=["p1"], grid={
            "rows": 2, "cols": 2,
            "moveWeights": {"right": 1, "down": 1, "left": 1}}),
         [], "error: agents[0].grid.moveWeights.up: missing\n"),
        (with_agent(initial=["p1"], grid={
            "rows": 2, "cols": 2, "moveWeights": {
                "up": 1, "right": 1, "down": 1, "left": 1, "diag": "1"}}),
         [], "error: agents[0].grid.moveWeights.diag: unknown direction"),
        # the file is not read: the formula would hide it
        (with_agent(tba="goal.json"), [],
         "error: agents[0]: give a formula or a tba file, not both"),
        ({**with_agent(), "global": {"formula": "true", "tba": "goal.json"}},
         [], "error: global: give a formula or a tba file, not both"),
        (with_agent(name=""), [], "error: agents[0].name: empty agent name\n"),
        ({**with_agent(), "agents": [GOOD_AGENT, GOOD_AGENT]}, [],
         "error: agents[1].name: duplicate agent name 'solo'\n"),
        ({**with_agent(), "agents": []}, [],
         "error: agents: no agents defined\n"),
        ({**with_agent(), "agents": [
            {**GOOD_AGENT, "labels": {"s": ["g"]}},
            {**GOOD_AGENT, "name": "duo", "labels": {"s": ["g"]}}]}, [],
         "error: agents[1]: atom 'g' also belongs to agent 'solo'\n"),
        # a position past a line break counts lines and restarts columns
        (with_agent(formula="true &\n  & true"), [],
         "agents[0].formula: 2:2: unexpected '&'"),
        (with_agent(formula="F(<=3] true"), [],
         "agents[0].formula: 1:2: the <= shorthand requires [<=b]"),
        (with_agent(formula="F[<=1/0] true"), [],
         "agents[0].formula: 1:4: not a rational number: '1/0'"),
    ])
    def test_exits_3_naming_the_field(self, tmp_path, capsys, data, flags,
                                      names):
        problem = write_json(tmp_path / "problem.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)] + flags) == 3
        err = capsys.readouterr().err
        assert names in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("data, names", [
        (with_agent(formula="F[2,2] true"), "agents[0].formula"),
        ({**with_agent(), "global": {"formula": "G[1,1] true"}},
         "global.formula")])
    def test_a_punctual_interval_exits_4_naming_the_field(self, tmp_path,
                                                           capsys, data,
                                                           names):
        problem = write_json(tmp_path / "problem.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith(f"error: {names}: ")

    def test_a_transition_listed_twice_is_one_successor(self, tmp_path):
        from mitlplan.cli import load_model
        agent = with_agent(states=["s", "t"], transitions=[
            {"from": "s", "to": "t", "weight": "1"},
            {"from": "t", "to": "s", "weight": "2"},
            {"from": "s", "to": "t", "weight": "1"}])["agents"][0]
        model = load_model(write_json(tmp_path / "model.json",
                                      {"agents": [agent]}))
        assert model["solo"].successors("s") == ((1, "t"),)
        assert model["solo"].successors("t") == ((2, "s"),)

    @pytest.mark.parametrize("data, message", [
        (with_agent(formula="F hot"),
         "agents[0].formula: atoms ['hot'] are not in the alphabet []"),
        (with_agent(atoms=["p"], formula=None, tba="goal.json"),
         "agents[0].tba: the automaton's atoms [] differ from the alphabet "
         "['p']"),
        (with_agent(formula=None),
         "agents[0]: needs a formula or a tba file"),
        ({**with_agent(), "global": {"formula": "F hot"}},
         "global.formula: atoms ['hot'] are not in the alphabet []"),
        ({**with_agent(atoms=["p"]), "global": {"tba": "goal.json"}},
         "global.tba: the automaton's atoms [] differ from the alphabet "
         "['p']"),
        ({**with_agent(), "global": {}},
         "global: needs a formula or a tba file"),
    ])
    def test_a_specification_that_does_not_fit_exits_3(self, tmp_path, capsys,
                                                        data, message):
        write_json(tmp_path / "goal.json", GOOD_TBA)  # over no atoms
        problem = write_json(tmp_path / "problem.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_file_that_still_sets_scale_plans(self, tmp_path):
        problem = write_json(tmp_path / "problem.json",
                             {**with_agent(), "options": {"scale": False}})
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("runs, names", [
        ([], "top level"),
        ({"runs": {"r1": {"cycle": [["p1", "0"]]}}}, "runs.r1.period: missing"),
        ({"runs": {"r1": {"cycle": [["p1"]], "period": "1"}}},
         "runs.r1.cycle[0]"),
        ({"runs": {"r1": {"cycle": [["p1", "abc"]], "period": "1"}}},
         "error: runs.r1.cycle[0][1]: not a rational number: 'abc'\n"),
        ({"runs": {"r2": {"prefix": [["p1", "0"]], "cycle": [["p2", "1/0"]],
                          "period": "1"}}},
         "error: runs.r2.cycle[0][1]: not a rational number: '1/0'\n"),
        ({"runs": {"r2": {"cycle": [["p1", "0"]], "period": "x"}}},
         "error: runs.r2.period: not a rational number: 'x'\n"),
        ({"runs": {"r1": {"cycle": [["p1", "0"]], "period": "0"}}},
         "error: runs.r1: lasso period must be positive: 0\n"),
        ({"runs": {"r1": {"cycle": [["p1", "1"]], "period": "1"}}},
         "error: runs.r1: runs start at time zero\n"),
    ])
    def test_malformed_runs_exit_3(self, tmp_path, capsys, runs, names):
        path = write_json(tmp_path / "runs.json", runs)
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", path]) == 3
        err = capsys.readouterr().err
        assert names in err
        assert "Traceback" not in err


def chain_runs_with(stamp=None, **entry):
    """The two_agent_chain run of r1, with ``stamp`` for the arrival at p2
    or with ``entry``'s fields."""
    run = {"prefix": [], "period": "5", "cycle": [
        ["p1", "0"], ["p2", "1"], ["p3", "5/2"], ["p2", "3"]]}
    if stamp is not None:
        run["cycle"][1][1] = stamp
    return {"runs": {"r1": {**run, **entry}}}


class TestRunsLoader:
    @pytest.mark.parametrize("runs, message", [
        (chain_runs_with(True),
         "runs.r1.cycle[1][1]: expected an integer or a rational string"),
        (chain_runs_with(-1),
         "runs.r1: timestamps must strictly increase: 0 then -1"),
        (chain_runs_with("-1"),
         "runs.r1: timestamps must strictly increase: 0 then -1"),
        (chain_runs_with("1/0"),
         "runs.r1.cycle[1][1]: not a rational number: '1/0'"),
        (chain_runs_with("\u00b2"),
         "runs.r1.cycle[1][1]: not a rational number: '\u00b2'"),
        # a fullwidth 3 reads as 3
        (chain_runs_with("\uff13"),
         "runs.r1: timestamps must strictly increase: 3 then 5/2"),
        # past the digit limit of int(), which Fraction refuses as well
        pytest.param(chain_runs_with("1" * 5000),
                     f"runs.r1.cycle[1][1]: not a rational number: "
                     f"'{'1' * 5000}'", id="5000 digits"),
        (chain_runs_with(cycle=[["p1", "0", "p2"]]),
         "runs.r1.cycle[0]: expected a list of 2"),
        (chain_runs_with(cycle=[["p1", "0"], [2, "1"]]),
         "runs.r1.cycle[1][0]: expected a string"),
        ({"runs": {"r1": {"cycle": [["p1", "0"]]}}}, "runs.r1.period: missing"),
        (chain_runs_with(prefix={}), "runs.r1.prefix: expected a list"),
        ({"runs": {}}, "{path}: no runs defined"),
        # the file's shape is checked before any run is built
        ({"runs": {**chain_runs_with(period="0")["runs"],
                   "r2": {"cycle": [["p1", True]], "period": "1"}}},
         "runs.r2.cycle[0][1]: expected an integer or a rational string"),
        ({"runs": {**chain_runs_with(period="0")["runs"],
                   "r2": {"cycle": [["p1", "0"]], "period": "1"}}},
         "runs.r1: lasso period must be positive: 0"),
        # a shape error anywhere comes before any stamp's, read or refused
        ({"runs": {**chain_runs_with("0.5")["runs"],
                   "r2": {"cycle": [["p1", "0"]], "period": 1.5}}},
         "runs.r2.period: expected an integer or a rational string"),
        ({"runs": {**chain_runs_with("abc")["runs"],
                   "r2": {"cycle": [["p1"]], "period": "1"}}},
         "runs.r2.cycle[0]: expected a list of 2"),
        # stamp errors come in the order of the walk
        ({"runs": {**chain_runs_with("abc")["runs"],
                   "r2": {"cycle": [["p1", "xyz"]], "period": "1"}}},
         "runs.r1.cycle[1][1]: not a rational number: 'abc'"),
    ])
    def test_malformed_runs_keep_their_messages(self, tmp_path, capsys, runs,
                                                message):
        path = write_json(tmp_path / "runs.json", runs)
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", path]) == 3
        assert capsys.readouterr().err == \
            f"error: {message.format(path=path)}\n"

    def test_decimal_and_padded_stamps_load_like_plain_ones(self, tmp_path):
        from mitlplan.cli import load_runs
        plain, other = (
            load_runs(Path(write_json(tmp_path / f"{name}.json", {"runs": {
                "r": {"prefix": [["a", "0"]], "cycle": [["b", half],
                                                        ["a", three]],
                      "period": "4"}}})))["r"]
            for name, half, three in (("plain", "1/2", "3"),
                                      ("other", "0.5", " 3 ")))
        assert other == plain
        assert (plain.ticks, plain.period_ticks, plain.unit) == (
            (0, 1, 6), 8, 2)

    def test_plain_stamps_build_no_fraction_and_skip_the_schema(
            self, tmp_path, monkeypatch):
        """A runs file of about 1,000 stamps, JSON integers and ``n`` and
        ``p/q`` text, loads without a ``Fraction`` and without the schema
        walk; a file with one decimal stamp builds one ``Fraction``, for
        that stamp, and skips the schema walk too."""
        from mitlplan import cli

        def stamp(k):  # k/3 in one of the three spellings
            return k // 3 if k % 6 == 0 else (
                str(k // 3) if k % 3 == 0 else f"{k}/3")

        events = [[f"s{k % 5}", stamp(k)] for k in range(1000)]
        entry = {"prefix": events[:10], "cycle": events[10:],
                 "period": "1000/3"}
        plain = Path(write_json(tmp_path / "plain.json", {"runs": {
            "r1": entry, "r2": {"cycle": events, "period": "1000/3"}}}))
        entry["cycle"][-1][1] = "333.0"
        decimal = Path(write_json(tmp_path / "decimal.json", {"runs": {
            "r1": entry}}))
        new, check = Q.__new__, cli._check

        def counting_fraction(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new(cls, *args, **kwargs)

        def counting_check(*args):
            counts["_check"] += 1
            return check(*args)

        loaded, built = {}, {}
        for path in (plain, decimal):
            counts = built[path] = {"Fraction": 0, "_check": 0}
            with monkeypatch.context() as patch:
                patch.setattr(Q, "__new__", staticmethod(counting_fraction))
                patch.setattr(cli, "_check", counting_check)
                loaded[path] = cli.load_runs(path)
        assert built[plain] == {"Fraction": 0, "_check": 0}
        assert built[decimal] == {"Fraction": 1, "_check": 0}
        run = loaded[plain]["r1"]
        assert (run.loop, run.unit, run.period_ticks) == (10, 3, 1000)
        assert run.ticks == tuple(range(1000))
        assert loaded[decimal]["r1"] == run


GOOD_TBA = {"clocks": ["x"],
            "locations": [{"name": "l", "label": [], "initial": True,
                           "accepting": True}],
            "edges": [{"from": "l", "to": "l", "guard": "x <= 1",
                       "resets": ["x"]}]}


def with_edges(*edges):
    """``GOOD_TBA`` with its edge changed into ``edges``; a field changed
    to None is left out."""
    return {**GOOD_TBA, "edges": [
        {key: value for key, value in {**GOOD_TBA["edges"][0], **edge}.items()
         if value is not None} for edge in edges]}


class TestMalformedAutomatonFiles:
    @staticmethod
    def problem(tmp_path, scope, automaton):
        write_json(tmp_path / "goal.json", automaton)
        if scope == "agent":
            data = with_agent(formula=None, tba="goal.json")
        else:
            data = {**with_agent(), "global": {"tba": "goal.json"}}
        return write_json(tmp_path / "problem.json", data)

    @pytest.mark.parametrize("scope", ["agent", "global"])
    def test_a_well_formed_file_plans(self, tmp_path, scope):
        problem = self.problem(tmp_path, scope, GOOD_TBA)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("scope", ["agent", "global"])
    def test_clocks_may_be_named_like_keywords(self, tmp_path, scope):
        clocks = ["X", "F", "G", "U", "inf", "false"]
        named = {"clocks": clocks,
                 "locations": [{"name": "l", "initial": "true",
                                "accepting": True,
                                "invariant": "!(inf > 3) & false <= 5"}],
                 "edges": [{"from": "l", "to": "l",
                            "guard": "X <= 1 & (F >= 0 & !(G = 2)) & U < 9",
                            "resets": clocks}]}
        problem = self.problem(tmp_path, scope, named)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("scope", ["agent", "global"])
    def test_a_file_with_edge_labels_plans(self, tmp_path, scope):
        labelled = {"clocks": ["x"], "atoms": [],
                    "locations": [{"name": "l", "initial": "true",
                                   "accepting": True}],
                    "edges": [{"from": "l", "to": "l", "label": "!false",
                               "guard": "x <= 1", "resets": ["x"]}]}
        problem = self.problem(tmp_path, scope, labelled)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("scope, automaton, names", [
        ("agent", {"clocks": []}, "agents[0].tba: locations: missing"),
        ("agent", {"locations": GOOD_TBA["locations"]},
         "agents[0].tba: edges: missing"),
        ("global", [GOOD_TBA], "global.tba: top level: expected an object"),
        ("global", with_edges({}, {}, {"to": None}),
         "global.tba: edges[2].to: missing"),
        ("agent", with_edges({"resets": "x"}),
         "agents[0].tba: edges[0].resets: expected a list"),
        ("global", with_edges({"guard": "x <="}),
         "global.tba: edges[0].guard: constraint syntax"),
        ("agent", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "invariant": "x ~ 2"}]},
         "agents[0].tba: locations[0].invariant: constraint syntax"),
        ("agent", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "accepting": "yes"}]},
         "agents[0].tba: locations[0].accepting: expected true or false"),
        ("global", with_edges({"label": 1}),
         "global.tba: edges[0].label: expected a string"),
        ("global", with_edges({"label": "(hot"}),
         "global.tba: edges[0].label: "),
        ("agent", with_edges({}, {"label": "F[<=2] true"}),
         "agents[0].tba: edges[1].label: 'F[<=2] true' is not propositional"),
        ("global", {**with_edges({"label": "hot"}), "atoms": []},
         "global.tba: edges[0].label: atoms ['hot'] are not in the file's atoms"),
        ("agent", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "initial": "X true"}]},
         "agents[0].tba: locations[0].initial: 'X true' is not propositional"),
        ("agent", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "initial": 1}]},
         "agents[0].tba: locations[0].initial: expected a label, true or false"),
        ("global", {**GOOD_TBA, "atoms": [], "locations": [
            {**GOOD_TBA["locations"][0], "label": ["hot"]}]},
         "global.tba: locations[0].label: atoms ['hot'] are not in the "
         "file's atoms"),
        # an atom, |, ->, false or a temporal operator is no clock constraint
        ("global", with_edges({"guard": "p"}),
         "global.tba: edges[0].guard: constraint syntax"),
        ("agent", with_edges({"guard": "x <= 1 | x >= 3"}),
         "agents[0].tba: edges[0].guard: constraint syntax"),
        ("global", with_edges({"guard": "x <= 1 -> x >= 3"}),
         "global.tba: edges[0].guard: constraint syntax"),
        ("agent", with_edges({"guard": "F x <= 1"}),
         "agents[0].tba: edges[0].guard: constraint syntax"),
        ("global", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "invariant": "false"}]},
         "global.tba: locations[0].invariant: constraint syntax"),
        # a punctual interval in a label is malformed, not unsupported
        ("agent", with_edges({"label": "F[1,1] green"}),
         "agents[0].tba: edges[0].label: punctual interval [1,1] is not "
         "allowed"),
        ("global", with_edges({"guard": "!" * 150 + "x <= 1"}),
         "global.tba: edges[0].guard: constraint syntax: 1:100: formula "
         "nested deeper than 100 levels"),
        ("agent", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0],
             "invariant": "(" * 120 + "x <= 1" + ")" * 120}]},
         "agents[0].tba: locations[0].invariant: constraint syntax: 1:100: "
         "formula nested deeper than 100 levels"),
        ("global", with_edges({"label": " & ".join(["true"] * 150)}),
         "global.tba: edges[0].label: 1:698: formula nested deeper than 100 "
         "levels"),
        # the second entry's invariant would replace the first one's
        ("global", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "invariant": "x <= 1"},
            {"name": "m", "label": []},
            {**GOOD_TBA["locations"][0], "invariant": "x <= 100"}]},
         "global.tba: locations[2].name: 'l' is listed before"),
        # two slots of one clock: a guard reads one, a reset sets both
        ("agent", {**GOOD_TBA, "clocks": ["x", "y", "x"]},
         "agents[0].tba: clocks[2]: 'x' is listed before"),
        # a dangling reference names its field, in file order
        ("global", with_edges({}, {"to": "zz"}),
         "global.tba: edges[1].to: 'zz' is not a declared location"),
        ("agent", with_edges({"guard": "y <= 1"}),
         "agents[0].tba: edges[0].guard: clock 'y' is not declared"),
        ("global", with_edges({"resets": ["y"]}),
         "global.tba: edges[0].resets: clock 'y' is not declared"),
        ("agent", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "invariant": "y <= 3"}]},
         "agents[0].tba: locations[0].invariant: clock 'y' is not declared"),
        # a guard read once for both edges still names the first
        ("global", with_edges({"guard": "z <= 1"}, {"guard": "z <= 1"}),
         "global.tba: edges[0].guard: clock 'z' is not declared"),
        # no location is initial, and a dangling source
        ("global", {**GOOD_TBA, "locations": [
            {**GOOD_TBA["locations"][0], "initial": False}]},
         "global.tba: locations: no location is initial"),
        ("agent", with_edges({"from": "zz"}),
         "agents[0].tba: edges[0].from: 'zz' is not a declared location"),
    ])
    def test_exits_3_naming_the_field(self, tmp_path, capsys, scope, automaton,
                                      names):
        problem = self.problem(tmp_path, scope, automaton)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert names in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()


CHAIN_CHECK = ["check", "--model", fixture("two_agent_chain_model.json"),
               "--runs", fixture("two_agent_chain_runs.json")]


class TestNestingDepth:
    @pytest.mark.parametrize("argv, where", [
        (["translate", "!" * 250 + "green"], "1:100"),
        (["translate", "(" * 900], "1:100"),
        (["translate", " U ".join(["green"] * 1200)], "1:806"),
        (CHAIN_CHECK + ["--formula", "team: " + " & ".join(["green"] * 300)],
         "1:798"),
    ])
    def test_a_formula_nested_too_deeply_exits_3(self, capsys, argv, where):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith(
            f"{where}: formula nested deeper than 100 levels\n")

    @pytest.mark.parametrize("formula", [
        " & ".join(["green"] * 100),
        " | ".join(["green"] * 100),
        " -> ".join(["green"] * 100),
        "!" * 99 + "green",
        "(" * 99 + "green" + ")" * 99,
        "F " * 99 + "green",
        " U[0,9] ".join(["green"] * 100),
    ])
    def test_a_formula_100_levels_deep_is_decided(self, capsys, formula):
        # an | or -> is three levels once normalized, and each decides
        # the formula through compile_formula's one expression
        assert main(CHAIN_CHECK + ["--formula", f"team: {formula}"]) == 0
        assert capsys.readouterr().out.endswith(("SATISFIED\n",
                                                 "VIOLATED at position 0 "
                                                 "(time 0)\n"))


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["plan", "x.json", "--state-budget", "abc"],
         "mitlplan plan: argument --state-budget: invalid int value: 'abc'"),
        (["check", "--runs", "runs.json"],
         "mitlplan check: the following arguments are required: --model"),
        ([], "mitlplan: the following arguments are required: command"),
    ])
    def test_exit_3(self, capsys, argv, message):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["plan", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mitlplan")

    @staticmethod
    def through_every_parser(argv):
        """The exit code and the message that ``main`` gives for ``argv``
        with the parser of every command; ``None`` when ``argv`` parses."""
        try:
            build_parser().parse_args(argv)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        return None

    @staticmethod
    def outcome(run, argv, capsys) -> tuple:
        try:
            code = run(argv)
        except SystemExit as exc:  # --help
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["nonsense"], ["--bogus"], ["Plan"],
        *([command, *rest] for command in ("plan", "check", "simulate",
                                           "translate")
          for rest in ([], ["--help"], ["-h", "x"], ["--bogus"],
                       ["--state-budget", "x"], ["--model"], ["x", "y"])),
        ["plan", "problem.json", "--state-budget", "x"],
        ["plan", "problem.json", "--bogus"],
        ["check", "--runs", "runs.json"],
        ["simulate", "--model", "model.json"],
        ["check", "--model", "m", "--runs", "r", "--formula"],
        ["translate", "F p", "--bogus", "x"],
        ["translate", "--out", "a.json"],
    ])
    def test_the_invoked_command_parses_as_in_the_whole_tree(self, capsys,
                                                             argv):
        # main builds only the invoked command's parser; every usage error
        # and help text is the one of the parser of every command
        expected = self.outcome(self.through_every_parser, argv, capsys)
        assert expected[0] is not None
        assert self.outcome(main, argv, capsys) == expected


# The options of each command and the arguments without which it cannot
# run; the lines of the reader's corpus are drawn from these, every command
# name, the values below and the tokens that only argparse reads.
OPTIONS = {"plan": ("--out-dir", "--state-budget"),
           "check": ("--model", "--runs", "--formula"),
           "simulate": ("--model", "--runs", "--out-dir"),
           "translate": ("--alphabet", "--out")}
NEEDED = {"plan": ["x"], "check": ["--model", "x", "--runs", "x"],
          "simulate": ["--model", "x", "--runs", "x"], "translate": ["F p"]}
VALUES = ("x", "-5", "-x", "", "F p", "--out", "7", "plan")
SPECIALS = ("-h", "--help", "--", "-")


def command_lines(count: int = 2000) -> list:
    """``count`` distinct seeded argument lists.  Three in five start from
    a command's shortest complete line; one in ten has something else in
    the command's place; each line then takes up to three pieces at random
    places.  Three in five pieces are one of the command's options with a
    value, as ``--opt value`` or ``--opt=value``; the others are a value,
    an option abbreviated, an option without its value, an option of any
    command, a command name or a special."""
    rng = random.Random("command lines")
    everyone = sorted({flag for flags in OPTIONS.values() for flag in flags})

    def piece(command):
        value = rng.choice(VALUES)
        flag = rng.choice(OPTIONS[command])
        if rng.random() < 0.6:
            return rng.choice(([flag, value], [f"{flag}={value}"]))
        other = rng.choice(everyone)
        return rng.choice((
            [value], [flag[:rng.randrange(3, len(flag))], value], [flag],
            [other, value], [f"{other}={value}"], [rng.choice(SPECIALS)],
            [rng.choice(sorted(OPTIONS))]))

    lines = {}
    while len(lines) < count:
        command = rng.choice(sorted(OPTIONS))
        line = [command, *NEEDED[command]] if rng.random() < 0.6 \
            else [command]
        if rng.random() < 0.1:
            line[0] = rng.choice([*SPECIALS, *VALUES, command.title()])
        for _ in range(rng.randrange(4)):
            at = rng.randrange(1, len(line) + 1)
            line[at:at] = piece(command)
        lines.setdefault(tuple(line), line)
    return list(lines.values())


def through_the_whole_tree(argv) -> int:
    """What ``main`` gives for ``argv`` when the parser of every command
    reads every line."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def readme_lines() -> list:
    """The arguments of each ``mitlplan`` call in README's shell blocks."""
    text = (FIXTURES.parent / "README.md").read_text()
    return [shlex.split(line)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("mitlplan ")]


def lines_in_tests() -> list:
    """The argument lists written out in ``tests/`` that argparse reads:
    each list display that starts with a command name, any element other
    than a string taken as ``x``."""
    lines = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.List) and node.elts
                    and isinstance(node.elts[0], ast.Constant)
                    and node.elts[0].value in OPTIONS) or any(
                        isinstance(item, ast.Starred) for item in node.elts):
                continue
            argv = [item.value if isinstance(item, ast.Constant)
                    and isinstance(item.value, str) else "x"
                    for item in node.elts]
            try:
                build_parser().parse_args(argv)
            except (InputError, SystemExit):  # refused, or help
                continue
            lines.append(argv)
    return lines


class TestReader:
    """``read_arguments``, which reads the plain lines of ``main`` from one
    table, against the argparse tree built from that table."""

    LINES = command_lines()

    def test_a_line_it_reads_parses_alike_in_argparse(self):
        read = {}
        for argv in self.LINES:
            args = read_arguments(argv)
            if args is not None:
                assert vars(args) == vars(build_parser().parse_args(argv)), \
                    argv
                read[argv[0]] = read.get(argv[0], 0) + 1
        # each command reads a fair share of the corpus
        assert sorted(read) == sorted(OPTIONS)
        assert min(read.values()) >= 25, read

    def test_main_answers_as_the_whole_tree(self, tmp_path, monkeypatch,
                                            capsys):
        # translate --out writes into the working directory
        monkeypatch.chdir(tmp_path)
        for argv in self.LINES:
            expected = TestUsageErrors.outcome(through_the_whole_tree, argv,
                                               capsys)
            assert TestUsageErrors.outcome(main, argv, capsys) == expected, \
                argv

    def test_it_reads_every_documented_benchmarked_and_tested_line(
            self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        import workloads
        benchmarked = [
            op.argv for name in workloads.WORKLOADS for seed in (7, 19)
            for op in workloads.operations(name, seed, tmp_path / name,
                                           FIXTURES.parent)
            if op.argv is not None]
        documented, tested = readme_lines(), lines_in_tests()
        assert len(documented) >= 2 and len(benchmarked) >= 8
        assert len(tested) >= 50
        for argv in documented + benchmarked + tested:
            assert read_arguments(argv) is not None, argv


class TestUnreadablePaths:
    def test_a_directory_as_the_problem_file(self, tmp_path, capsys):
        assert main(["plan", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path}: cannot read: ")

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000])
    def test_a_problem_file_that_does_not_decode(self, tmp_path, capsys,
                                                 content):
        path = tmp_path / "problem.json"
        path.write_bytes(content)
        assert main(["plan", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: cannot read: ")

    def test_a_problem_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"agents": [}')
        assert main(["plan", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: {path}: invalid JSON: Expecting value: line 1 column 13")

    @pytest.mark.parametrize("name, field", [
        ("two_agent_chain_runs.json", '"period": "5"'),
        ("two_agent_chain_model.json", '"weight": "1"'),
    ])
    def test_an_integer_longer_than_int_reads_exits_3(self, tmp_path, capsys,
                                                      name, field):
        # a period or a weight written as a JSON integer of 5,000 digits
        text = Path(fixture(name)).read_text()
        assert field in text
        path = tmp_path / name
        path.write_text(text.replace(field, field.split(":")[0] + ": "
                                     + "7" * 5000, 1))
        argv = ["check", "--model", fixture("two_agent_chain_model.json"),
                "--runs", fixture("two_agent_chain_runs.json"),
                "--formula", "team: F green"]
        argv[argv.index(fixture(name))] = str(path)
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: an integer of 5000 digits is longer than the "
            f"{sys.get_int_max_str_digits()} digits allowed\n")

    def test_an_integer_as_long_as_int_reads_loads(self, tmp_path):
        from mitlplan.cli import _load_json
        digits = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text(f'[-{"9" * digits}, 1]')
        assert _load_json(path) == [-(10 ** digits - 1), 1]

    def test_a_nul_byte_in_an_automaton_path(self, tmp_path, capsys):
        problem = write_json(tmp_path / "problem.json",
                             with_agent(formula=None, tba="goal\u0000.json"))
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.endswith("goal\\x00.json': a path cannot hold a NUL byte\n")

    @pytest.mark.parametrize("argv", [
        ["plan", fixture("two_agent_chain_plan.json")],
        ["simulate", "--model", fixture("two_agent_chain_model.json"),
         "--runs", fixture("two_agent_chain_runs.json")],
    ])
    def test_an_out_dir_under_a_file(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"
        assert main(argv + ["--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out_dir}")
        assert ": cannot write: " in err
