import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from mitlplan.cli import main

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

    def test_propositional_formula_is_clock_free(self, capsys):
        assert main(["translate", "p & q"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clocks"] == []

    def test_punctual_interval_is_rejected_as_unsupported(self, capsys):
        assert main(["translate", "F[2,2] p"]) == 4

    def test_fragment_violation_exits_4(self, capsys):
        assert main(["translate", "F[0,3] F[0,3] p"]) == 4
        err = capsys.readouterr().err
        assert "hand-written automaton" in err


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

    def test_unknown_scope(self, capsys):
        code = main([
            "check",
            "--model", fixture("two_agent_chain_model.json"),
            "--runs", fixture("two_agent_chain_runs.json"),
            "--formula", "nobody: true",
        ])
        assert code == 3


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

    def test_malformed_interval_exits_3(self, tmp_path, capsys):
        data = json.loads(Path(fixture("two_agent_chain_plan.json")).read_text())
        data["agents"][0]["formula"] = "F[6,0] green"
        problem = write_json(tmp_path / "broken.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        assert "[6,0]" in capsys.readouterr().err

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
        # the lasso's stem is the initial state alone; its position opens
        # every agent's cycle, which the team automaton's flag doubles
        problem = write_json(tmp_path / "loop.json", {
            "agents": [{"name": "solo", "states": ["s"], "initial": ["s"],
                        "transitions": [{"from": "s", "to": "s",
                                         "weight": "1"}],
                        "formula": "true"}],
            "global": {"formula": "true"}})
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0
        run = json.loads((tmp_path / "plan.json").read_text())["agents"][0]["run"]
        assert run == {"prefix": [], "cycle": [["s", "0"], ["s", "1"]],
                       "period": "2"}

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
    ])
    def test_exits_3_naming_the_field(self, tmp_path, capsys, data, flags,
                                      names):
        problem = write_json(tmp_path / "problem.json", data)
        assert main(["plan", problem, "--out-dir", str(tmp_path)] + flags) == 3
        err = capsys.readouterr().err
        assert names in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    def test_a_file_that_still_sets_scale_plans(self, tmp_path):
        problem = write_json(tmp_path / "problem.json",
                             {**with_agent(), "options": {"scale": False}})
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("runs, names", [
        ([], "top level"),
        ({"runs": {"r1": {"cycle": [["p1", "0"]]}}}, "runs.r1.period: missing"),
        ({"runs": {"r1": {"cycle": [["p1"]], "period": "1"}}},
         "runs.r1.cycle[0]"),
    ])
    def test_malformed_runs_exit_3(self, tmp_path, capsys, runs, names):
        path = write_json(tmp_path / "runs.json", runs)
        assert main(["check", "--model", fixture("two_agent_chain_model.json"),
                     "--runs", path]) == 3
        err = capsys.readouterr().err
        assert names in err
        assert "Traceback" not in err


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
    ])
    def test_exits_3_naming_the_field(self, tmp_path, capsys, scope, automaton,
                                      names):
        problem = self.problem(tmp_path, scope, automaton)
        assert main(["plan", problem, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert names in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()
