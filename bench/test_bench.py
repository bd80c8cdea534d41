"""Tests of the benchmark itself: its inputs, its expected outcomes and its
tracing.  Sizes are tiny except where generating the full inputs is cheap.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
for path in (ROOT / "src", ROOT / "tests", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import one_pass  # noqa: E402
import workloads  # noqa: E402
from reference import PROBE_PERIOD_S, SpeedProbe  # noqa: E402
from tracer import SELF_TIMES, Tracer  # noqa: E402

GRID_MEET = workloads.layout_from_problem(
    json.loads((ROOT / "fixtures" / "grid_meet.json").read_text()))


def _inputs(workload, seed, work):
    ops = workloads.operations(workload, seed, work, ROOT)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    argvs = [[str(a).replace(str(work), "WORK") for a in (op.argv or ())]
             for op in ops]
    return files, argvs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    assert _inputs(workload, 7, tmp_path / "a") == \
        _inputs(workload, 7, tmp_path / "b")


def test_unsatisfiable_instances_rest_on_the_lower_bound():
    for seed in range(40):
        layout, problem, bound, deadline = workloads.draw_plan(
            random.Random(seed), GRID_MEET, satisfiable=False)
        assert 0 < deadline < bound
        assert problem["global"]["formula"].startswith(f"F[<={deadline}] ")
        # the bound: each area is farther than the deadline for some robot
        for area in layout.areas:
            assert max(workloads.shortest_path(
                layout.rows, layout.cols, layout.weights[k],
                layout.starts[k], area)[0] for k in (0, 1)) >= bound
        # both local specifications stay satisfiable, so emptiness is
        # proven in the global layer
        for k in (0, 1):
            travel, _ = workloads.shortest_path(
                layout.rows, layout.cols, layout.weights[k],
                layout.starts[k], layout.recharge[k])
            assert travel <= layout.recharge_deadlines[k]


def test_satisfiable_draws_come_with_a_witness_that_brute_force_accepts():
    for seed in range(8):
        layout, problem, _, _ = workloads.draw_plan(
            random.Random(seed), GRID_MEET, satisfiable=True)
        assert workloads.formulas_hold(problem,
                                       workloads.meeting_witness(layout)) == []


def _pass(workload, work, traced):
    ops = workloads.operations(workload, 1, work, ROOT, tiny=True)
    tracer = Tracer() if traced else None
    if tracer is None:
        outcomes = [one_pass.run_operation(op) for op in ops]
    else:
        tracer.install()
        try:
            with tracer.root():
                outcomes = [one_pass.run_operation(op) for op in ops]
        finally:
            tracer.remove()
    problems = [one_pass.problems_of(op, o) for op, o in zip(ops, outcomes)]
    verdicts = [(o.code, o.stdout.replace(str(work), "WORK"), o.error)
                for o in outcomes]
    return verdicts, problems, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_agree(workload, tmp_path):
    plain, plain_problems, _ = _pass(workload, tmp_path / "plain", False)
    traced, traced_problems, tracer = _pass(workload, tmp_path / "traced", True)
    assert plain_problems == traced_problems == [[]] * len(plain)
    assert [(code, out) for code, out, _ in plain] == \
        [(code, out) for code, out, _ in traced]
    metrics = tracer.metrics()
    layer_total = sum(metrics[m] for m in SELF_TIMES)
    assert layer_total == pytest.approx(tracer.wall(), abs=1e-6)
    assert one_pass.cross_check(metrics,
                                tmp_path / "traced" / "out" / "plan.json") == []


def test_tracer_puts_every_original_back():
    from mitlplan import cli, product, search, tba
    before = (cli.main, cli.json, search.satisfies, tba.intersect,
              product.GlobalProduct.__dict__.get("successors"))
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.remove()
    after = (cli.main, cli.json, search.satisfies, tba.intersect,
             product.GlobalProduct.__dict__.get("successors"))
    assert after == before


def test_speed_probe_samples_and_puts_the_alarm_back():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        until = time.perf_counter() + 3 * PROBE_PERIOD_S
        while time.perf_counter() < until:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples and all(t > 0 for t in probe.samples)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


def test_the_command_prints_every_metric_of_the_benchmark_file():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(ROOT, "--workload", "plan-sat", "--seed", "3",
                    "--seconds", "0", "--trace", trace, "--tiny")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared[kind]} == {
            name: m["unit"] for name, m in result["metrics"].items()}


def test_the_command_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "plan-sat", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
