"""One pass of one workload, in a process of its own.

Writes the workload's inputs from the seed, runs its operations once
(traced, or untraced under the speed probe of ``reference.py``), checks
every output, and prints one JSON line for ``run.py``.  A fresh process
per pass means the peak resident memory it reports belongs to that pass
alone.

    python3 bench/one_pass.py --workload plan-sat --seed 1 --work DIR \\
        --spawned-at MONOTONIC_SECONDS [--trace] [--tiny] [--spans FILE]
"""

from __future__ import annotations

import time

SPAWN_SEEN = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from mitlplan import cli, mitl, tba, wts  # noqa: E402

import workloads  # noqa: E402
from reference import PROBE_NOMINAL_S, SpeedProbe, probe_seconds  # noqa: E402
from workloads import Outcome  # noqa: E402

MODULES = types.SimpleNamespace(cli=cli, mitl=mitl, tba=tba, wts=wts)


def run_operation(op) -> Outcome:
    """Run one operation the way a user would see it: exit code, printed
    output, or the traceback of an exception that escaped."""
    outcome = Outcome()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                outcome.code = cli.main(op.argv)
            else:
                outcome.value = op.call(MODULES)
                outcome.code = 0
    except SystemExit as exc:
        outcome.code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crash
        outcome.error = traceback.format_exc()
    outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
    return outcome


# failures that match a defect listed in ROADMAP.md are named as such
KNOWN_DEFECTS = (
    ("stamped", "projection when the cycle passes through the initial "
                "state (stem length 1)"),
    ("in load_system", "malformed input crashes instead of exiting 3"),
)


def problems_of(op, outcome: Outcome) -> list:
    if outcome.error is not None:
        return [f"exception: {outcome.error.strip().splitlines()[-1]}"]
    if outcome.code != op.expect_code:
        return [f"exit code {outcome.code}, expected {op.expect_code}: "
                f"{outcome.stderr.strip()[-300:]}"]
    try:
        return op.check(outcome)
    except Exception:  # a check that cannot read the output fails it
        return [f"check raised: {traceback.format_exc().strip().splitlines()[-1]}"]


def describe(op, problems, outcome) -> str:
    text = f"{op.label}: " + "; ".join(problems)
    seen = (outcome.stderr or "") + (outcome.error or "")
    for marker, defect in KNOWN_DEFECTS:
        if marker in seen:
            return f"{text} [known defect: {defect}]"
    return text


def cross_check(metrics: dict, plan_path: Path) -> list:
    """The wrapper's counts against the statistics ``plan`` writes."""
    if not plan_path.exists():
        return []
    statistics = json.loads(plan_path.read_text())["statistics"]
    findings = []
    for layer, key in (("global", "globalLayer"), ("team", "teamLayer"),
                       ("local", "localLayers")):
        for count in ("states", "edges"):
            traced = metrics[f"product.{layer}.{count}"]
            written = (sum(entry[count] for entry in statistics[key])
                       if layer == "local" else statistics[key][count])
            if traced != written:
                findings.append(f"product.{layer}.{count}: traced {traced}, "
                                f"plan.json {written}")
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--spawned-at", type=float, default=SPAWN_SEEN)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--spans", type=Path, default=None,
                        help="file for the traced pass's spans")
    args = parser.parse_args(argv)

    ops = workloads.operations(args.workload, args.seed, args.work, ROOT,
                               tiny=args.tiny)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_done = time.monotonic()
    started = time.perf_counter()
    if tracer is not None:
        with tracer.root():
            outcomes = [run_operation(op) for op in ops]
    else:
        with SpeedProbe() as probe:
            outcomes = [run_operation(op) for op in ops]
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_done - args.spawned_at,
              "peak_rss_mb": peak_rss_mb}
    if tracer is None:
        # the program's own time, in seconds and in units of the probe work,
        # and the set-up in seconds at the probe's nominal speed
        result["wall_s"] = wall - sum(probe.samples)
        result["probe_s"] = statistics.mean(probe.samples or [probe_seconds()])
        result["wall_ref"] = result["wall_s"] / result["probe_s"]
        result["setup_nominal_s"] = (result["setup_s"] * PROBE_NOMINAL_S
                                     / result["probe_s"])
    else:
        tracer.remove()
        result["wall_s"] = tracer.wall()
        result["metrics"] = tracer.metrics()
        if args.spans is not None:
            tracer.write_spans(args.spans)
        result["findings"] = cross_check(result["metrics"],
                                         args.work / "out" / "plan.json")

    failures = []
    for op, outcome in zip(ops, outcomes):
        problems = problems_of(op, outcome)
        if problems:
            failures.append(describe(op, problems, outcome))
    result.update(attempted=len(ops), failed=len(failures), failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
