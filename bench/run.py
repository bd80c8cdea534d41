"""The benchmark: runs one workload for a while and prints its metrics.

    python3 bench/run.py --workload plan-sat --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh process (``one_pass.py``), one at a time, so
that its peak memory is its own and nothing else competes for the
machine's cores.  Passes repeat while a typical pass still ends within
``--seconds``, and at least ``MIN_PASSES`` of them run; each reported
value is the median over the passes.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``wall_ref``: one pass, from loading the inputs to writing the outputs,
  in units of the probe work of ``reference.py``, which a timer signal
  runs every 0.2 s in the pass's process.  The machine's speed changes by
  about 15% from second to second and by a fifth and more over minutes;
  the program and the probe change together, so this ratio is what stays
  comparable between runs.  The pass's own seconds (``wall_s``, without
  the probe's share) and the probe's (``probe_s``) are printed on the
  lines before;
- ``setup_s``: from starting a pass's process to the end of its set-up
  (interpreter start, ``import mitlplan``, writing the seeded inputs),
  scaled to the probe's nominal speed: seconds as measured times
  ``PROBE_NOMINAL_S`` over the probe's mean time in that pass.  The
  seconds as measured are printed as ``setup_measured_s``;
- ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the pass.

With ``--trace 1`` traced and untraced passes alternate; the metrics are
the per-layer ones of ``tracer.py`` (medians of the traced passes),
``trace.wall_s`` (the traced pass) and ``trace.overhead_s``, traced minus
untraced ``wall_s``.

Every output is checked (see ``workloads.py``).  The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric with its unit, and the
failure ratio with its base.  The exit code is 1 when an output failed
its check and 2 when the tree holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
# as in workloads.py, which this file does not import: it must run, and
# refuse, in a tree without the program
WORKLOADS = ("plan-sat", "plan-unsat", "translate-conj", "check-long")
REQUIRED = ("src/mitlplan/cli.py", "tests/oracles.py", "fixtures/grid_meet.json")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150

UNITS = {"wall_ref": "ref", "wall_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run_pass(args, index: int, traced: bool, work: Path) -> dict:
    pass_dir = work / f"pass{index}"
    command = [sys.executable, str(BENCH / "one_pass.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--work", str(pass_dir)]
    if traced:
        command += ["--trace", "--spans", str(WORK / f"spans-{args.workload}.csv")]
    if args.tiny:
        command.append("--tiny")
    command += ["--spawned-at", repr(time.monotonic())]
    finished = subprocess.run(command, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, cwd=ROOT)
    shutil.rmtree(pass_dir, ignore_errors=True)
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise RuntimeError(f"pass {index} exited {finished.returncode}: "
                           f"{finished.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_passes(args, work: Path):
    """Untraced passes, or alternating untraced and traced ones.  A new
    pass starts only while a typical pass still ends within ``--seconds``
    (or while fewer than the minimum have run)."""
    plain, traced = [], []
    started = time.monotonic()
    durations = []
    index = 0
    while True:
        enough = (len(plain) >= MIN_PASSES if not args.trace else
                  min(len(plain), len(traced)) >= MIN_TRACED_PASSES)
        if enough and (time.monotonic() - started
                       + statistics.median(durations) > args.seconds):
            return plain, traced
        pass_started = time.monotonic()
        want_trace = bool(args.trace) and len(traced) < len(plain)
        result = run_pass(args, index, want_trace, work)
        durations.append(time.monotonic() - pass_started)
        (traced if want_trace else plain).append(result)
        index += 1


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: no program to measure; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        plain, traced = run_passes(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    for r in everything:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        for finding in r.get("findings", ()):
            print(f"FINDING {finding}", file=sys.stderr)

    if args.trace:
        first = traced[0]["metrics"]
        metrics = {}
        for name in first:
            values = [r["metrics"][name] for r in traced]
            metrics[name] = (statistics.median(values)
                             if unit_of(name) in ("s", "ratio") else values[0])
            if unit_of(name) == "count" and len(set(values)) > 1:
                print(f"FINDING {name} differs between traced passes: {values}",
                      file=sys.stderr)
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - median_of(plain, "wall_s"))
    else:
        metrics = {"wall_ref": median_of(plain, "wall_ref"),
                   "setup_s": median_of(plain, "setup_nominal_s"),
                   "peak_rss_mb": median_of(plain, "peak_rss_mb")}

    for kind, results in (("untraced", plain), ("traced", traced)):
        if results:
            print(f"{kind} passes, wall_s: " + " ".join(
                f"{r['wall_s']:.4f}" for r in results))
    print("untraced passes, probe_s: " + " ".join(
        f"{r['probe_s']:.6f}" for r in plain))
    if not args.trace:
        # seconds as measured, for reading; the gated metrics are wall_ref
        # and setup_s at the probe's nominal speed
        print(f"wall_s {median_of(plain, 'wall_s')} s")
        print(f"probe_s {median_of(plain, 'probe_s')} s")
        print(f"setup_measured_s {median_of(plain, 'setup_s')} s")
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} "
          f"operations in {len(everything)} passes)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
