#!/usr/bin/env python3
"""Record a change against its parent in one BENCH_<n>.json.

    python3 tests/bench_record.py --parent DIR --out BENCH_7.json

Run from anywhere; the change is the checkout holding this file, and DIR is
a checkout of the parent commit (for example made with
`git archive <parent> | tar -x -C DIR`).  Both checkouts are byte-compiled
first, so neither side's import pays for writing `__pycache__`.  The file
records:

- for each workload of BENCHMARK.json, every end-to-end metric of
  `perfbench/run.py --trace 0` for its `run_seconds`, run in PAIRS
  parent/change pairs that alternate which side goes first, one seed per
  pair (7001, 7002, ...), with the median and quartiles of each side; next
  to them the number of tasks `attempted`, so that a `peak_rss_mb` can be
  read against the work done in the run;
- for each workload, the per-layer metrics of one `perfbench/run.py
  --trace 1 --seed 7001` run per side, under `layers`;
- the `elapsed_s` of each acceptance criterion, from REPEATS runs of the
  suite per checkout (alternating which side goes first), with the median;
- the wall time of each `asailab ...` example in README.md's CLI block, run
  as `python -m asailab` in a fresh process, REPEATS times per checkout
  (alternating which side goes first), with the median;
- the Tier-1 wall time (ROADMAP.md) of the change;
- the `src/` line count of both, `nproc` and the Python version.

Nothing else may run on the machine meanwhile.  pytest does not collect
this file (its name has no test_ prefix).
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
PAIRS = 10
REPEATS = 3
ACCEPTANCE = ("import json; from asailab.acceptance import CRITERIA; "
              "print(json.dumps([c()['elapsed_s'] for c in CRITERIA]))")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def _run(root, *args):
    env = {k: v for k, v in os.environ.items() if k != "ASAILAB_PRECISION"}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)


def compile_tree(root):
    proc = _run(root, "-m", "compileall", "-q", "src", "tests", "perfbench")
    proc.check_returncode()


def perfbench(sides, side, workload, seed, seconds, trace):
    """The summary line of one perfbench/run.py run; exits with its stderr,
    the workload, the side and the seed when the run fails."""
    proc = _run(sides[side], "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace))
    if proc.returncode:
        sys.exit(f"perfbench/run.py failed (exit {proc.returncode}): workload {workload}, "
                 f"side {side}, seed {seed}, trace {trace}\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return {"attempted": out["attempted"],
            **{name: m["value"] for name, m in out["metrics"].items()}}


def summary(runs):
    out = {}
    for name in runs[0]:
        xs = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out[name] = {"median": med, "q1": q1, "q3": q3, "runs": xs}
    return out


def alternate(sides, measure):
    """measure(side), REPEATS times per side, alternating which side goes
    first: {side: [result, ...]}."""
    runs = {side: [] for side in sides}
    for i in range(REPEATS):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[side].append(measure(side))
    return runs


def acceptance(root):
    proc = _run(root, "-c", ACCEPTANCE)
    proc.check_returncode()
    return json.loads(proc.stdout.splitlines()[-1])


def acceptance_times(sides):
    """Per side, one {"median_s", "runs_s"} per criterion, in order."""
    runs = alternate(sides, lambda side: acceptance(sides[side]))
    return {side: [{"median_s": statistics.median(rs), "runs_s": list(rs)}
                   for rs in zip(*per_run)]
            for side, per_run in runs.items()}


def readme_commands():
    """The `asailab ...` examples of README.md's CLI block, as argv lists."""
    text = (CHANGE / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("asailab ")]


def cli_times(sides):
    out = []
    for argv in readme_commands():
        def timed(side):
            started = time.perf_counter()
            code = _run(sides[side], "-m", "asailab", *argv).returncode
            return round(time.perf_counter() - started, 3), code
        runs = alternate(sides, timed)
        out.append({"command": shlex.join(["asailab", *argv]),
                    **{side: {"median_s": statistics.median(t for t, _ in rs),
                              "runs_s": [t for t, _ in rs], "exit_code": rs[-1][1]}
                       for side, rs in runs.items()}})
    return out


def src_lines(root):
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    config = json.loads((CHANGE / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    for root in sides.values():
        compile_tree(root)

    runs = {w["name"]: {"parent": [], "change": []} for w in config["workloads"]}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload, per_side in runs.items():
            for side in order:
                per_side[side].append(perfbench(sides, side, workload, 7001 + i, seconds, 0))
    layers = {w: {side: perfbench(sides, side, w, 7001, seconds, 1) for side in sides}
              for w in runs}
    started = time.perf_counter()
    tier1 = _run(CHANGE, *TIER1)
    tier1_s = round(time.perf_counter() - started, 1)
    record = {
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "pairs": PAIRS, "seconds_per_run": seconds,
                        "seeds": [7001 + i for i in range(PAIRS)]},
        "workloads": {w: {side: summary(rs) for side, rs in per_side.items()}
                      for w, per_side in runs.items()},
        "layers": layers,
        "acceptance_elapsed_s": acceptance_times(sides),
        "cli_s": cli_times(sides),
        "tier1": {"wall_s": tier1_s,
                  "exit_code": tier1.returncode,
                  "summary": (tier1.stdout.strip().splitlines() or [""])[-1]},
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
