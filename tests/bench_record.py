#!/usr/bin/env python3
"""Record a change against its parent in one BENCH_<n>.json.

    python3 tests/bench_record.py --parent DIR --out BENCH_7.json

Run from anywhere; the change is the checkout holding this file, and DIR is
a checkout of the parent commit (for example made with
`git archive <parent> | tar -x -C DIR`).  Both checkouts are byte-compiled
first, so neither side's import pays for writing `__pycache__`; a `.py` file
under src/, perfbench/ or tests/ of either side that changes after that would
run from source, so the script then exits non-zero and writes no record.  The
file records:

- for each workload of BENCHMARK.json, every end-to-end metric of
  `perfbench/run.py --trace 0` for its `run_seconds`, run in PAIRS
  parent/change pairs that alternate which side goes first, one seed per
  pair (7001, 7002, ...), with the median and quartiles of each side; next
  to them the number of tasks `attempted`, so that a `peak_rss_mb` can be
  read against the work done in the run;
- for each workload, the per-layer metrics of LAYER_REPEATS `perfbench/run.py
  --trace 1 --seed 7001` runs per side (alternating which side goes first),
  with the median and quartiles of each, under `layers`: one traced run is
  too noisy for a claim about a layer, and a layer's change can be read only
  where it is well beyond that layer's `iqr_over_median` on the parent side;
- every median also has `iqr_over_median`, (q3 - q1) / median (null at a
  median of 0);
- the `elapsed_s` of each acceptance criterion, from REPEATS runs of the
  suite per checkout (alternating which side goes first), with the median
  and quartiles, and under `acceptance_process_s` the wall and the CPU
  seconds of each of those processes and their `probe_s`;
- `probe_s` is the summed time of a fixed small-int Fraction and dict
  computation (PROBE) that each acceptance process runs before each criterion: it moves
  with the machine's contention over the whole suite but not with the
  change, so each criterion also has `probe_scaled`, the quartiles of its
  `elapsed_s / probe_s` over the runs;
- the wall time of each `asailab ...` example in README.md's CLI block, run
  as `python -m asailab` in a fresh process, REPEATS times per checkout
  (alternating which side goes first), with the median and quartiles, and
  the CPU seconds of each run next to its wall seconds;
- a process's CPU seconds are the user and system time that
  `resource.getrusage(RUSAGE_CHILDREN)` adds over the run: a wall time that
  moves while the CPU time does not was time the machine gave to other work;
- the Tier-1 wall time (ROADMAP.md) of the change;
- the `src/` line count of both, their count of public names
  (`src_public_names`: the module-level names and methods of src/asailab with
  no part starting with '_', as tests/test_callers.py counts them), their
  count of optional parameters (`src_optional_parameters`: the defaulted
  parameters of public defs in src/asailab, as tests/test_callers.py lists
  them) and their count of CLI options (`cli_options`: the options of
  `build_parser()` at the top level and in every command, `--help` aside);
- `nproc` and the Python version.

Nothing else may run on the machine meanwhile.  pytest does not collect
this file (its name has no test_ prefix).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

from test_callers import optional_parameters, public_names

CHANGE = Path(__file__).resolve().parent.parent
PAIRS = 10
LAYER_REPEATS = 9  # three runs per side could not resolve a 30% move in a layer
REPEATS = 11  # one slow run of three moved a median by a third, and seven did not
# resolve a per-criterion move (BENCH_32: two slow processes of seven set the quartiles)
PROBE = ("d = {}; [d.__setitem__(n % 61, d.get(n % 61, 0) + Fraction(n % 13 - 6, n % 11 + 1))"
         " for n in range(1, 12000)]")
# the probe runs before each criterion and probe_s is their sum: one probe of
# 0.03 s in front of the suite spread wider than criteria 5 and 9 (BENCH_30),
# and so did thousand-digit Fraction sums and math.factorial(30000) before each
# criterion (BENCH_31); the criteria add and multiply small Fractions and
# update dicts, and so does this probe, about 0.025 s a run on 2 cores
ACCEPTANCE = ("import json, time; from fractions import Fraction; "
              "from asailab.acceptance import CRITERIA\n"
              f"def probe():\n t = time.perf_counter(); {PROBE}; return time.perf_counter() - t\n"
              "runs = [(probe(), c()['elapsed_s']) for c in CRITERIA]\n"
              "print(json.dumps([sum(p for p, _ in runs), [e for _, e in runs]]))")
CLI_OPTIONS = ("import argparse; from asailab.cli import build_parser; p = build_parser(); "
               "(sub,) = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]; "
               "print(sum(bool(a.option_strings) and a.dest != 'help' "
               "for q in (p, *sub.choices.values()) for a in q._actions))")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def _run(root, *args):
    env = {k: v for k, v in os.environ.items() if k != "ASAILAB_PRECISION"}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)


def _timed(root, *args):
    """(completed process, wall seconds, CPU seconds) of one `_run`."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    proc = _run(root, *args)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return proc, round(wall, 3), round(cpu, 3)


def compile_tree(root):
    proc = _run(root, "-m", "compileall", "-q", "src", "tests", "perfbench")
    proc.check_returncode()


def sources(root):
    """{path: sha256} of every .py file that the compiled tree covers."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for d in ("src", "perfbench", "tests") for p in sorted((root / d).rglob("*.py"))}


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


def quartiles(xs, median="median"):
    """The median (under the key `median`), q1, q3 and iqr_over_median of xs."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {median: med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def summary(runs):
    return {name: {**quartiles(xs := [r[name] for r in runs]), "runs": xs} for name in runs[0]}


def alternate(sides, measure, repeats=REPEATS):
    """measure(side), `repeats` times per side, alternating which side goes
    first: {side: [result, ...]}."""
    runs = {side: [] for side in sides}
    for i in range(repeats):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[side].append(measure(side))
    return runs


def acceptance(root):
    """(elapsed_s of each criterion, probe seconds, wall seconds, CPU seconds)
    of one run."""
    proc, wall, cpu = _timed(root, "-c", ACCEPTANCE)
    proc.check_returncode()
    probe, elapsed = json.loads(proc.stdout.splitlines()[-1])
    return elapsed, round(probe, 4), wall, cpu


def acceptance_times(sides):
    """(per side, one {"median_s", "q1", "q3", "iqr_over_median", "runs_s",
    "probe_scaled"} per criterion, in order; per side, the same of the
    processes' probe, wall and CPU seconds)."""
    runs = alternate(sides, lambda side: acceptance(sides[side]))
    criteria = {side: [{**quartiles(rs, "median_s"), "runs_s": list(rs),
                        "probe_scaled": quartiles([e / run[1] for e, run in zip(rs, per_run)])}
                       for rs in zip(*(run[0] for run in per_run))]
                for side, per_run in runs.items()}
    process = {side: {name: {**quartiles(xs, "median_s"), "runs_s": list(xs)}
                      for name, xs in zip(("probe_s", "wall_s", "cpu_s"),
                                          list(zip(*per_run))[1:])}
               for side, per_run in runs.items()}
    return criteria, process


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
            proc, wall, cpu = _timed(sides[side], "-m", "asailab", *argv)
            return wall, cpu, proc.returncode
        runs = alternate(sides, timed)
        out.append({"command": shlex.join(["asailab", *argv]),
                    **{side: {**quartiles([t for t, _, _ in rs], "median_s"),
                              "runs_s": [t for t, _, _ in rs],
                              "cpu_median_s": statistics.median(c for _, c, _ in rs),
                              "runs_cpu_s": [c for _, c, _ in rs], "exit_code": rs[-1][2]}
                       for side, rs in runs.items()}})
    return out


def src_lines(root):
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def cli_options(root):
    proc = _run(root, "-c", CLI_OPTIONS)
    proc.check_returncode()
    return int(proc.stdout)


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
    compiled = {side: sources(root) for side, root in sides.items()}

    runs = {w["name"]: {"parent": [], "change": []} for w in config["workloads"]}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload, per_side in runs.items():
            for side in order:
                per_side[side].append(perfbench(sides, side, workload, 7001 + i, seconds, 0))
    layers = {w: {side: summary(rs) for side, rs in alternate(
                      sides, lambda side: perfbench(sides, side, w, 7001, seconds, 1),
                      LAYER_REPEATS).items()}
              for w in runs}
    tier1, tier1_s, _ = _timed(CHANGE, *TIER1)
    acceptance_elapsed_s, acceptance_process_s = acceptance_times(sides)
    record = {
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "pairs": PAIRS, "repeats": REPEATS, "layer_repeats": LAYER_REPEATS,
                        "seconds_per_run": seconds,
                        "seeds": [7001 + i for i in range(PAIRS)]},
        "workloads": {w: {side: summary(rs) for side, rs in per_side.items()}
                      for w, per_side in runs.items()},
        "layers": layers,
        "acceptance_elapsed_s": acceptance_elapsed_s,
        "acceptance_process_s": acceptance_process_s,
        "cli_s": cli_times(sides),
        "tier1": {"wall_s": round(tier1_s, 1),
                  "exit_code": tier1.returncode,
                  "summary": (tier1.stdout.strip().splitlines() or [""])[-1]},
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
        "src_public_names": {side: len(public_names(root / "src" / "asailab"))
                             for side, root in sides.items()},
        "src_optional_parameters": {side: len(optional_parameters(root / "src" / "asailab"))
                                    for side, root in sides.items()},
        "cli_options": {side: cli_options(root) for side, root in sides.items()},
    }
    now = {side: sources(root) for side, root in sides.items()}
    changed = [f"{side}: {path}" for side in sides
               for path in sorted(compiled[side].keys() | now[side].keys())
               if compiled[side].get(path) != now[side].get(path)]
    if changed:
        sys.exit("sources changed after byte-compiling, no record written:\n" + "\n".join(changed))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
