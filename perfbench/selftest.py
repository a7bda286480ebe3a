#!/usr/bin/env python3
"""Steadiness self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload: the same seed must give identical task specs and, run
twice, identical per-task outcomes and accuracy margins; another seed must
give different specs.  Exits 1 on the first mismatch.
"""

import argparse
import itertools
import sys

import run


def specs(Workload, lib, seed, n):
    return list(itertools.islice(Workload(lib, seed).specs(), n))


def outcomes(Workload, lib, seed, n):
    phase = run.Phase(Workload(lib, seed), run.Deadline())
    phase.run(lambda done, _: done >= n)
    return phase.outcomes, [round(m, 9) for m in phase.margins]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    import workloads
    lib = run.fresh_import()
    bad = 0
    for name in args.workload or list(workloads.WORKLOADS):
        Workload = workloads.WORKLOADS[name]
        n = Workload.trace_tasks
        same = specs(Workload, lib, args.seed, n) == specs(Workload, lib, args.seed, n)
        other = specs(Workload, lib, args.seed, n) != specs(Workload, lib, args.seed + 1, n)
        first, second = (outcomes(Workload, lib, args.seed, n) for _ in range(2))
        checks = {"same seed, same inputs": same, "other seed, other inputs": other,
                  "same seed, same outcomes": first == second}
        for what, ok in checks.items():
            print(f"{name:14s} {what:26s} {'ok' if ok else 'MISMATCH'}")
            bad += not ok
        if first != second:
            for i, (a, b) in enumerate(zip(first[0], second[0])):
                if a != b:
                    print(f"{'':14s} task {i}: {a!r} then {b!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
