#!/usr/bin/env python3
"""The asailab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: local-factors, lseries,
eisenstein, fields (see workloads.py for what each does and why).  Every
workload is a closed loop with one client: one process, one thread, and the
next task starts when the previous one returns.

--trace 0 runs whole rounds of tasks until S seconds have passed and prints
the end-to-end metrics.  --trace 1 runs a fixed number of tasks untraced
(twice: the first pass warms caches), then the same tasks again with every
traced asailab function wrapped, and prints the per-layer metrics; the
spans go to .perfbench/.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  A task fails when its answer
is wrong, when asailab raises, or when it uses more CPU time than the
workload's deadline.  Times are the CPU time of the one thread, which
leaves out time the host gives to other work, scaled to a reference machine
speed (see probe() below and README.md).
"""

import os

# one thread: pin numerical libraries before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from mpmath.ctx_mp import MPContext  # noqa: E402
from scipy.special import betainc  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
# The speed of a shared machine drifts by tens of percent within a run and
# from one run to the next, over seconds.  Between tasks, at most every
# PROBE_EVERY_S, the loop times a fixed piece of arithmetic (probe()), and
# every task's CPU time is scaled to a machine on which the probe takes
# REF_PROBE_S, by the mean of the probes within PROBE_NEAR of the task;
# deadlines are scaled by the run's mean probe so far.
PROBE_EVERY_S = 0.25
PROBE_NEAR = 3
REF_PROBE_S = 0.010
SUBMODULES = ("cli", "heckealg", "asairep", "characters", "cyclo", "lseries")

END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
              "task_p90_ms": "ms", "success_ratio": "ratio", "peak_rss_mb": "MB",
              "err_margin_log10": "log10"}


class DeadlineExceeded(BaseException):
    """Raised from the CPU-time timer; a BaseException so that no
    ``except Exception`` inside asailab can swallow it."""


class Deadline:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGPROF, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise DeadlineExceeded()

    def call(self, seconds, fn, *args):
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, seconds)
        try:
            return fn(*args)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_PROF, 0)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import():
    """Import asailab from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "asailab" or n.startswith("asailab.")]:
        del sys.modules[name]
    lib = importlib.import_module("asailab")
    for sub in SUBMODULES:
        importlib.import_module(f"asailab.{sub}")
    return lib


def clear_library_caches():
    """Empty every functools cache in asailab so each phase starts cold."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("asailab"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)) and \
                        getattr(obj, "__module__", "").startswith("asailab"):
                    obj.cache_clear()


def environment():
    src = ROOT / "src" / "asailab"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    import mpmath
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "precision_bits": 64, "src_lines": lines, "commit": commit}


_PROBE_MP = MPContext()        # its own precision, whatever asailab sets


def probe():
    """CPU seconds taken by a fixed mix of the arithmetic asailab spends its
    time in: Fractions, big integers and mpmath floats."""
    start = time.thread_time()
    x = Fraction(0)
    for j in range(1500):
        x += Fraction(j, 7)
    a, y = 7 ** 2000, 1
    for j in range(60):
        y = (y * a + j) % (a * a + 1)
    z = _PROBE_MP.mpf(1)
    for j in range(250):
        z = _PROBE_MP.sqrt(z + j) * 1.0001
    return time.thread_time() - start


def hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Tasks come in classes of unlike cost, and one order
    statistic jumps between classes with the noise of a single task."""
    n = len(xs)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), sorted(xs)))


class Phase:
    """One pass of the closed loop over a workload's task stream."""

    def __init__(self, wl, deadline, tracer=None):
        self.wl, self.deadline, self.tracer = wl, deadline, tracer
        self.latency, self.outcomes, self.margins, self.probes = [], [], [], []
        self.windows = []      # per task: index of the last probe before it

    def run(self, stop):
        """Run tasks until stop(tasks_done, at_round_start) is true."""
        self.wl.reset()
        clear_library_caches()
        gc.collect()
        self.probes.append(probe())
        last_probe = time.perf_counter()
        done = 0
        for spec in self.wl.specs():
            if stop(done, spec.get("round_start", False)):
                break
            self.one(done, spec)
            done += 1
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                self.probes.append(probe())
                last_probe = time.perf_counter()

    @property
    def time_scale(self):
        """Time multiplier to the reference machine (below 1 when slower)."""
        return REF_PROBE_S * len(self.probes) / sum(self.probes)

    def one(self, task_id, spec):
        import workloads
        wl, tracer = self.wl, self.tracer
        if tracer:
            tracer.task_id, tracer.active = task_id, True
        self.windows.append(len(self.probes) - 1)
        start = time.thread_time()
        try:
            out = self.deadline.call(wl.deadline_s / self.time_scale, wl.run, spec)
            outcome = None
        except DeadlineExceeded:
            outcome = "deadline"
        except Exception as exc:       # asailab raised: the task failed
            outcome = f"error: {exc!r}"
        finally:
            self.latency.append(time.thread_time() - start)
            if tracer:
                tracer.active = False
        if outcome is None:
            try:
                m = wl.check(spec, out)
                outcome = "ok"
                if m is not None:
                    self.margins.append(m)
            except workloads.TaskError as exc:
                outcome = f"error: {exc}"
            except workloads.Failure as exc:
                outcome = f"wrong: {exc}"
        self.outcomes.append(outcome)

    @property
    def ok(self):
        return sum(o == "ok" for o in self.outcomes)

    @property
    def wrong(self):
        return sum(o.startswith("wrong") for o in self.outcomes)

    def scaled_latency(self):
        """Each task's CPU seconds on the reference machine."""
        out = []
        for lat, w in zip(self.latency, self.windows):
            near = self.probes[max(0, w - PROBE_NEAR): w + PROBE_NEAR + 2]
            out.append(lat * REF_PROBE_S / statistics.mean(near))
        return out

    def rate(self):
        """Correct tasks per reference-machine second of task time."""
        return self.ok / sum(self.scaled_latency())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("ASAILAB_PRECISION", "64") != "64":
        fail("ASAILAB_PRECISION must be unset or 64 (the default working precision)")
    if not (ROOT / "src" / "asailab" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        fail(f"no asailab sources under {ROOT}; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    Workload = workloads.WORKLOADS[args.workload]

    setup = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        scale = REF_PROBE_S / statistics.median([probe() for _ in range(3)])
        start = time.thread_time()
        lib = fresh_import()
        wl = Workload(lib, args.seed)
        setup.append((time.thread_time() - start) * scale)
    if not Path(lib.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"asailab imported from {lib.__file__}, not from this checkout")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment()}
    deadline = Deadline()
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        import spans
        n = wl.trace_tasks
        # the first pass fills caches outside asailab (mpmath's constants),
        # which the untraced and the traced pass then both find full
        Phase(wl, deadline).run(lambda done, _: done >= n)
        plain = Phase(wl, deadline)
        plain.run(lambda done, _: done >= n)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Phase(wl, deadline, tracer)
            traced.run(lambda done, _: done >= n)
        finally:
            tracer.restore()
        tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = plain.rate() / traced.rate() if traced.ok else 0.0
        units = spans.PER_LAYER
        phase = traced
    else:
        phase = Phase(wl, deadline)
        began = time.perf_counter()
        phase.run(lambda done, round_start: round_start and
                  time.perf_counter() - began >= args.seconds)
        lat_ms = sorted(x * 1000 for x in phase.scaled_latency())
        metrics = {
            "setup_s": statistics.median(setup),
            "tasks_per_s": phase.rate(),
            "task_p50_ms": hd_quantile(lat_ms, 0.5),
            "task_p90_ms": hd_quantile(lat_ms, 0.9),
            "success_ratio": phase.ok / len(phase.outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "err_margin_log10": hd_quantile(phase.margins, 0.1)
                                if len(phase.margins) > 1 else 0.0,
        }
        units = END_TO_END
        meta["latency_samples"] = len(lat_ms)

    meta["setup_runs_scaled_s"] = setup
    meta["time_scale"] = phase.time_scale
    meta["outcomes"] = {o: phase.outcomes.count(o) for o in sorted(set(phase.outcomes))}
    (OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "outcomes": phase.outcomes,
                    "latency_s": phase.latency, "metrics": metrics}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": phase.wrong == 0,
        "attempted": len(phase.outcomes),
        "failed": len(phase.outcomes) - phase.ok,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
