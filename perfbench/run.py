"""qfock benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; qfock is imported from ./src and
nowhere else.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it repeat the
metrics with their sample counts, the error rate and the run environment.
A record of the run (and, when traced, its spans) is written under
perfbench/out/.

--trace 0 reports the end-to-end metrics, times in calibrated seconds
(see run_timed and README.md):
  setup_s       median of SETUP_SAMPLES fresh imports of qfock plus input builds
  first_pass_s  median first pass after a fresh import (empty caches), over
                COLD_CYCLES imports or as many as start within COLD_SHARE of
                --seconds
  pass_s        median warm pass over --seconds (at least MIN_WARM passes)
  peak_rss_mb   ru_maxrss after the cold cycles and MIN_WARM warm passes
--trace 1 reports per-layer metrics of traced warm passes (medians per pass),
the tracing overhead, and two costs of the traced first pass.
"""

from __future__ import annotations

import os

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from tracing import Tracer, metric_units  # noqa: E402  (BENCH is sys.path[0])
from workloads import WORKLOADS, attempt  # noqa: E402

MODULES = ("qscalar", "partitions", "fock", "model", "wick", "stochastic",
           "kspoly", "cli")
SETUP_SAMPLES = 5
COLD_CYCLES = 5
COLD_SHARE = 2 / 3  # cold cycles start only within this share of --seconds
MIN_WARM = 3
# timings are reported in calibrated seconds: wall seconds scaled by
# CAL_REF_S over the time of calibrate() measured around them (README.md);
# CAL_REF_S is about its uncontended time on a 2.1 GHz Xeon
CAL_REF_S = 0.012
CAL_CHUNK_S = 0.1
CAL_SIZE = 30_000
_CAL_VALUES = [Fraction(i % 101 - 50, i % 37 + 1) for i in range(CAL_SIZE)]
_CAL_TABLE = {(i, i % 7): v for i, v in enumerate(_CAL_VALUES)}
END_TO_END_UNITS = {"pass_s": "s", "first_pass_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
FIRST_PASS_LAYER = ("fock.operator_norm_estimate.total_s", "fock._pn_matrix.total_s")


class SetupError(Exception):
    pass


def fresh_import() -> SimpleNamespace:
    """Drop every qfock module and import the package again from ./src, so
    module-level caches start empty, as in a new process."""
    for name in [m for m in sys.modules if m == "qfock" or m.startswith("qfock.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qfock")
    if Path(pkg.__file__).resolve().parent != (SRC / "qfock").resolve():
        raise SetupError(f"qfock imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"qfock.{m}") for m in MODULES}
    return SimpleNamespace(modules=[pkg, *mods.values()], **mods)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    np.ones((64, 64)) @ np.ones((64, 64))  # start BLAS so its threads exist
    task_dir = Path("/proc/self/task")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads_env": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, checked: tuple[int, int, list[str]]) -> None:
        attempted, failed, msgs = checked
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(msgs)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: Fraction arithmetic on values
    looked up at scattered places in a table of several MB, so that it slows
    down with the cache and memory contention that slows qfock."""
    t0 = time.perf_counter()
    total, i = Fraction(0), 1
    for _ in range(3000):
        i = (i * 7919 + 13) % CAL_SIZE
        total += _CAL_TABLE[(i, i % 7)] * _CAL_VALUES[(i * 31) % CAL_SIZE]
    return time.perf_counter() - t0


def run_timed(tasks) -> tuple[dict, float, float]:
    """Run the tasks once; return the results, the wall time spent in them,
    and that time in calibrated seconds.  Tasks run in chunks of at least
    CAL_CHUNK_S; each chunk is scaled by CAL_REF_S over the mean of the
    calibrate() times taken just before and just after it."""
    results = {}
    wall = cal_s = chunk = 0.0
    before = calibrate()
    for i, (key, fn, args) in enumerate(tasks):
        t0 = time.perf_counter()
        results[key] = attempt(fn, args)
        chunk += time.perf_counter() - t0
        if chunk >= CAL_CHUNK_S or i == len(tasks) - 1:
            after = calibrate()
            wall += chunk
            cal_s += chunk * 2 * CAL_REF_S / (before + after)
            chunk, before = 0.0, after
    return results, wall, cal_s


def timed_setup(setup, seed, smoke):
    before = calibrate()
    t0 = time.perf_counter()
    qf = fresh_import()
    inputs = setup(qf, seed, smoke)
    wall = time.perf_counter() - t0
    return qf, inputs, wall, wall * 2 * CAL_REF_S / (before + calibrate())


def timed_pass(check, inputs, reference, tally: Tally) -> tuple[float, float]:
    gc.collect()
    results, wall, cal_s = run_timed(inputs["tasks"])
    tally.add(check(results, inputs, reference))
    return wall, cal_s


def passes_for(seconds: float, minimum: int, one_pass) -> list[tuple[float, float]]:
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < minimum or time.perf_counter() < deadline:
        samples.append(one_pass(len(samples)))
    return samples


def medians(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """(median wall seconds, median calibrated seconds)."""
    return (statistics.median(w for w, _ in samples),
            statistics.median(c for _, c in samples))


def measure_end_to_end(workload, seed, seconds, smoke, reference, tally):
    setup, check = WORKLOADS[workload]
    setups, firsts = [], []
    for _ in range(2 if smoke else SETUP_SAMPLES):
        setups.append(timed_setup(setup, seed, smoke)[2:])
    deadline = time.perf_counter() + seconds * COLD_SHARE
    while not firsts or (len(firsts) < COLD_CYCLES and time.perf_counter() < deadline):
        qf, inputs, *_ = timed_setup(setup, seed, smoke)
        firsts.append(timed_pass(check, inputs, reference, tally))
    rss = []

    def warm(i: int) -> tuple[float, float]:
        sample = timed_pass(check, inputs, reference, tally)
        if i + 1 == MIN_WARM:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return sample

    warms = passes_for(seconds, MIN_WARM, warm)
    metrics, wall = {"peak_rss_mb": rss[0]}, {}
    for name, samples in (("pass_s", warms), ("first_pass_s", firsts), ("setup_s", setups)):
        wall[name], metrics[name] = medians(samples)
    samples = {"pass_s": warms, "first_pass_s": firsts, "setup_s": setups}
    return metrics, END_TO_END_UNITS, samples, wall, None


def measure_traced(workload, seed, seconds, smoke, reference, tally):
    setup, check = WORKLOADS[workload]
    qf = fresh_import()
    inputs = setup(qf, seed, smoke)
    tracer = Tracer()

    tracer.install(qf)
    tracer.begin_pass(0)
    first_traced = timed_pass(check, inputs, reference, tally)
    first = tracer.end_pass(qf)
    tracer.uninstall()

    untraced = passes_for(seconds / 2, 2, lambda i: timed_pass(
        check, inputs, reference, tally))
    tracer.install(qf)
    per_pass = []

    def traced(i: int) -> tuple[float, float]:
        tracer.begin_pass(i + 1)
        sample = timed_pass(check, inputs, reference, tally)
        per_pass.append(tracer.end_pass(qf))
        return sample

    traced_samples = passes_for(seconds / 2, 2, traced)
    tracer.uninstall()

    units = metric_units(qf)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in units}
    for k in FIRST_PASS_LAYER:
        metrics[f"first_pass.{k}"] = first[k]
        units[f"first_pass.{k}"] = "s"
    wall = {}
    wall["trace.pass_s"], metrics["trace.pass_s"] = medians(traced_samples)
    wall["trace.untraced_pass_s"], metrics["trace.untraced_pass_s"] = medians(untraced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    units.update({"trace.pass_s": "s", "trace.untraced_pass_s": "s", "trace.overhead_s": "s"})
    samples = {"trace.pass_s": traced_samples, "trace.untraced_pass_s": untraced,
               "trace.first_pass_s": [first_traced]}
    return metrics, units, samples, wall, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken task lists, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qfock" / "__init__.py").is_file():
        print(f"error: no qfock source at {SRC / 'qfock'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text())
    env = environment()

    tally = Tally()
    measure = measure_traced if args.trace else measure_end_to_end
    try:
        metrics, units, samples, wall, tracer = measure(
            args.workload, args.seed, args.seconds, args.smoke, reference, tally)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{tag}.jsonl")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "metrics": metrics, "units": units, "wall_medians": wall,
        "samples_wall_and_calibrated": samples,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": error_rate, "failures": tally.messages[:50]}, indent=1))

    print(f"# environment {json.dumps(env)}")
    for msg in tally.messages[:20]:
        print(f"# FAILED {msg.splitlines()[0]}")
    for name, values in samples.items():
        print(f"# samples {name} n={len(values)} wall/calibrated "
              f"{[(round(w, 4), round(c, 4)) for w, c in values]}")
    for name in sorted(metrics):
        extra = f" (wall median {wall[name]} s)" if name in wall else ""
        print(f"# {name} = {metrics[name]} {units[name]}{extra}")
    print(f"# error_rate = {error_rate} ({tally.failed}/{tally.attempted} ops failed)")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
