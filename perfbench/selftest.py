"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

1. A smoke-size run of every workload, end-to-end and traced, prints every
   metric BENCHMARK.json names with its unit, passes its gate, and reports
   each per-layer metric as nonzero on the workload that drives it.
2. A corrupted reference (one moment coefficient, one verify row digest)
   shows up as exactly one failed op.
3. Without the qfock source next to it, the benchmark exits nonzero and
   prints no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
from oracles import parse_poly
from workloads import (moments_check, moments_setup, run_pass, verify_check,
                       verify_setup)

SMOKE_SECONDS = "1"
# per-layer metric prefix -> workloads on which it must be nonzero
DRIVEN_ON = {
    "qscalar.add.calls": ("verify", "refine", "moments"),
    "qscalar.mul.calls": ("verify", "refine", "moments"),
    "qscalar.max_degree": ("verify", "moments"),
    "qscalar.max_coeff_bits": ("verify", "moments"),
    "fock.pair.": ("refine", "moments"),
    "fock.apply.": ("verify", "refine"),
    "fock.add_term.calls": ("verify", "refine"),
    "fock.apply_Pn.": ("verify", "refine"),
    "fock.inner0.self_s": ("verify", "refine"),
    "fock.innerq.total_s": ("verify", "refine"),
    "fock.operator_norm_estimate.": ("norms",),
    "first_pass.fock.operator_norm_estimate.total_s": ("norms",),
    "first_pass.fock._pn_matrix.total_s": ("norms",),
    "partitions.enumerate_partitions.yielded": ("moments",),
    "partitions.rc.": ("moments",),
    "partitions.index_tuples.yielded": ("refine",),
    "model.letter_pair.": ("moments", "refine"),
    "model.xi.calls": ("moments", "refine"),
    "model.field.calls": ("refine",),
    "wick.wick_operator.calls": ("verify",),
    "wick.wick_operator.hit_ratio": ("verify",),
    "wick.vacuum_moment.total_s": ("moments",),
    "wick.product_expansion.total_s": ("verify",),
    "stochastic.st_pi_discrete.total_s": ("refine",),
    "stochastic.st_pi_closed.total_s": ("refine",),
    "stochastic.l2q_inner.total_s": ("verify",),
    "kspoly.ks_poly.total_s": ("verify",),
    "kspoly.ks_row_formula.total_s": ("verify",),
    "trace.pass_s": ("verify", "refine", "moments", "norms"),
}
SMOKE_SUITES_NONZERO = tuple(f"cli.suite.{s}.total_s" for s in
                             ("product_wick", "isometry", "ks", "calculus", "traciality"))

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def bench_run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke_runs(spec: dict) -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for w in (w["name"] for w in spec["workloads"]):
            proc = bench_run(run.ROOT, "--workload", w, "--seed", "3", "--seconds",
                             SMOKE_SECONDS, "--trace", trace, "--smoke")
            tag = f"{w} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0 ({proc.stderr.strip()[-200:]})")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: gate passes ({result['failed']}/{result['attempted']} failed)")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: every {section} metric with its unit")
            if trace == "1":
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0
                        and (k in SMOKE_SUITES_NONZERO and w == "verify"
                             or any(k.startswith(p) and w in ws for p, ws in DRIVEN_ON.items()))]
                expect(not zero, f"{tag}: driven metrics nonzero {zero}")


def corrupted_references() -> None:
    sys.path.insert(0, str(run.SRC))
    qf = run.fresh_import()
    reference = json.loads((run.BENCH / "reference.json").read_text())

    inputs = moments_setup(qf, 3, smoke=True)
    results = run_pass(inputs)
    expect(moments_check(results, inputs, reference)[1] == 0, "moments: clean reference passes")
    bad = copy.deepcopy(reference)
    coeffs = parse_poly(bad["moments"]["three_point"]["4"])
    coeffs[0] += Fraction(1, 2)
    bad["moments"]["three_point"]["4"] = " + ".join(f"{c}*q^{i}" for i, c in enumerate(coeffs))
    expect(moments_check(results, inputs, bad)[1] == 1, "moments: one corrupted coefficient fails one op")

    inputs = verify_setup(qf, 3, smoke=True)
    results = run_pass(inputs)
    expect(verify_check(results, inputs, reference)[1] == 0, "verify: clean reference passes")
    bad = copy.deepcopy(reference)
    digests = bad["verify"][str(inputs["ref_seed"])]["isometry"]
    digests[2] = "0" * len(digests[2])
    expect(verify_check(results, inputs, bad)[1] == 1, "verify: one corrupted digest fails one op")


def bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench_run(bare, "--workload", "verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    printed = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(l.startswith("{") for l in printed),
           f"bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    corrupted_references()
    bare_directory()
    smoke_runs(spec)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
