"""Regenerate perfbench/reference.json from the qfock source in ./src.

    python3 perfbench/make_reference.py

The references pin the program's outputs at the commit they were made from:
per-row digests of the `qfock verify --seed S` CSV for every reference seed,
the rows and slopes of the refinement experiments, the three-point moment
polynomials, and the norm estimates of every reference seed.  The Gaussian
and all-ones moments are not stored; the oracles in oracles.py give them.
Regenerate only when an output is meant to change, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from oracles import parse_poly, q_charlier_moment, touchard_riordan
from workloads import (REFERENCE_SEEDS, moments_setup, norms_setup, refine_setup,
                       row_digest, run_pass, verify_setup)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    qf = run.fresh_import()
    ref = {"git_sha": run.git_sha(), "verify": {}, "norms": {}}

    for seed in range(REFERENCE_SEEDS):
        inputs = verify_setup(qf, seed)
        results = run_pass(inputs)
        lines = [line for rows in results.values() for _ok, line in rows]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = qf.cli.cmd_verify(qf.cli.RunConfig(seed=seed))
        if status != 0 or out.getvalue() != "\n".join(
                ["identity,params,exact_zero,residual"] + lines) + "\n":
            raise SystemExit(f"verify seed {seed}: rows differ from `qfock verify`")
        ref["verify"][str(seed)] = {name: [row_digest(line) for _ok, line in rows]
                                    for name, rows in results.items()}
        print(f"verify seed {seed}: {len(lines)} rows", flush=True)

    refine = run_pass(refine_setup(qf, 0))
    ref["refine"] = {label: {"rows": rows, "slope": slope}
                     for label, (rows, slope) in sorted(refine.items())}

    moments = run_pass(moments_setup(qf, 0))
    for (family, n), text in moments.items():
        oracle = {"gaussian": touchard_riordan, "all_ones": q_charlier_moment}.get(family)
        if oracle is not None and parse_poly(text) != oracle(n):
            raise SystemExit(f"moments {family} n={n}: {text} disagrees with the oracle")
    ref["moments"] = {"three_point": {str(n): text for (family, n), text
                                      in sorted(moments.items()) if family == "three_point"}}

    for seed in range(REFERENCE_SEEDS):
        ref["norms"][str(seed)] = run_pass(norms_setup(qf, seed))
        print(f"norms seed {seed}", flush=True)

    (run.BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
