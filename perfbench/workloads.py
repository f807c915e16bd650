"""The four workloads: inputs from a seed, one pass, and the correctness gate.

Each workload is a fixed task list.  `setup` builds it from the seed with a
freshly imported qfock (`qf`, see run.py) as inputs["tasks"], a list of
(key, function, args); a pass runs every task once (`run_pass`) and `check`
compares the results, keyed by task, with the committed references and
oracles, returning (ops attempted, ops failed, messages).  A task that raises
counts as failed.

Functions of qfock are looked up through their modules at call time, so the
tracer's rebinding sees every call the workload makes.
"""

from __future__ import annotations

import hashlib
import math
import random
import traceback
from fractions import Fraction

from oracles import parse_poly, poly_text, q_charlier_moment, touchard_riordan

# --seed picks one of these many committed reference seeds (seed mod N) for
# verify and norms, so the byte-level and value gates always apply.
REFERENCE_SEEDS = 16

VERIFY_SMOKE_SUITES = ("product_wick", "isometry", "ks", "calculus", "traciality")
REFINE_SCHEDULE = (4, 8, 16, 32)
REFINE_SMOKE_EXPERIMENTS = ("pair_free", "pair_q_half", "split_q_half")
# (family, nmax): orders 1..nmax; models use the cutoff `qfock moments`
# requires for nmax, nmax - 1
MOMENT_FAMILIES = (("gaussian", 8), ("three_point", 7), ("all_ones", 8))
MOMENT_SMOKE_NMAX = 5
NORM_QS = (Fraction(0), Fraction(3, 10), Fraction(7, 10))
NORM_SMOKE_QS = (Fraction(3, 10),)
NORM_DEPTH = 5
NORM_LETTERS = 10

REL_TOL = 1e-9  # float noise allowed against the float references


class Failed:
    """A task that raised; the traceback is kept for the report."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.trace = traceback.format_exc()

    def __str__(self):
        return f"{self.text}\n{self.trace}"


def attempt(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # a failing task is a failed op, the run goes on
        return Failed(exc)


def run_pass(inputs) -> dict:
    return {key: attempt(fn, args) for key, fn, args in inputs["tasks"]}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# verify: the exact Q[q] suites of `qfock verify`


def verify_setup(qf, seed: int, smoke: bool = False):
    """Sub-seeds drawn as `qfock verify --seed S` draws them, S = seed mod N;
    the smoke task list keeps the cheaper suites with their own sub-seeds."""
    ref_seed = seed % REFERENCE_SEEDS
    rng = random.Random(ref_seed)
    subseeds = [(name, rng.randrange(2 ** 32)) for name in qf.cli.SUITES]
    return {"ref_seed": ref_seed,
            "tasks": [(name, _verify_suite, (qf, name, sub)) for name, sub in subseeds
                      if not smoke or name in VERIFY_SMOKE_SUITES]}


def _verify_suite(qf, name: str, subseed: int) -> list[tuple[bool, str]]:
    rows = qf.cli.SUITES[name](random.Random(subseed))
    # (exact zero, the CSV line `qfock verify` prints for the row)
    return [(r.ok, f"{r.identity},{r.params},{'yes' if r.ok else 'no'},\"{r.residual}\"")
            for r in rows]


def verify_check(results: dict, inputs, reference) -> tuple[int, int, list[str]]:
    """An op is one identity row: it fails unless it is an exact zero and its
    CSV line is byte-identical to the reference line."""
    ref = reference["verify"][str(inputs["ref_seed"])]
    attempted = failed = 0
    msgs = []
    for name, rows in results.items():
        want = ref[name]
        if isinstance(rows, Failed):
            attempted += len(want)
            failed += len(want)
            msgs.append(f"verify {name}: {rows}")
            continue
        attempted += max(len(rows), len(want))
        failed += abs(len(rows) - len(want))
        for i, ((ok, line), digest) in enumerate(zip(rows, want)):
            if not ok or row_digest(line) != digest:
                failed += 1
                msgs.append(f"verify {name} row {i}: {line}")
    return attempted, failed, msgs


# ---------------------------------------------------------------------------
# refine: the float refinement experiments of `qfock converge`


def refine_setup(qf, seed: int, smoke: bool = False):
    """The shipped experiments on a prefix of the default schedule; the seed
    only sets their order."""
    experiments = qf.cli.shipped_experiments()
    if smoke:
        experiments = [e for e in experiments if e[0] in REFINE_SMOKE_EXPERIMENTS]
    random.Random(seed).shuffle(experiments)
    return {"tasks": [(label, _refine_one, (qf, pi, factory, REFINE_SCHEDULE, label))
                      for label, pi, factory, _q in experiments]}


def _refine_one(qf, pi, factory, schedule, label):
    table = qf.stochastic.st_pi_convergence(pi, 1, factory, schedule, label)
    return ([(r.n_atoms, r.delta, r.l2_error) for r in table.rows], table.slope())


def refine_check(results: dict, inputs, reference) -> tuple[int, int, list[str]]:
    """An op is one refinement row or one fitted slope; each must match the
    reference within float noise."""
    attempted = failed = 0
    msgs = []
    for label, got in results.items():
        want = reference["refine"][label]
        n_ops = len(want["rows"]) + 1
        attempted += n_ops
        if isinstance(got, Failed):
            failed += n_ops
            msgs.append(f"refine {label}: {got}")
            continue
        rows, slope = got
        if len(rows) != len(want["rows"]):
            failed += n_ops
            msgs.append(f"refine {label}: {len(rows)} rows, want {len(want['rows'])}")
            continue
        for (n, delta, err), (wn, wdelta, werr) in zip(rows, want["rows"]):
            if n != wn or not _close(delta, wdelta) or not _close(err, werr):
                failed += 1
                msgs.append(f"refine {label} N={n}: {delta}, {err} != {wdelta}, {werr}")
        if not _close(slope, want["slope"]):
            failed += 1
            msgs.append(f"refine {label} slope {slope} != {want['slope']}")
    return attempted, failed, msgs


# ---------------------------------------------------------------------------
# moments: vacuum moments of the full-horizon process (`qfock moments`)


def moments_setup(qf, seed: int, smoke: bool = False):
    """Letters of X(1) on the 1-atom Gaussian model, the 2-atom three-point
    model and the all-ones point set; the seed only sets the task order."""
    tasks = []
    for family, nmax in MOMENT_FAMILIES:
        nmax = min(nmax, MOMENT_SMOKE_NMAX) if smoke else nmax
        cutoff = max(nmax - 1, 1)
        if family == "gaussian":
            letter = qf.cli.gaussian_model(n_atoms=1, cutoff=cutoff).prefix_letter(1)
        elif family == "three_point":
            letter = qf.cli.three_point_model(n_atoms=2, cutoff=cutoff).prefix_letter(1)
        else:
            letter = qf.cli.all_ones_pointset().one()
        tasks.extend(((family, n), _moment, (qf, letter, n)) for n in range(1, nmax + 1))
    random.Random(seed).shuffle(tasks)
    return {"tasks": tasks}


def _moment(qf, letter, n: int) -> str:
    return str(qf.wick.vacuum_moment([letter] * n))


def expected_moment(family: str, n: int, reference) -> list:
    if family == "gaussian":
        return touchard_riordan(n)
    if family == "all_ones":
        return q_charlier_moment(n)
    return parse_poly(reference["moments"][family][str(n)])


def moments_check(results: dict, inputs, reference) -> tuple[int, int, list[str]]:
    """An op is one moment order: the printed polynomial must equal the
    oracle (Touchard-Riordan, q-Charlier chain) or the reference."""
    attempted = failed = 0
    msgs = []
    for (family, n), got in results.items():
        attempted += 1
        if isinstance(got, Failed):
            failed += 1
            msgs.append(f"moments {family} n={n}: {got}")
            continue
        want = expected_moment(family, n, reference)
        if parse_poly(got) != want:
            failed += 1
            msgs.append(f"moments {family} n={n}: {got} != {poly_text(want)}")
    return attempted, failed, msgs


# ---------------------------------------------------------------------------
# norms: float operator-norm estimates (the q-gram and numpy path)


def norms_setup(qf, seed: int, smoke: bool = False):
    """Gauge and field operators of seeded letters on the 2-point algebra, as
    in the norm-bound acceptance test, with nonzero values at both points so
    that every seed asks for the same amount of work.  Depth 5, not the
    test's 6, keeps a cold pass short enough to repeat (README.md)."""
    ref_seed = seed % REFERENCE_SEEDS
    tasks, bounds = [], {}
    for q0 in (NORM_SMOKE_QS if smoke else NORM_QS):
        ring = qf.qscalar.ScalarRing(q0)
        alg = qf.model.WeightedPointAlgebra([-1, 1], [Fraction(1, 2), Fraction(1, 2)],
                                            ring, fock_depth=NORM_DEPTH)
        rng = random.Random(f"{ref_seed}:{q0}")
        for i in range(NORM_LETTERS):
            f = alg.letter([Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                            for _ in alg.points])
            sup = float(alg.sup_norm(f))
            for kind, op in (("gauge", qf.fock.FockOperator.gauge(f.gauge())),
                             ("field", f.field())):
                key = f"q={q0},i={i},{kind}"
                tasks.append((key, _norm, (qf, op, alg.space)))
                bounds[key] = norm_bound(kind, float(q0), sup)
    return {"ref_seed": ref_seed, "tasks": tasks, "bounds": bounds}


def _norm(qf, op, space) -> float:
    return qf.fock.operator_norm_estimate(op, space, NORM_DEPTH)


def norm_bound(kind: str, q: float, sup: float) -> float:
    """The bounds of the norm-bound acceptance test."""
    if kind == "gauge":
        return max(1.0, 1.0 / (1.0 - q)) * sup + 1e-9
    return (1.0 + (1.0 - q) ** -0.5) ** 2 * sup + 1e-9


def norms_check(results: dict, inputs, reference) -> tuple[int, int, list[str]]:
    """An op is one norm estimate: within its bound and equal to the
    reference within float noise."""
    ref = reference["norms"][str(inputs["ref_seed"])]
    attempted = failed = 0
    msgs = []
    for key, got in results.items():
        attempted += 1
        if isinstance(got, Failed):
            failed += 1
            msgs.append(f"norms {key}: {got}")
            continue
        if got > inputs["bounds"][key] or not _close(got, ref[key]):
            failed += 1
            msgs.append(f"norms {key}: {got} (reference {ref[key]}, "
                        f"bound {inputs['bounds'][key]})")
    return attempted, failed, msgs


WORKLOADS = {
    "verify": (verify_setup, verify_check),
    "refine": (refine_setup, refine_check),
    "moments": (moments_setup, moments_check),
    "norms": (norms_setup, norms_check),
}
