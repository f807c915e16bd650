"""The `qfock` command line: verify, converge and moments.

One key table serves config files and flags.  Exit status is 0 iff every
exact residual is the zero polynomial; usage and budget problems exit 2
before any work starts.  Reports are plain CSV on stdout, mirrored into
--out when given.  A model file names the process only; q, the point
moments are read at, is a run key like nmax.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import QFockError, UsageError, check_size
from .model import MomentSequence, ProcessModel, TimeGrid, WeightedPointAlgebra
from .qscalar import EXACT, ScalarRing
from .stochastic import st_pi_convergence
from .suites import DEFAULT_SCHEDULE, SUITES, shipped_experiments
# perfbench reads these models through cli until the trace table moves into
# src (ROADMAP item 22)
from .suites import all_ones_pointset, gaussian_model, three_point_model
from .wick import suffix_moments


# ---------------------------------------------------------------------------
# configuration: one key table for config files and flags

# a grid model keeps at most cutoff basis vectors per atom, so the largest
# these admit has 256 x 32 = 8,192; it builds in 0.35 s on a 2-vCPU Xeon.
# Its product table grows with nu instead: at cutoff 32, moments --nmax 4
# takes 0.4 s on nu = sum (p^2/32) delta_p, p = 1..32, and 40 s, the worst
# case measured, on 256 atoms (k/7, (k mod 5 + 1)/(k mod 3 + 2)), whose
# table ints reach 79,000 bits
MAX_DEGREE_CUTOFF = 32
MAX_GRID_ATOMS = 256
# moments to order 40, the Gaussian target; a point set has no letter cutoff
# to bound it, and on the one-point set the table to order 64 takes about
# 0.6 s in process on a 2-vCPU Xeon
MAX_NMAX = 40
# Fraction("1e10000000") builds 10^10000000 and takes seconds; 10^1000 is
# no larger than a 1000-digit literal, which int() admits anyway
MAX_DECIMAL_EXPONENT = 1000
# list lengths, counted by their commas before any rational is built: a
# model needs r_1..r_(2 cutoff), and a point set's letters hold a value per
# point (on a 2-vCPU Xeon, moments to --nmax 18, near the arc-state budget,
# take 0.5 s in process on 256 points and 1.3 s on 2,000)
MAX_MOMENTS = 2 * MAX_DEGREE_CUTOFF
MAX_NU_ATOMS = 256
MAX_POINTS = 256


def _rational(text: str) -> Fraction:
    """A config rational, its decimal exponent checked before Fraction
    builds the power of ten."""
    _, e, exponent = text.lower().partition("e")
    if e:
        check_size("decimal exponent", abs(int(exponent)), MAX_DECIMAL_EXPONENT)
    return Fraction(text)


def _fraction_list(text: str, what: str, limit: int) -> list[Fraction]:
    """A list of rationals, at most limit of them, counted by their commas
    before any is built."""
    body = text.strip().lstrip("[").rstrip("]").strip()
    if not body:
        return []
    check_size(what, body.count(",") + 1, limit)
    return [_rational(tok.strip()) for tok in body.split(",")]


def _pair_list(text: str) -> list[tuple[Fraction, Fraction]]:
    """`[(x, w), ...]`, at most MAX_NU_ATOMS pairs, counted by their commas
    before any rational is built; any other text is a ValueError."""
    body = text.strip()
    if body[:1] != "[" or body[-1:] != "]":
        raise ValueError("not a [...] list")
    body = body[1:-1]
    tokens = body.split(",") if body.strip() else []
    if len(tokens) % 2:
        raise ValueError("not a list of (x, w) pairs")
    check_size("nu.atoms", len(tokens) // 2, MAX_NU_ATOMS)
    out = []
    for x, w in zip(tokens[::2], tokens[1::2]):
        x, w = x.strip(), w.strip()
        if (x[:1] != "(" or w[-1:] != ")" or "(" in x[1:] + w
                or ")" in x + w[:-1]):
            raise ValueError(f"not an (x, w) pair: {x}, {w}")
        out.append((_rational(x[1:]), _rational(w[:-1])))
    return out


def _grid(text: str) -> TimeGrid:
    """uniform(T, N), or an explicit boundary list, whose commas count its
    atoms; the atom count is checked before any boundary is built."""
    if text.startswith("uniform"):
        body = text[len("uniform"):].strip().lstrip("(").rstrip(")")
        t_s, n_s = body.split(",")
        n = int(n_s.strip())
        check_size("grid atoms", n, MAX_GRID_ATOMS, least=1)
        return TimeGrid.uniform(_rational(t_s.strip()), n)
    check_size("grid atoms", text.count(","), MAX_GRID_ATOMS, least=1)
    return TimeGrid(_fraction_list(text, "grid boundaries", MAX_GRID_ATOMS + 1))


def _count(text: str, what: str, limit: int) -> int:
    n = int(text)
    check_size(what, n, limit, least=1)
    return n


def _q(text: str) -> Fraction | None:
    """A q value: None for exact, or a rational q0 in (-1, 1) to evaluate
    at, checked as a ScalarRing checks it: a q0 outside is a bad value."""
    q0 = None if text == "exact" else _rational(text)
    try:
        return ScalarRing(q0).q0
    except UsageError as exc:
        raise UsageError(f"bad config value q = {text!r}: {exc}") from exc


def _suites(text: str) -> tuple[str, ...]:
    suites = tuple(s.strip() for s in text.split(",") if s.strip())
    if not suites:
        raise UsageError(f"empty suite list {text!r} "
                         f"(available: {', '.join(SUITES)})")
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise UsageError(f"unknown suites: {sorted(unknown)} "
                         f"(available: {', '.join(SUITES)})")
    return suites


class Key(NamedTuple):
    """A config key: the converter of its text, the one command that reads
    it, and its flag if it has one, with the key's text for the flag's value
    and the flag's help.  A command's parser has --out, --model if it reads
    any key, and its keys' flags, and refuses any other flag, since verify
    runs fixed models and converge fixed experiments."""
    convert: Callable[[str], object]
    command: str
    flag: str | None = None
    template: str = "{}"
    help: str | None = None


# every config key, in checking order
KEYS: dict[str, Key] = {
    "q": Key(_q, "moments", "q", help="rational q0 to evaluate at, or 'exact'"),
    "degree_cutoff": Key(partial(_count, what="degree_cutoff",
                                 limit=MAX_DEGREE_CUTOFF),
                         "moments", "cutoff", help="letter degree cutoff"),
    "grid": Key(_grid, "moments", "grid", "uniform(1, {})",
                "uniform grid size over [0,1)"),
    "moments": Key(partial(_fraction_list, what="moments", limit=MAX_MOMENTS),
                   "moments"),
    "nu.atoms": Key(_pair_list, "moments"),
    "pointset.points": Key(partial(_fraction_list, what="pointset.points",
                                   limit=MAX_POINTS), "moments"),
    "pointset.weights": Key(partial(_fraction_list, what="pointset.weights",
                                    limit=MAX_POINTS), "moments"),
    "suite": Key(_suites, "verify", "suite", help="comma-separated suite names"),
    "seed": Key(int, "verify", "seed", help="random seed"),
    "nmax": Key(partial(_count, what="nmax", limit=MAX_NMAX), "moments", "nmax",
                help="maximum product/moment length"),
}


def parse_config(text: str, overrides: dict[str, str] | None = None) -> dict:
    """The "key = value" lines of a config file (`#` starts a comment), each
    override replacing its key, converted through KEYS.  A key outside KEYS,
    a key given twice in the file, or a malformed value is a usage error
    naming the key."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise UsageError(f"malformed config line: {raw!r}")
            if key not in KEYS:
                raise UsageError(f"unknown config key {key!r} "
                                 f"(known: {', '.join(KEYS)})")
            if key in entries:
                raise UsageError(f"config key {key} given twice")
            entries[key] = value.strip()
    entries.update(overrides or {})
    values = {}
    for key, spec in KEYS.items():
        if key in entries:
            try:
                values[key] = spec.convert(entries[key])
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(
                    f"bad config value {key} = {entries[key]!r}") from exc
    return values


def build_model(values: dict) -> ProcessModel | WeightedPointAlgebra:
    """The process that converted model keys (see parse_config) name, as an
    exact algebra at the default Fock depth; q is a run key.

    pointset.points selects the weighted point set, with pointset.weights.
    Otherwise the grid model: grid and degree_cutoff, and nu.atoms or
    moments; when both are given they are validated against each other, and
    the model checks that the moments are a measure's.
    """
    if "pointset.points" in values:
        return WeightedPointAlgebra(values["pointset.points"],
                                    values.get("pointset.weights", []), EXACT)
    missing = {"grid", "degree_cutoff"} - set(values)
    if missing:
        raise UsageError(f"config missing keys: {sorted(missing)}")
    degree_cutoff = values["degree_cutoff"]

    moments = None
    if "moments" in values:
        moments = MomentSequence(values["moments"])
    if "nu.atoms" in values:
        derived = MomentSequence.from_measure(
            values["nu.atoms"], moments.K if moments else 2 * degree_cutoff + 2)
        if moments is not None and moments.r != derived.r:
            raise UsageError("moments and nu.atoms disagree")
        moments = derived
    elif moments is None:
        raise UsageError("config needs nu.atoms or moments")

    return ProcessModel(EXACT, moments, values["grid"], degree_cutoff)


DEFAULT_MODEL_TEXT = """\
nu.atoms = [(-1, 1/4), (0, 1/2), (1, 1/4)]
grid = uniform(1, 2)
degree_cutoff = 3
"""


@dataclass
class RunConfig:
    # the converted model keys (see parse_config), which only cmd_moments
    # builds into an algebra; the run keys are the fields of their names,
    # q among them: the point moments are read at, None for exact
    model: dict = field(default_factory=dict)
    out_dir: Path | None = None
    suite: tuple[str, ...] = tuple(SUITES)
    seed: int = 0
    nmax: int = 4
    q: Fraction | None = None


def build_config(args: argparse.Namespace) -> RunConfig:
    text = DEFAULT_MODEL_TEXT if args.command == "moments" else ""
    # a command's parser registers only the flags that command reads
    if getattr(args, "model", None):
        try:
            text = Path(args.model).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read model file: {exc}") from exc
    # flags win over file keys
    flags = {key: spec for key, spec in KEYS.items()
             if spec.flag and getattr(args, spec.flag, None) is not None}
    values = parse_config(text, {key: spec.template.format(getattr(args, spec.flag))
                                 for key, spec in flags.items()})
    # a flag sets only a key its command reads, so these are file keys
    reads = [key for key, spec in KEYS.items() if spec.command == args.command]
    unread = [key for key in values if key not in reads]
    if unread:
        raise UsageError(f"{args.command} does not read config keys "
                         f"{', '.join(unread)} (it reads {', '.join(reads)})")

    if "pointset.points" in values:
        # a point set has no grid, letter cutoff or canonical measure
        for key in ("grid", "degree_cutoff", "nu.atoms", "moments"):
            if key in values:
                source = f"--{flags[key].flag}" if key in flags else f"model key {key}"
                raise UsageError(f"{source} does not apply to a point-set model")
    elif "pointset.weights" in values:
        raise UsageError("model key pointset.weights needs pointset.points")
    run = {f.name: values.pop(f.name) for f in fields(RunConfig) if f.name in values}
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        # before any work, so an unusable --out costs none
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory: {exc}") from exc
    return RunConfig(values, out_dir, **run)


def _emit(lines: list[str], out_dir: Path | None, name: str) -> None:
    """The report on stdout, and into out_dir when given; the file is
    written first, so a report that cannot be written is not printed."""
    text = "\n".join(lines) + "\n"
    if out_dir is not None:
        try:
            (out_dir / name).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from exc
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(config: RunConfig) -> int:
    rng = random.Random(config.seed)
    lines = ["identity,params,exact_zero,residual"]
    failed = []
    for name in config.suite:
        for row in SUITES[name](random.Random(rng.randrange(2 ** 32))):
            lines.append(f"{row.identity},{row.params},"
                         f"{'yes' if row.ok else 'no'},\"{row.residual}\"")
            if not row.ok:
                failed.append(row.identity)
    if failed:
        lines.append(f"# FAILED: {','.join(sorted(set(failed)))}")
    _emit(lines, config.out_dir, "verify.csv")
    return 1 if failed else 0


def cmd_converge(config: RunConfig) -> int:
    lines = ["experiment,N,delta,l2_error"]
    slopes = []
    for label, pi, factory, _q in shipped_experiments():
        table = st_pi_convergence(pi, 1, factory, DEFAULT_SCHEDULE, label)
        for row in table.rows:
            lines.append(f"{label},{row.n_atoms},{row.delta},{row.l2_error:.12e}")
        slopes.append((label, table.slope()))
    for label, slope in slopes:
        lines.append(f"# slope,{label},,{slope:.4f}")
    _emit(lines, config.out_dir, "converge.csv")
    return 0


def cmd_moments(config: RunConfig) -> int:
    lines = ["n,moment"]
    algebra = build_model(config.model)
    if isinstance(algebra, WeightedPointAlgebra):
        # f(x) = x: the compound-Poisson process with jumps at the points
        letter = algebra.letter(algebra.points)
    else:
        # a block of n letters multiplies n - 1: past the cutoff only if it closes
        if not algebra.closes and config.nmax > algebra.degree_cutoff + 1:
            raise UsageError(
                f"nmax {config.nmax} needs degree_cutoff >= {config.nmax - 1}, "
                f"model has {algebra.degree_cutoff}")
        letter = algebra.prefix_letter(algebra.grid.horizon)
    q0 = config.q
    # every suffix of [letter] * nmax is a lower power: one transfer
    for n, m in enumerate(suffix_moments([letter] * config.nmax), 1):
        if q0 is not None:
            # the polynomial evaluated at q0 and rounded once
            try:
                m = float(m.subs(q0))
            except OverflowError:
                raise UsageError(f"moment {n} at q0 = {q0} is too large for "
                                 f"a float; q = exact prints it") from None
        lines.append(f"{n},{m}")
    _emit(lines, config.out_dir, "moments.csv")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # a refusal exits 2 with one `error:` line, like every usage error
        raise UsageError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="qfock", allow_abbrev=False,
        description="Exact verification suites and refinement experiments for "
                    "q-deformed Fock space processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"verify": (cmd_verify, "run exact identity suites"),
                "converge": (cmd_converge, "run refinement experiments (exact, read at q0)"),
                "moments": (cmd_moments, "print vacuum moments of X as polynomials in q")}
    for name, (_, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", help="output directory for CSV reports")
        specs = [spec for spec in KEYS.values() if spec.command == name]
        if specs:
            p.add_argument("--model", help="model config file")
        for spec in specs:
            if spec.flag:
                p.add_argument(f"--{spec.flag}", help=spec.help)

    try:
        args = parser.parse_args(argv)
        return commands[args.command][0](build_config(args))
    except QFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
