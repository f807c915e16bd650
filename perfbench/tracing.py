"""Per-layer tracing from outside the program.

`Tracer.install` wraps functions and methods of a freshly imported qfock and
rebinds every module-level name that refers to a wrapped function, so calls
made through `from .fock import apply` style imports are seen too.
`uninstall` puts the originals back.

Timed functions record a span (pass id, span id, parent span id, name, start,
end) and accumulate calls, self time (span minus the spans of traced calls it
made) and total time (outermost calls only, so recursion is not counted
twice).  Hot methods whose per-call timing would swamp their cost are only
counted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from oracles import parse_poly

# (metric prefix, module, attribute) of module-level functions to time
TIMED_FUNCTIONS = (
    ("fock.apply", "fock", "apply"),
    ("fock.apply_Pn", "fock", "apply_Pn"),
    ("fock.inner0", "fock", "inner0"),
    ("fock.innerq", "fock", "innerq"),
    ("fock.operator_norm_estimate", "fock", "operator_norm_estimate"),
    ("fock._pn_matrix", "fock", "_pn_matrix"),
    ("partitions.rc", "partitions", "rc"),
    ("model.letter_pair", "model", "letter_pair"),
    ("wick.wick_operator", "wick", "wick_operator"),
    ("wick.vacuum_moment", "wick", "vacuum_moment"),
    ("wick.product_expansion", "wick", "product_expansion"),
    ("stochastic.st_pi_discrete", "stochastic", "st_pi_discrete"),
    ("stochastic.st_pi_closed", "stochastic", "st_pi_closed"),
    ("stochastic.l2q_inner", "stochastic", "l2q_inner"),
    ("kspoly.ks_poly", "kspoly", "ks_poly"),
    ("kspoly.ks_row_formula", "kspoly", "ks_row_formula"),
)
# (metric prefix, module, class, method) of methods to time
TIMED_METHODS = (
    ("fock.pair", "fock", "OneParticleSpace", "pair"),
)
# (metric prefix, module, class, method) of methods only counted
COUNTED_METHODS = (
    ("qscalar.add", "qscalar", "QScalar", "__add__"),
    ("qscalar.mul", "qscalar", "QScalar", "__mul__"),
    ("fock.add_term", "fock", "FockVector", "add_term"),
    ("model.xi", "model", "ProcessModel", "xi"),
    ("model.xi", "model", "WeightedPointAlgebra", "xi"),
    ("model.field", "model", "Letter", "field"),
)
# generator functions whose yields are counted
GENERATORS = (
    ("partitions.enumerate_partitions", "partitions", "enumerate_partitions"),
    ("partitions.index_tuples", "partitions", "index_tuples"),
)
# functions whose exact results feed qscalar.max_degree / max_coeff_bits
INSPECTED_RESULTS = ("fock.innerq", "wick.vacuum_moment")
WICK = "wick.wick_operator"


def timed_prefixes(qf) -> list[str]:
    return ([p for p, *_ in TIMED_FUNCTIONS] + [p for p, *_ in TIMED_METHODS]
            + [f"cli.suite.{s}" for s in qf.cli.SUITES])


def metric_units(qf) -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for p in timed_prefixes(qf):
        units[f"{p}.calls"] = "count"
        units[f"{p}.self_s"] = "s"
        units[f"{p}.total_s"] = "s"
    for p, *_ in COUNTED_METHODS:
        units[f"{p}.calls"] = "count"
    for p, *_ in GENERATORS:
        units[f"{p}.calls"] = "count"
        units[f"{p}.yielded"] = "count"
    units[f"{WICK}.hit_ratio"] = "ratio"
    units["qscalar.max_degree"] = "count"
    units["qscalar.max_coeff_bits"] = "bits"
    return units


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._undo: list[tuple[object, str, object]] = []
        self.pass_id = 0
        self.next_span = 1
        self._reset()

    def _reset(self) -> None:
        self.stats: dict[str, list] = {}  # prefix -> [calls, self_s, total_s]
        self.counts: dict[str, list] = {}  # prefix -> [calls] or [calls, yielded]
        self.stack: list[list] = []  # [child_s, span_id] per open timed call
        self.active: dict[str, int] = {}
        self.wick = [0, 0]  # [calls with a nonempty word, hits among them]
        self.poly = [0, 0]  # [max degree, max coefficient bits]

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans, clock = self.stack, self.active, self.spans, time.perf_counter
        active[name] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer.next_span
            tracer.next_span += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d - frame[0]
                active[name] -= 1
                if not active[name]:
                    stats[2] += d
                if stack:
                    stack[-1][0] += d
                if len(spans) < tracer.span_cap:
                    spans.append((tracer.pass_id, span_id, parent, name, t0, t1))
                else:
                    tracer.dropped_spans += 1

        return wrapper

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name: str, fn):
        cell = self.counts.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            for item in fn(*args, **kwargs):
                cell[1] += 1
                yield item

        return wrapper

    def _inspected(self, fn):
        poly = self.poly

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if getattr(result, "is_exact", False):
                coeffs = parse_poly(str(result))
                poly[0] = max(poly[0], len(coeffs) - 1)
                poly[1] = max([poly[1]] + [max(c.numerator.bit_length(),
                                               c.denominator.bit_length())
                                           for c in coeffs])
            return result

        return wrapper

    def _wick_hits(self, fn):
        """A call with a nonempty word that makes no child wick_operator
        call was answered from the cache."""
        counts, wstack = self.wick, []

        def wrapper(algebra, word):
            word = tuple(word)
            if wstack:
                wstack[-1][0] = True
            frame = [False]
            wstack.append(frame)
            try:
                return fn(algebra, word)
            finally:
                wstack.pop()
                if word:
                    counts[0] += 1
                    if not frame[0]:
                        counts[1] += 1

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, qf, original, wrapper) -> None:
        """Point every qfock module name bound to `original` at `wrapper`."""
        for mod in qf.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, qf) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._reset()
        for prefix, mod, attr in TIMED_FUNCTIONS:
            original = getattr(getattr(qf, mod), attr)
            fn = original
            if prefix == WICK:
                fn = self._wick_hits(fn)
            if prefix in INSPECTED_RESULTS:
                fn = self._inspected(fn)
            self._rebind(qf, original, self._timed(prefix, fn))
        for prefix, mod, cls, attr in TIMED_METHODS:
            klass = getattr(getattr(qf, mod), cls)
            self._set(klass, attr, self._timed(prefix, getattr(klass, attr)))
        for prefix, mod, cls, attr in COUNTED_METHODS:
            klass = getattr(getattr(qf, mod), cls)
            self._set(klass, attr, self._counted(prefix, getattr(klass, attr)))
        for prefix, mod, attr in GENERATORS:
            original = getattr(getattr(qf, mod), attr)
            self._rebind(qf, original, self._generator(prefix, original))
        for name, fn in list(qf.cli.SUITES.items()):
            self._undo.append((qf.cli.SUITES, name, fn))
            qf.cli.SUITES[name] = self._timed(f"cli.suite.{name}", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- per-pass metrics --------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        for cell in self.counts.values():
            cell[:] = [0] * len(cell)
        self.wick[:] = [0, 0]
        self.poly[:] = [0, 0]

    def end_pass(self, qf) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix in timed_prefixes(qf):
            calls, self_s, total_s = self.stats.get(prefix, (0, 0.0, 0.0))
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
            out[f"{prefix}.total_s"] = total_s
        for prefix, *_ in COUNTED_METHODS:
            out[f"{prefix}.calls"] = self.counts.get(prefix, [0])[0]
        for prefix, *_ in GENERATORS:
            calls, yielded = self.counts.get(prefix, [0, 0])
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.yielded"] = yielded
        nonempty, hits = self.wick
        out[f"{WICK}.hit_ratio"] = hits / nonempty if nonempty else 0.0
        out["qscalar.max_degree"] = self.poly[0]
        out["qscalar.max_coeff_bits"] = self.poly[1]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"columns": ["pass", "id", "parent", "name", "start", "end"],
                                 "dropped": self.dropped_spans}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
