"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps public functions of the qba modules from outside: each
wrapped function is rebound in every qba module namespace that holds it,
since the modules import one another with ``from .x import f``. The two
dataclass constructors are traced through ``__post_init__`` on the class.
The recursive ``eval_term`` is not wrapped; ``holds_in`` is the boundary.

Spans are kept in memory as parallel arrays (name, parent, start, end,
value) and written out when the run ends. A span's self time is its
duration minus the durations of its direct children; since calls nest,
the self times of all spans add up to the time covered by root spans.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


def _size_rank(a, eq, verdict) -> int:
    """Assignments holds_in tried, read off its output alone: n^k for a
    VALID verdict, else the witness's lexicographic rank + 1."""
    from qba.terms import variables
    k = len(variables(eq.lhs) | variables(eq.rhs))
    if verdict.valid:
        return a.size ** k
    rank = 0
    for _, value in verdict.witness.assignment:
        rank = rank * a.size + a.names.index(value)
    return rank + 1


# (span name, module, attribute, class or None, value of the span's result)
TRACED = (
    ("algebra.FiniteAlgebra", "qba.algebra", "__post_init__", "FiniteAlgebra", None),
    ("algebra.validate", "qba.algebra", "validate", None, lambda a, r: int(r.passed)),
    ("algebra.load_algebra", "qba.algebra", "load_algebra", None, None),
    ("partitions.Partition", "qba.partitions", "__post_init__", "Partition", None),
    ("partitions.is_congruence", "qba.partitions", "is_congruence", None,
     lambda a, r: int(r)),
    ("congruences.all_congruences", "qba.congruences", "all_congruences", None,
     lambda a, r: len(r)),
    ("congruences.generated_congruence", "qba.congruences", "generated_congruence", None, None),
    ("congruences.subalgebras", "qba.congruences", "subalgebras", None, None),
    ("congruences.extend_from_subalgebra", "qba.congruences", "extend_from_subalgebra", None, None),
    ("congruences.decompose", "qba.congruences", "decompose", None, None),
    ("congruences.compose_nonflat", "qba.congruences", "compose_nonflat", None, None),
    ("congruences.split_congruence", "qba.congruences", "split_congruence", None, None),
    ("quotients.find_isomorphism", "qba.quotients", "find_isomorphism", None,
     lambda a, r: int(r is not None)),
    ("quotients.quotient", "qba.quotients", "quotient", None, None),
    ("quotients.is_homomorphism", "qba.quotients", "is_homomorphism", None, None),
    ("enumeration.enumerate_all", "qba.enumeration", "enumerate_all", None, None),
    ("enumeration.enumerate_flat", "qba.enumeration", "enumerate_flat", None, None),
    ("enumeration.dedupe_up_to_iso", "qba.enumeration", "dedupe_up_to_iso", None, None),
    ("enumeration.verify_structure", "qba.enumeration", "verify_structure", None, None),
    ("terms.parse_equation", "qba.terms", "parse_equation", None, None),
    ("terms.holds_in", "qba.terms", "holds_in", None, lambda a, r: _size_rank(*a, r)),
    ("cli.run", "qba.cli", "run", None, lambda a, r: int(r.exit_code == 2)),
)

SPAN_NAMES = tuple(name for name, *_ in TRACED)


class SpanRecorder:
    """Records one span per call of a wrapped function while ``active``."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, value):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.start)
            stack = rec._stack
            rec.name.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.value.append(0)
            rec.end.append(0.0)
            stack.append(i)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter()
                stack.pop()
            if value is not None:
                rec.value[i] = value(args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qba" or key.startswith("qba."))]
        for nid, (_, modname, attr, cls, value) in enumerate(TRACED):
            owner = sys.modules.get(modname)
            if owner is None:  # a module the workload never imports
                continue
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, value)
            targets = [owner] if cls is not None else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for target in targets:
                for key, v in list(vars(target).items()):
                    if v is original:
                        self._undo.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def spans(self):
        return self.names, self.name, self.parent, self.start, self.end, self.value

    def write(self, path) -> None:
        """Spans as gzipped TSV: id, parent, name, start_us, end_us, value."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\tvalue\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                          f"{(self.start[i] - t0) * 1e6:.1f}\t"
                          f"{(self.end[i] - t0) * 1e6:.1f}\t{self.value[i]}\n")


def self_times(names, name, parent, start, end):
    """Per span name: (calls, self seconds). Self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(start)
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {n: [0, 0.0] for n in names}
    for i in range(len(start)):
        acc = out[names[name[i]]]
        acc[0] += 1
        acc[1] += end[i] - start[i] - child[i]
    return {n: (c, s) for n, (c, s) in out.items()}


def layer_metrics(rec: SpanRecorder, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from recorded spans.

    ``traced_s`` is the wall time of the traced jobs and ``untraced_s`` that
    of the same jobs run untraced; their ratio is the tracing overhead.
    """
    names, name, parent, start, end, value = rec.spans()
    times = self_times(names, name, parent, start, end)
    sums = {n: 0 for n in names}
    for i in range(len(start)):
        sums[names[name[i]]] += value[i]
    # is_congruence calls made under an all_congruences span.
    all_id = names.index("congruences.all_congruences")
    isc_id = names.index("partitions.is_congruence")
    under = 0
    for i in range(len(start)):
        if name[i] == isc_id:
            p = parent[i]
            while p >= 0 and name[p] != all_id:
                p = parent[p]
            under += p >= 0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for n in names:
        calls, self_s = times[n]
        m[f"{n}.calls"] = (calls, "count")
        m[f"{n}.self_s"] = (self_s, "s")
    for n, stat in (("algebra.validate", "pass_ratio"), ("partitions.is_congruence", "true_ratio"),
                    ("quotients.find_isomorphism", "found_ratio")):
        m[f"{n}.{stat}"] = (ratio(sums[n], times[n][0]), "ratio")
    m["congruences.all_congruences.check_yield"] = (
        ratio(sums["congruences.all_congruences"], under), "ratio")
    m["terms.holds_in.assignments"] = (sums["terms.holds_in"], "count")
    m["cli.run.exit_2"] = (sums["cli.run"], "count")
    covered = sum(s for _, s in times.values())
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.residual_s"] = (traced_s - covered, "s")
    m["trace.overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
    return m
