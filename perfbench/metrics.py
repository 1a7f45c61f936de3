"""Closed-loop job runner and the statistics the end-to-end metrics use."""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# The reference slice: a fixed amount of pure-Python work timed around the
# jobs of an untraced run, at least every WINDOW_S of job time. REFERENCE_S
# is the time the slice is counted as, about its median on the calibration
# machine (2 shared cores, Python 3.11), in either of its two mixes:
# (lookup rounds, rows made and dropped).
REFERENCE_S = 0.002
WINDOW_S = 0.01
BUILDING = (1500, 3000)   # for searches that build and drop many small objects
INTERPRETING = (2500, 0)  # for jobs that mostly parse, dispatch and recurse


def reference_slice(mix: tuple[int, int] = BUILDING) -> int:
    """Table lookups, tuple hashing and dict updates, then small tuples made
    and dropped. A machine slowed by its neighbours slows the allocator more
    than the lookups at some times and less at others, so the slice mixes
    the two as the timed jobs do. The benchmark owns it, so no change to
    qba moves it."""
    rounds, rows = mix
    table = [[(i * j) % 7 for j in range(7)] for i in range(7)]
    seen: dict = {}
    acc = 0
    for r in range(rounds):
        x, y = r % 7, (r * 3) % 7
        t = (x, table[x][y], table[y][x])
        if t not in seen:
            seen[t] = len(seen)
        acc += seen[t] + sum(table[t[1]])
    made = [(i, i + 1, (i, acc)) for i in range(rows)]
    return acc + len(made)


def reference_time(mix: tuple[int, int] = BUILDING) -> float:
    """Seconds one slice takes, with the collector off: a collection that
    the jobs' allocations have made due would otherwise land in the slice.
    The slice frees what it makes, so it leaves the collector's counts as
    it found them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_slice(mix)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With N sorted samples the
    value is the (N - 10)-th smallest, which has exactly 10 samples above
    it, and the percentile is 100 * (N - 10) / N. With 10 or fewer samples
    there is no such percentile, and the maximum is returned with 0 beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n, TAIL_BEYOND


class Failed(Exception):
    """Raised by a job's check when the output is wrong."""


class Runner:
    """Runs jobs one at a time and times each call alone.

    A job is one call into qba, named by a key that is the same in every
    pass. Its check runs after the timer stops. The first output of each
    key gets the full check; later outputs of the key must match its
    digest, since every pass repeats the same jobs.

    On a shared machine the speed of the core swings by up to 2x within a
    second, and CPU time swings with it: the neighbours share its caches
    and memory bus rather than take its turns. So given a ``reference``
    mix, the jobs are bracketed by reference slices: a slice opens a window, jobs
    run until they have taken WINDOW_S or more, and a slice closes the
    window (and opens the next, if a job follows at once). Each job's
    time is counted at the speed its window's two slices show:
    seconds * REFERENCE_S / (mean of the two slices). The latency of a
    key is the median of its passes, pooled over the workers of a run
    (see summary). Items count once per key.
    """

    def __init__(self, tracer=None, reference: tuple[int, int] | None = None):
        self.tracer = tracer
        self.reference = reference
        self.busy = 0.0
        self.samples: dict = {}
        self.items_by_key: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: dict[str, str] = {}
        self.known_defect_jobs = 0
        self._digests: dict = {}
        self._window: list = []     # (key, seconds) of the open window
        self._window_s = 0.0
        self._opened = 0.0          # the slice that opened the window
        self._closed_at = -1.0      # perf_counter when the last slice ended

    def job(self, key, fn, *args, items=None, check=None, digest=hash,
            known_defect=None):
        """Run fn(*args) as one timed job and return its result, or None
        if it failed. ``known_defect`` names an exception type that a
        documented defect raises: such a job counts as neither ok nor
        failed but is reported by key."""
        self.attempted += 1
        tracer = self.tracer
        if self.reference and not self._window and perf_counter() - self._closed_at > WINDOW_S:
            self._opened = reference_time(self.reference)
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a job that raises is a failed job
            t1 = perf_counter()
            if tracer is not None:
                tracer.active = False
            self._time(key, t1 - t0)
            if known_defect is not None and type(exc).__name__ == known_defect:
                self.known_defect_jobs += 1
                self.known_defects[key] = f"{type(exc).__name__}: {str(exc)[:80]}"
            else:
                self.failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return None
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        self._time(key, t1 - t0)
        try:
            d = digest(result)
            if key in self._digests:
                if self._digests[key] != d:
                    raise Failed("output differs from the first run of this job")
            else:
                if check is not None:
                    check(result)
                self._digests[key] = d
        except Exception as exc:  # a wrong or malformed output fails the job
            self.failures.append(f"{key}: {exc}")
            return None
        if items is not None:
            self.items_by_key[key] = items(result)
        return result

    def _time(self, key, seconds: float) -> None:
        self.busy += seconds
        if not self.reference:
            self.samples.setdefault(key, []).append(seconds)
            return
        self._window.append((key, seconds))
        self._window_s += seconds
        if self._window_s >= WINDOW_S:
            self.settle()

    def settle(self) -> None:
        """Close the open window with a slice and count its jobs."""
        if not self._window:
            return
        closing = reference_time(self.reference)
        self._closed_at = perf_counter()
        scale = 2 * REFERENCE_S / (self._opened + closing)
        for key, seconds in self._window:
            self.samples.setdefault(key, []).append(seconds * scale)
        self._window, self._window_s, self._opened = [], 0.0, closing

    @property
    def failed(self) -> int:
        return len(self.failures)

    def state(self) -> dict:
        """What summary() needs, as plain data a worker can print."""
        self.settle()
        return {"samples": self.samples, "items_by_key": self.items_by_key,
                "attempted": self.attempted, "failed": self.failed,
                "known_defect_jobs": self.known_defect_jobs, "busy_s": self.busy}

    def summary(self) -> dict:
        return summary([self.state()])


def summary(states) -> dict:
    """The end-to-end statistics of one or more runners' states, pooled:
    the samples of a key from every state count together."""
    samples: dict = {}
    items: dict = {}
    for st in states:
        for key, xs in st["samples"].items():
            samples.setdefault(key, []).extend(xs)
        items.update(st["items_by_key"])
    attempted = sum(st["attempted"] for st in states)
    failed = sum(st["failed"] for st in states)
    known = sum(st["known_defect_jobs"] for st in states)
    latency = [statistics.median(xs) for xs in samples.values()]
    value, pct, beyond = tail(latency)
    return {
        "attempted": attempted,
        "failed": failed,
        "known_defect_jobs": known,
        "items": sum(items.values()),
        "busy_s": sum(st["busy_s"] for st in states),
        "items_per_s": sum(items.values()) / sum(latency),
        "job_p50_ms": statistics.median(latency) * 1e3,
        "job_tail_ms": value * 1e3,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(latency),
        "ok_ratio": (attempted - failed - known) / attempted,
    }
