"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import shutil
import subprocess
import sys
import time
from itertools import permutations
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle as o
import metrics
from metrics import REFERENCE_S, Runner, tail
from spans import SpanRecorder, layer_metrics, self_times
from workloads import (RECORDED_ALL, RECORDED_CONGRUENCES, check_congruences,
                       congruence_inputs, table_of)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


# --- the percentile rule ----------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    assert tail(range(100, 0, -1)) == (90, 90.0, 10)
    value, pct, beyond = tail([float(x) for x in range(1000)])
    assert (value, pct, beyond) == (989.0, 99.0, 10)


def test_tail_with_eleven_samples_is_the_smallest():
    assert tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11]) == (1, 100 / 11, 10)


def test_tail_without_ten_samples_beyond_is_the_maximum():
    assert tail([3, 1, 2]) == (3, 100.0, 0)


def test_latency_is_the_median_of_a_keys_passes():
    runner = Runner()
    runner.samples = {"a": [3.0, 1.0, 2.0], "b": [5.0, 4.0, 100.0]}
    runner.items_by_key, runner.attempted = {"a": 6, "b": 3}, 6
    s = runner.summary()
    assert s["job_p50_ms"] == pytest.approx(3500.0)  # the median of 2.0 and 5.0 s
    assert s["items_per_s"] == pytest.approx(9 / (2.0 + 5.0))


def test_summary_pools_the_samples_of_every_worker():
    one = {"samples": {"a": [1.0, 9.0]}, "items_by_key": {"a": 2}, "attempted": 2,
           "failed": 0, "known_defect_jobs": 0, "busy_s": 10.0}
    two = dict(one, samples={"a": [2.0], "b": [4.0]}, items_by_key={"a": 2, "b": 2},
               attempted=2, busy_s=6.0)
    s = metrics.summary([one, two])
    assert s["samples"] == 2 and s["attempted"] == 4 and s["busy_s"] == 16.0
    assert s["items_per_s"] == pytest.approx(4 / (2.0 + 4.0))  # a: median of 1, 9, 2


def test_normalized_time_is_counted_at_the_reference_speed(monkeypatch):
    slices = iter([4 * REFERENCE_S, 2 * REFERENCE_S, 6 * REFERENCE_S])
    monkeypatch.setattr(metrics, "reference_time", lambda mix: next(slices))
    runner = Runner(reference=metrics.BUILDING)
    runner.job("short", int)             # opens a window; too short to close it
    assert runner.samples == {}
    runner.job("long", time.sleep, metrics.WINDOW_S)  # closes the window
    (short,), (long,) = runner.samples["short"], runner.samples["long"]
    assert short + long == pytest.approx(runner.busy / 3)  # mean slice 3x REFERENCE_S
    runner.job("next", int)              # the closing slice opens this window
    runner.summary()                     # and the summary closes it
    (nxt,) = runner.samples["next"]
    assert nxt == pytest.approx((runner.busy - 3 * (short + long)) / 4)


def test_reference_slice_is_fixed_work():
    for mix in (metrics.BUILDING, metrics.INTERPRETING):
        assert metrics.reference_slice(mix) == metrics.reference_slice(mix)
        assert metrics.reference_time(mix) > 0

# --- self time on synthetic nested spans -----------------------------------

def synthetic(rec: SpanRecorder, spans) -> None:
    """spans: (name, parent index, start, end), in start order."""
    for name, parent, start, end in spans:
        rec.name.append(rec.names.index(name))
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
        rec.value.append(0)


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    synthetic(rec, [
        ("cli.run", -1, 0.0, 10.0),
        ("terms.parse_equation", 0, 1.0, 4.0),
        ("algebra.FiniteAlgebra", 1, 2.0, 3.0),
        ("terms.parse_equation", 0, 5.0, 6.0),
        ("cli.run", -1, 12.0, 13.5),
    ])
    times = self_times(*rec.spans()[:5])
    assert times["cli.run"] == (2, pytest.approx(6.0 + 1.5))
    assert times["terms.parse_equation"] == (2, pytest.approx(2.0 + 1.0))
    assert times["algebra.FiniteAlgebra"] == (1, pytest.approx(1.0))
    assert sum(s for _, s in times.values()) == pytest.approx(11.5)  # root durations


def test_residual_is_wall_time_outside_every_span():
    rec = SpanRecorder()
    synthetic(rec, [("cli.run", -1, 0.0, 2.0), ("algebra.validate", 0, 0.5, 1.0)])
    m = layer_metrics(rec, traced_s=2.5, untraced_s=2.0)
    assert m["trace.residual_s"][0] == pytest.approx(0.5)
    assert m["trace.overhead_ratio"][0] == pytest.approx(1.25)
    assert m["cli.run.self_s"][0] == pytest.approx(1.5)


def test_recorder_rebinds_every_namespace_and_restores_it():
    import qba
    import qba.congruences
    import qba.partitions
    original = qba.partitions.is_congruence
    post_init = qba.Partition.__post_init__
    rec = SpanRecorder()
    rec.install()
    try:
        assert qba.congruences.is_congruence is qba.partitions.is_congruence is qba.is_congruence
        assert qba.partitions.is_congruence is not original
        rec.active = True
        cons = qba.all_congruences(qba.fixture("F5"))
        rec.active = False
    finally:
        rec.uninstall()
    assert qba.congruences.is_congruence is original and qba.is_congruence is original
    assert qba.Partition.__post_init__ is post_init
    m = layer_metrics(rec, 1.0, 1.0)
    assert m["congruences.all_congruences.calls"][0] == 1
    calls = m["partitions.is_congruence.calls"][0]
    assert calls >= len(cons) == 12
    assert m["congruences.all_congruences.check_yield"][0] == pytest.approx(len(cons) / calls)


# --- checks count wrong outputs as failed -----------------------------------

def fake_partitions(t: o.Table, blocks_list):
    return [SimpleNamespace(blocks=b, size=t.size) for b in blocks_list]


def test_congruence_count_off_by_one_is_failed():
    t = o.flat(5, 1)
    right = sorted(b for b in o.set_partitions(5) if o.is_congruence(t, b))
    want = o.congruence_count(t, None)
    runner = Runner()
    runner.job("right", lambda: fake_partitions(t, right), items=len,
               check=lambda r: check_congruences(t, want, r), digest=lambda r: len(r))
    runner.job("short", lambda: fake_partitions(t, right[:-1]), items=len,
               check=lambda r: check_congruences(t, want, r), digest=lambda r: len(r))
    assert runner.failed == 1 and runner.summary()["items"] == want
    assert runner.failures[0].startswith("short:")


def test_non_congruence_in_output_is_failed():
    t = o.flat(5, 1)
    right = sorted(b for b in o.set_partitions(5) if o.is_congruence(t, b))
    wrong = sorted(right[:-1] + [((0, 1), (2,), (3,), (4,))])
    runner = Runner()
    runner.job("wrong", lambda: fake_partitions(t, wrong),
               check=lambda r: check_congruences(t, len(right), r), digest=len)
    assert runner.failed == 1


def test_raising_changed_and_known_defect_jobs():
    runner = Runner()
    outputs = iter([1, 2])
    runner.job("same key", lambda: next(outputs))
    runner.job("same key", lambda: next(outputs))  # differs from the first output
    runner.job("raises", lambda: 1 / 0)
    runner.job("defect", lambda: int("x"), known_defect="ValueError")
    s = runner.summary()
    assert runner.failed == 2 and s["known_defect_jobs"] == 1
    assert "defect" in runner.known_defects
    assert s["ok_ratio"] == pytest.approx(1 / 4)


# --- the counts the checks rely on -------------------------------------------

@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 8) for k in range(1, n + 1)
                                 if (n - k) % 2 == 0])
def test_flat_congruence_closed_form(n, k):
    t = o.flat(n, k)
    brute = sum(1 for b in o.set_partitions(n) if o.is_congruence(t, b))
    assert o.congruence_count(t, None) == brute


def test_recorded_congruence_counts_by_brute_force():
    for name, t in congruence_inputs().items():
        assert o.axioms_hold(t), name
        if name in RECORDED_CONGRUENCES or not o.is_flat(t):
            brute = sum(1 for b in o.set_partitions(t.size) if o.is_congruence(t, b))
            assert o.congruence_count(t, RECORDED_CONGRUENCES.get(name)) == brute, name


@pytest.mark.parametrize("name", ["4", "6", "A", "F5"])
def test_generated_is_the_least_congruence_containing_the_pairs(name):
    t = o.parse((HERE / "data" / f"{name}.alg").read_text())
    cons = [b for b in o.set_partitions(t.size) if o.is_congruence(t, b)]
    for x in range(t.size):
        for y in range(x + 1, t.size):
            holding = [b for b in cons if o.member_of(b)[x] == o.member_of(b)[y]]
            least = min(holding, key=lambda b: sum(len(blk) ** 2 for blk in b))
            assert o.generated(t, [(x, y)]) == least


def automorphisms(t: o.Table) -> int:
    n = t.size
    return sum(1 for p in permutations(range(n)) if o.permute(t, p)[1:] == t[1:])


def isomorphic(a: o.Table, b: o.Table) -> bool:
    return any(o.permute(a, p)[1:] == b[1:] for p in permutations(range(a.size)))


NONFLAT_CLASSES = {1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 3}  # hand counts


@pytest.mark.parametrize("n", range(1, 7))
def test_recorded_enumeration_counts(n):
    """Classes are pairwise non-isomorphic, number the flat classes plus the
    hand-counted non-flat ones, and their orbits under relabelings that fix
    zero at index 0 add up to the recorded labeled count."""
    import qba
    labeled, classes = RECORDED_ALL[n]
    reps = [table_of(a) for a in qba.enumerate_all(n, True).iso_classes]
    assert len(reps) == classes == (n - 1) // 2 + 1 + NONFLAT_CLASSES[n]
    assert all(o.axioms_hold(t) and t.zero == 0 for t in reps)
    assert not any(isomorphic(a, b) for i, a in enumerate(reps) for b in reps[i + 1:])
    assert sum(factorial(n - 1) // automorphisms(t) for t in reps) == labeled


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
