"""Tests of the benchmark's own pure parts, at toy sizes."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.layers import (  # noqa: E402
    END_TO_END, NOT_APPLICABLE, PER_LAYER,
)
from perfbench.measure import (  # noqa: E402
    OpLedger, Tracer, cpu_seconds_total, parse_stat_cpu, parse_vmhwm_mb,
    peak_rss_mb, self_times, tail_latency,
)


# -- tail percentile ----------------------------------------------------
def test_tail_leaves_ten_samples_beyond():
    xs = list(range(100, 0, -1))  # order must not matter
    value, pct, beyond = tail_latency(xs)
    assert beyond == 10
    assert sum(1 for x in xs if x > value) == 10
    assert (value, pct) == (90, 90.0)


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, beyond = tail_latency([float(i) for i in range(11)])
    assert (value, beyond) == (0.0, 10)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_of_a_short_run_is_the_maximum():
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail_latency([5.0] * 10) == (5.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail_latency([])


# -- failure counting ---------------------------------------------------
def test_ledger_counts_failures_against_attempts():
    ledger = OpLedger()
    assert ledger.fail_ratio == 0.0
    ledger.record(True)
    ledger.record(False, "op 1: converged=False")
    ledger.record(True)
    ledger.record(False)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.fail_ratio == 0.5
    assert ledger.failures == ["op 1: converged=False", "failed"]


# -- /proc readers ------------------------------------------------------
STAT = ("4242 (odd (name) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
        "250 75 0 0 20 0 3 0 1000 1000000 500 18446744073709551615")


def test_parse_stat_counts_fields_after_the_command_name():
    assert parse_stat_cpu(STAT, clk_tck=100) == pytest.approx(3.25)


def test_parse_vmhwm():
    text = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n"
    assert parse_vmhwm_mb(text) == 2.0
    with pytest.raises(ValueError):
        parse_vmhwm_mb("Name:\tpython\n")


def test_live_stat_matches_os_times():
    with open(f"/proc/{os.getpid()}/stat") as fh:
        proc = parse_stat_cpu(fh.read())
    t = os.times()
    assert proc == pytest.approx(t.user + t.system, abs=0.05)


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_cpu_and_rss_include_worker_processes():
    ctx = multiprocessing.get_context("spawn")
    before = cpu_seconds_total()
    rss_alone = peak_rss_mb()
    proc = ctx.Process(target=_spin, args=(1.0,))
    proc.start()
    try:
        time.sleep(0.5)
        assert peak_rss_mb() > rss_alone + 1.0
        proc.join(timeout=30)
        assert not proc.is_alive()
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
    # the reaped worker's CPU second is counted once
    delta = cpu_seconds_total() - before
    assert 0.9 <= delta < 2.5


_STOP_SCRIPT = """
import multiprocessing, subprocess, sys, time
from multiprocessing import shared_memory
sys.path.insert(0, sys.argv[1])
from perfbench.measure import child_pids, stop_children

if __name__ == "__main__":
    shm = shared_memory.SharedMemory(create=True, size=64)  # the tracker
    proc = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True)
    proc.start()
    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    shm.close()
    shm.unlink()
    assert len(child_pids()) == 3, child_pids()
    t0 = time.monotonic()
    stop_children(grace=0.5)
    print(len(child_pids()), time.monotonic() - t0)
"""


def test_stop_children_leaves_no_process_behind():
    out = subprocess.run([sys.executable, "-c", _STOP_SCRIPT, ROOT],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    left, took = out.stdout.split()
    assert int(left) == 0
    assert float(took) < 10.0


# -- spans --------------------------------------------------------------
def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.record("op", 0.0, 10.0, parent=None, op=0)
    tr.record("a", 1.0, 4.0, parent=0, op=0)
    tr.record("b", 5.0, 9.0, parent=0, op=0)
    tr.record("b.inner", 6.0, 7.0, parent=2, op=0)
    own = self_times(tr.spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_spans_nest_by_with_blocks():
    tr = Tracer()
    with tr.span("op", op=3):
        with tr.span("inner", op=3):
            pass
    op, inner = tr.spans
    assert inner["parent"] == op["id"] and op["parent"] is None
    assert op["start"] <= inner["start"] <= inner["end"] <= op["end"]


# -- seeds and the oracle -----------------------------------------------
def _inputs(name: str, seed: int, k: int = 3):
    from perfbench.workloads import NULL_TRACER, WORKLOADS

    wl = WORKLOADS[name](seed, "", NULL_TRACER, False)
    out = []
    for i in range(k):
        inp = wl.next_input(i)
        if name == "cold_plan":  # (graph, oracle): the matrix is the input
            graph = inp[0]
            inp = np.concatenate([graph.vertex_weights, graph.edge_weights,
                                  graph.sources])
        out.append(np.array(inp))
    return out


@pytest.mark.parametrize("name", ["stream_shm", "served_mesh",
                                  "cold_plan", "sim_fig11"])
def test_inputs_follow_the_seed(name):
    a, b, c = _inputs(name, 7), _inputs(name, 7), _inputs(name, 8)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[0], a[1])


def test_oracle_checks_residual_and_direct_error():
    from repro.workloads.poisson import grid2d_random

    from perfbench.workloads import TOL, Oracle

    graph = grid2d_random(6, seed=3)
    oracle = Oracle(graph)
    b = graph.sources
    x = np.linalg.solve(oracle.a.toarray(), b)
    assert oracle.check(x, b, direct=True) == (True, "")
    ok, why = oracle.check(x + 10 * TOL, b)
    assert not ok and "residual" in why
    ok, _ = oracle.check(np.full_like(x, np.nan), b)
    assert not ok


# -- the catalogue and BENCHMARK.json agree -----------------------------
def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == \
        [(m.name, m.unit, m.better) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]
    names = {w["name"] for w in spec["workloads"]}
    assert names <= set(NOT_APPLICABLE)
    layer_names = {m.name for m in PER_LAYER}
    assert all(skip <= layer_names for skip in NOT_APPLICABLE.values())
