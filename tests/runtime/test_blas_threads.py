"""Single-threaded BLAS in the sharded runtime (:mod:`repro.runtime.blas`).

One process per shard is the runtime's parallelism, so every worker
caps BLAS at one thread and the coordinator holds the same cap while a
``shards>1`` runner is open.  Covers:

* the cap/restore round trip on the OpenBLAS libraries this process
  has loaded;
* the process-wide refcount — the user's thread count comes back only
  when the last sharded runner closes;
* ``shards=1`` (the bitwise simulator path) never touches the count;
* the worker entry point, run in a spawned child, caps its BLAS.

Every test pins the libraries at 2 threads first, so a cap (1) and a
restore (2) are told apart on any host.
"""

import faulthandler
from multiprocessing import get_context

import pytest

from repro.net.transport import TcpTransport
from repro.plan import build_plan
from repro.runtime import blas, multiproc
from repro.runtime.multiproc import MultiprocDtmRunner
from repro.workloads.poisson import grid2d_poisson

# a CI hang in this file should dump stacks, not eat the runner cap
faulthandler.enable()

pytestmark = pytest.mark.skipif(
    not blas.thread_counts(),
    reason="no OpenBLAS library with a thread-count API is loaded")


def _pin(n: int) -> None:
    for lib in blas._libraries():
        lib.set(n)


def _capped() -> bool:
    return set(blas.thread_counts().values()) == {1}


@pytest.fixture(scope="module")
def plan():
    return build_plan(grid2d_poisson(12), n_subdomains=4, seed=0)


@pytest.fixture
def two_threads():
    """Pin every library at 2 threads; put the original counts back."""
    assert blas._holds == 0, "a BLAS hold leaked from an earlier test"
    before = blas.thread_counts()
    _pin(2)
    yield blas.thread_counts()
    for lib in blas._libraries():
        lib.set(before.get(lib.path, lib.get()))


def test_cap_and_restore_round_trip(two_threads):
    assert set(two_threads.values()) == {2}
    with blas.single_thread():
        assert _capped()
    assert blas.thread_counts() == two_threads


def test_cap_held_until_last_sharded_runner_closes(plan, two_threads):
    first = MultiprocDtmRunner(plan, shards=2)
    try:
        second = MultiprocDtmRunner(plan, shards=2)
        try:
            assert _capped()
            first.close()
            assert _capped()
            res = second.solve(tol=1e-8)
            assert res.converged
        finally:
            second.close()
    finally:
        first.close()
    assert blas.thread_counts() == two_threads
    # a second close is a no-op: it must not drop a hold it no longer has
    second.close()
    assert blas._holds == 0


def test_single_shard_runner_never_caps(plan, two_threads):
    with MultiprocDtmRunner(plan, shards=1) as runner:
        assert blas.thread_counts() == two_threads
        res = runner.solve(tol=1e-8, t_max=20000.0)
        assert res.converged
        assert blas.thread_counts() == two_threads
    assert blas.thread_counts() == two_threads


def _report_worker_counts(descriptor, queue) -> None:
    """Spawn target: the real worker entry point, with the shard loop
    replaced by a report of the BLAS thread counts it runs under."""
    _pin(2)
    multiproc._run_worker = lambda *args: queue.put(blas.thread_counts())
    multiproc._worker_main(descriptor)


def test_spawned_worker_runs_single_threaded_blas(plan):
    ctx = get_context("spawn")
    queue = ctx.Queue()
    transport = TcpTransport()
    with MultiprocDtmRunner(plan, shards=2, transport=transport,
                            spawn_workers=False):
        proc = ctx.Process(target=_report_worker_counts,
                           args=(transport.worker_descriptor(0), queue))
        proc.start()
        try:
            counts = queue.get(timeout=60)
        finally:
            proc.join(timeout=30)
    assert counts
    assert set(counts.values()) == {1}
    assert proc.exitcode == 0
