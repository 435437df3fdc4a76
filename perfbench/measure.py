"""Pure measurement helpers: percentiles, failure ledger, /proc readers, spans.

Nothing here imports the library under test, so these parts are tested
on their own at toy sizes (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import re
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def tail_latency(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With ``n`` samples
    sorted ascending, the order statistic at 0-based index ``n - 11`` has
    exactly ten samples above it; its percentile is the share of samples
    at or below it.  A run with ten or fewer samples has no such
    percentile: it reports the maximum, with ``samples_beyond = 0``.
    """
    xs = sorted(float(v) for v in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail_latency needs at least one sample")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


@dataclass
class OpLedger:
    """Counts ops attempted and failed, with the reason for each failure.

    An op fails if it raised, returned ``converged=False``, or failed the
    benchmark's own correctness check.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason or "failed")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_VMHWM = re.compile(r"^VmHWM:\s+(\d+)\s+kB", re.MULTILINE)


def parse_stat_cpu(stat_text: str, clk_tck: int = _CLK_TCK) -> float:
    """``utime + stime`` in seconds from the text of ``/proc/<pid>/stat``.

    The command name (field 2) may hold spaces and parentheses, so fields
    are counted from the last ``)``: field 3 (state) is index 0 there,
    which puts utime (field 14) at index 11 and stime (15) at 12.
    """
    rest = stat_text[stat_text.rindex(")") + 2:].split()
    return (int(rest[11]) + int(rest[12])) / float(clk_tck)


def parse_vmhwm_mb(status_text: str) -> float:
    """Peak resident set (``VmHWM``) in MB from ``/proc/<pid>/status``."""
    m = _VMHWM.search(status_text)
    if m is None:
        raise ValueError("no VmHWM line in status text")
    return int(m.group(1)) / 1024.0


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:  # the process ended between listing and reading
        return None


def _worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()
            if p.pid is not None]


def cpu_seconds_total() -> float:
    """CPU seconds of this process, its reaped children and live workers.

    ``os.times`` covers every thread of this process and every child it
    has waited for; live workers (``multiprocessing.active_children``)
    are read from ``/proc/<pid>/stat``.  The difference of two readings
    is the CPU the phase between them used: a worker alive at both ends
    counts by its /proc delta, one that ended in between by its reaped
    total minus its first /proc reading.
    """
    t = os.times()
    total = t.user + t.system + t.children_user + t.children_system
    for pid in _worker_pids():
        text = _read(f"/proc/{pid}/stat")
        if text is not None:
            total += parse_stat_cpu(text)
    return total


def child_pids() -> list[int]:
    """Processes whose parent is this one, exited ones not yet reaped too."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            text = _read(f"/proc/{entry}/stat")
            if text is not None and int(
                    text[text.rindex(")") + 2:].split()[1]) == me:
                out.append(int(entry))
    return out


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Workers are joined (terminated if they outlive *grace*); the
    multiprocessing resource tracker, which otherwise outlives this
    process by however long it takes to notice its pipe closing, is told
    to stop and waited for; anything else still a child is killed after
    *grace* and reaped.
    """
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(grace)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + grace
    for pid in child_pids():
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass  # already reaped


def peak_rss_mb() -> float:
    """Summed ``VmHWM`` of this process and its live workers, in MB."""
    total = parse_vmhwm_mb(_read("/proc/self/status") or "")
    for pid in _worker_pids():
        text = _read(f"/proc/{pid}/status")
        if text is not None:
            total += parse_vmhwm_mb(text)
    return total


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def host_record() -> dict:
    """nproc, CPU model, interpreter and library versions, load at start."""
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    cpuinfo = _read("/proc/cpuinfo") or ""
    m = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.MULTILINE)
    if m:
        model = m.group(1).strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent and op id.

    Spans nest by the ``with`` stack of the one thread that records them;
    :meth:`record` adds a span timed elsewhere under an explicit parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _add(self, name, start, end, parent, op) -> dict:
        rec = {"id": len(self.spans), "name": name, "start": start,
               "end": end, "parent": parent, "op": op}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        rec = self._add(name, time.perf_counter(), None, parent, op)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, *,
               parent: Optional[int], op=None) -> dict:
        return self._add(name, start, end, parent, op)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default
