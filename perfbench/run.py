"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_shm --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced mode of the same workload and prints the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The run record (host, controls, all figures and, when traced, every span)
is written to ``.perfbench_out/``.  The exit code is 0 only when every op
passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_library() -> None:
    """Put the checkout's ``src`` first and insist the library is there."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the library from "
                         f"{SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__},"
                         f" not from {SRC}")


def new_phase() -> dict:
    """Accumulator the measured segments of one run add to."""
    from perfbench.measure import OpLedger

    return {"ledger": OpLedger(), "walls": [], "phase_s": 0.0,
            "cpu_s": 0.0, "rss_mb": 0.0, "traced_walls": [],
            "bare_walls": [], "first_traced": None, "details": []}


def measured_segment(wl, seconds: float, traced: bool, phase: dict) -> None:
    """Closed loop: the next op starts when the previous one is checked.

    Op numbers run on across the segments of a run; the first op is also
    checked against a direct solve.  In the traced run odd ops are traced
    and even ops bare, so the trace overhead is measured on interleaved
    ops of the same run.
    """
    from perfbench.measure import cpu_seconds_total, peak_rss_mb
    from perfbench.workloads import NULL_TRACER

    ledger = phase["ledger"]
    cpu0 = cpu_seconds_total()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    n0 = ledger.attempted
    while True:
        i = ledger.attempted
        inp = wl.next_input(i)
        tracer = wl.tracer if traced and i % 2 == 1 else NULL_TRACER
        try:
            out = wl.op(inp, i, tracer)
            ok, why = wl.check(inp, out, direct=(i == 0))
            if not out.converged:
                ok, why = False, "converged=False"
        except Exception as exc:  # an op that raises is a failed op
            out, ok, why = None, False, f"{type(exc).__name__}: {exc}"
        ledger.record(ok, f"op {i}: {why}")
        if out is not None:
            phase["walls"].append(out.wall)
            if tracer is NULL_TRACER:
                phase["bare_walls"].append(out.wall)
            else:
                phase["traced_walls"].append(out.wall)
                phase["details"].append(out.detail)
                if phase["first_traced"] is None:
                    phase["first_traced"] = (inp, out)
        # a traced run needs one bare and one traced op to compare
        if time.perf_counter() >= deadline and (
                not traced or ledger.attempted - n0 >= 2):
            break
    phase["phase_s"] += time.perf_counter() - t_start
    phase["cpu_s"] += cpu_seconds_total() - cpu0
    phase["rss_mb"] = max(phase["rss_mb"], wl.peak_rss, peak_rss_mb())


def end_to_end(setups: list, phase: dict) -> tuple[dict, dict]:
    from perfbench.measure import median, tail_latency

    walls = phase["walls"]
    tail, pct, beyond = tail_latency(walls)
    metrics = {
        "setup_s": (median(setups), "s"),
        "latency_p50_s": (median(walls), "s"),
        "latency_tail_s": (tail, "s"),
        "throughput_ops_s": (len(walls) / phase["phase_s"], "1/s"),
        "cpu_per_op_s": (phase["cpu_s"] / phase["ledger"].attempted, "s"),
        "peak_rss_mb": (phase["rss_mb"], "MB"),
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(setups), ", ".join(f"{s:.3f}" for s in setups)),
        "latency_p50_s": f"n={len(walls)}",
        "latency_tail_s": f"p{pct:.1f}, {beyond} samples beyond, "
                          f"n={len(walls)}",
        "throughput_ops_s": f"{len(walls)} ops in {phase['phase_s']:.3f} s",
    }
    return metrics, notes


def layer_metrics(wl, probes: dict, phase: dict) -> dict:
    """Per-layer figures from the traced ops' spans, counts and probes."""
    from perfbench.layers import NOT_APPLICABLE, PER_LAYER
    from perfbench.measure import median, self_times
    from perfbench.workloads import SHARDS

    t = wl.tracer
    details = phase["details"]
    m = {name: v for name, v in probes.items() if "." in name}

    for layer in ("graph.split", "plan.build", "runtime.runner_init",
                  "runtime.first_solve", "runtime.close",
                  "plan.artifact_save", "plan.artifact_load",
                  "plan.rhs_swap"):
        if t.durations(layer):
            m[layer + "_s"] = median(t.durations(layer))
    if "runtime.first_solve_s" not in m:  # the simulator's first op
        m["runtime.first_solve_s"] = phase["walls"][0]
    if wl.name == "cold_plan":
        m["plan.artifact_mb"] = median(d["artifact_mb"] for d in details)

    m["runtime.solve_s"] = median(d["solve_s"] for d in details)
    m["runtime.stop_checks_per_op"] = median(
        d["stop_checks"] for d in details)
    rounds = sum(d.get("rounds", 0) for d in details)
    if rounds:
        m["runtime.verified_stop_ratio"] = (
            sum(d["verified"] for d in details) / rounds)
    units = probes["shard_units"]
    sweeps = [d["sweeps"] for d in details if d.get("sweeps")]
    if sweeps:
        m["core.sweeps_per_op"] = median(sum(s) for s in sweeps)
        m["core.sweep_imbalance"] = median(
            max(s) / max(min(s), 1) for s in sweeps)
        m["core.sweep_busy_share"] = median(
            sum(k * u for k, u in zip(d["sweeps"], units))
            / (SHARDS * d["solve_s"]) for d in details if d.get("sweeps"))
    m["core.useful_sweep_ratio"] = (probes["vtm_subdomain_solves"]
                                    / probes["dtm_subdomain_solves"])
    sim = details if wl.name == "sim_fig11" else [probes["sim"]]
    m["sim.events_per_op"] = median(d["events"] for d in sim)
    m["sim.us_per_event"] = median(1e6 * d["solve_s"] / d["events"]
                                   for d in sim)
    m["sim.sim_time_per_op"] = median(d["sim_time"] for d in sim)
    if wl.name == "served_mesh":
        m["net.serve_overhead_s"] = median(
            d["roundtrip_s"] - d["solve_s"] for d in details)
        c = {k: sum(d["counters"][k] for d in details)
             for k in details[0]["counters"]}
        mesh = c["repro_mesh_frames_total"]
        m["net.frames_per_op"] = (
            mesh + c["repro_net_frames_sent_total"]) / len(details)
        m["net.mesh_direct_ratio"] = (
            1.0 - c["repro_mesh_fallback_total"] / mesh if mesh else 0.0)

    m["bench.trace_overhead_ratio"] = (median(phase["traced_walls"])
                                       / median(phase["bare_walls"]))
    own = self_times(t.spans)
    ops = [s for s in t.spans if s["name"] == "op"]
    m["bench.unaccounted_share"] = (
        sum(own[s["id"]] for s in ops)
        / sum(s["end"] - s["start"] for s in ops))

    skip = NOT_APPLICABLE[wl.name]
    out = {}
    for layer in PER_LAYER:
        if layer.name in skip:
            out[layer.name] = (0.0, layer.unit)
        else:
            out[layer.name] = (float(m[layer.name]), layer.unit)
    return out


def run(args) -> int:
    from perfbench.layers import NOT_APPLICABLE
    from perfbench.measure import Tracer, host_record
    from perfbench.workloads import (
        WORKLOADS, baselines, plan_probes, sim_probe,
    )

    host = host_record()
    traced = bool(args.trace)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer()
    wl = WORKLOADS[args.workload](args.seed, workdir, tracer, traced)
    try:
        try:
            setups = []
            phase = new_phase()
            n = 1 if traced else wl.setup_repeats
            segments = 1 if traced else wl.segments
            for k in range(n):
                if k:
                    wl.teardown()
                setups.append(wl.setup())
                if traced and hasattr(wl, "prepare_probes"):
                    wl.prepare_probes()
                if k >= n - segments:
                    wl.warmup()
                    measured_segment(wl, args.seconds / segments, traced,
                                     phase)
        finally:
            wl.close()
        controls = baselines(wl.graph, wl.control_rhs())
        probes = {}
        if traced:
            if phase["first_traced"] is None:
                sys.exit("perfbench: no traced op succeeded: "
                         + "; ".join(phase["ledger"].failures[:3]))
            inp, out = phase["first_traced"]
            plan, graph, b, x, solves = wl.probe_case(inp, out)
            probes = plan_probes(plan, graph, b, x, workdir, args.seed)
            probes["dtm_subdomain_solves"] = solves
            if wl.name != "sim_fig11":
                probes["sim"] = sim_probe(args.seed)
            probes.update(controls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = phase["ledger"]
    if traced:
        metrics = layer_metrics(wl, probes, phase)
        notes = dict.fromkeys(NOT_APPLICABLE[wl.name], "n/a here")
    else:
        metrics, notes = end_to_end(setups, phase)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print("controls " + " ".join(f"{k}={v:.6g}"
                                 for k, v in controls.items()))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:30s} {value:14.6g} {unit:8s} {note}")
    print(f"  {'fail_ratio':30s} {ledger.fail_ratio:14.6g} {'ratio':8s} "
          f"({ledger.failed}/{ledger.attempted} ops failed)")
    for why in ledger.failures[:10]:
        print(f"  FAILED {why}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "controls": controls, "failures": ledger.failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "op_walls": phase["walls"]}
    if traced:
        record["spans"] = tracer.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream_shm", "served_mesh", "cold_plan",
                                 "sim_fig11"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from perfbench.measure import stop_children

    try:
        return run(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
