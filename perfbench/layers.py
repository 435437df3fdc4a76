"""Metric catalogue: end-to-end metrics and the per-layer -> end-to-end map.

Every per-layer metric names how it is measured from outside the
library, the end-to-end metric it should move, the workload where its
layer does most of the work (``heavy``) and one where the layer does
little (``light``, where the prediction for a change to it is "no
change").  ``BENCHMARK.json`` lists the same names, units and
directions; a test keeps the two in step.

``BENCHMARK.json`` gates two workloads, stream_shm and served_mesh.
cold_plan and sim_fig11 run from the same command but are not gated:
on a shared two-core host their few long ops vary by more than the
largest bound a gated metric may have (see CHANGES.md).  Their layers
stay measured on the gated workloads: stream_shm's set-up is split,
build, runner start and first solve, the artifact probes run in every
traced run, and so does one sim_fig11 op for the ``sim.*`` metrics.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    how: str
    moves: str = ""
    heavy: str = ""
    light: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median of the run's set-ups (3; 11 on sim_fig11): generated "
           "matrix -> ready, warmed system (plan build, runner/server "
           "start, register, first solve; sim_fig11 stops at the "
           "session, its first solve being an ordinary op)"),
    Metric("latency_p50_s", "s", "lower",
           "median op wall time; stream_shm and served_mesh pool the ops "
           "of their last 3 set-ups, each measuring a third of the run"),
    Metric("latency_tail_s", "s", "lower",
           "highest percentile with >= 10 op samples beyond it (the "
           "maximum when a run has <= 10 ops); percentile and count are "
           "printed beside it"),
    Metric("throughput_ops_s", "1/s", "higher",
           "ops completed per second of the measured phase"),
    Metric("cpu_per_op_s", "s", "lower",
           "CPU seconds per op: this process (all threads) + every "
           "worker process (/proc/<pid>/stat utime+stime)"),
    Metric("peak_rss_mb", "MB", "lower",
           "summed VmHWM of this process and its live workers"),
)

PER_LAYER = (
    Metric("graph.split_s", "s", "lower", "timing prepare_split",
           "latency_p50_s; setup_s", "cold_plan", "stream_shm"),
    Metric("plan.build_s", "s", "lower",
           "timing build_plan(split=...) (DTLP, factorizations, packing)",
           "latency_p50_s; setup_s", "cold_plan", "served_mesh"),
    Metric("plan.artifact_save_s", "s", "lower", "timing save_plan",
           "latency_p50_s", "cold_plan", "stream_shm"),
    Metric("plan.artifact_load_s", "s", "lower",
           "timing load_plan(mmap=True)",
           "latency_p50_s", "cold_plan", "stream_shm"),
    Metric("plan.artifact_mb", "MB", "lower", "artifact file size",
           "latency_p50_s", "cold_plan", "stream_shm"),
    Metric("runtime.runner_init_s", "s", "lower",
           "timing the runner (or server + front end + client) "
           "constructor", "latency_p50_s (cold_plan); setup_s",
           "cold_plan", "sim_fig11"),
    Metric("runtime.first_solve_s", "s", "lower",
           "timing the first solve", "latency_p50_s (cold_plan); setup_s",
           "cold_plan", "sim_fig11"),
    Metric("runtime.close_s", "s", "lower", "timing close()",
           "latency_p50_s (cold_plan); setup_s", "cold_plan",
           "sim_fig11"),
    Metric("runtime.solve_s", "s", "lower",
           "solve wall time; served_mesh: per-op delta of client.stats() "
           "total_solve_seconds", "latency_p50_s, throughput_ops_s",
           "stream_shm, served_mesh", "cold_plan"),
    Metric("plan.rhs_swap_s", "s", "lower",
           "replaying plan.spread_sources(b) + LocalSystem.response_for "
           "on the op's b", "latency_p50_s", "stream_shm", "sim_fig11"),
    Metric("runtime.stop_checks_per_op", "count", "lower",
           "len(result.errors)", "latency_p50_s, cpu_per_op_s",
           "stream_shm", "cold_plan"),
    Metric("runtime.stop_check_unit_s", "s", "lower",
           "timing gather_shard_states + relative_residual standalone",
           "latency_p50_s, cpu_per_op_s", "stream_shm", "cold_plan"),
    Metric("runtime.verified_stop_ratio", "ratio", "higher",
           "verified stops / epochs run ('round' events in "
           "result.trace)", "latency_tail_s",
           "stream_shm, served_mesh", "sim_fig11"),
    Metric("core.sweeps_per_op", "count", "lower",
           "sum of result.shard_reports[*].sweeps",
           "cpu_per_op_s; latency_tail_s", "stream_shm, served_mesh",
           "cold_plan"),
    Metric("core.sweep_imbalance", "ratio", "lower",
           "max / min of result.shard_reports[*].sweeps",
           "cpu_per_op_s; latency_tail_s", "stream_shm, served_mesh",
           "cold_plan"),
    Metric("core.sweep_unit_s", "s", "lower",
           "timing extract_shards(plan, 2)[k].kernel.sweep(a) "
           "standalone, mean over shards", "cpu_per_op_s, latency_p50_s",
           "stream_shm", "cold_plan"),
    Metric("core.sweep_busy_share", "ratio", "higher",
           "sweeps x sweep unit / (shards x op wall); the rest is "
           "transport, nap and idle", "latency_p50_s",
           "stream_shm, served_mesh", "sim_fig11"),
    Metric("core.useful_sweep_ratio", "ratio", "higher",
           "VTM sweeps to the same tolerance x P (solve_vtm_system) / "
           "DTM subdomain solves on the same b", "cpu_per_op_s",
           "stream_shm, served_mesh", "cold_plan"),
    Metric("core.sweep_mflop", "Mflop", "lower",
           "computed per sweep of all subdomains from n_ports x n_slots",
           "none (roofline context)", "stream_shm", "n/a"),
    Metric("core.sweep_mb", "MB", "lower",
           "computed bytes moved per sweep of all subdomains",
           "none (roofline context)", "stream_shm", "n/a"),
    Metric("sim.events_per_op", "count", "lower",
           "result.iterations of a sim_fig11 op (on other workloads: one "
           "sim_fig11 op run as a probe)", "latency_p50_s (sim_fig11)",
           "sim_fig11", "stream_shm"),
    Metric("sim.us_per_event", "us", "lower",
           "op wall / events, same op", "latency_p50_s (sim_fig11)",
           "sim_fig11", "stream_shm"),
    Metric("sim.sim_time_per_op", "sim_ms", "lower",
           "result.sim_time, same op", "latency_p50_s (sim_fig11)",
           "sim_fig11", "stream_shm"),
    Metric("net.serve_overhead_s", "s", "lower",
           "client round trip - server-side runtime.solve_s",
           "latency_p50_s", "served_mesh", "stream_shm"),
    Metric("net.wire_encode_s", "s", "lower",
           "timing wire.encode_message on op-sized request + response",
           "latency_p50_s", "served_mesh", "stream_shm"),
    Metric("net.wire_decode_s", "s", "lower",
           "timing wire.decode_message on op-sized request + response",
           "latency_p50_s", "served_mesh", "stream_shm"),
    Metric("net.frames_per_op", "count", "lower",
           "per-op delta of repro_mesh_frames_total + "
           "repro_net_frames_sent_total (client.metrics())",
           "cpu_per_op_s, latency_p50_s", "served_mesh", "stream_shm"),
    Metric("net.mesh_direct_ratio", "ratio", "higher",
           "1 - repro_mesh_fallback_total / repro_mesh_frames_total "
           "(per-op deltas)", "cpu_per_op_s, latency_p50_s",
           "served_mesh", "stream_shm"),
    Metric("baseline.direct_s", "s", "lower",
           "scipy splu factor + solve on the same system",
           "none (control: a move means the host changed)", "all", ""),
    Metric("baseline.cg_s", "s", "lower",
           "repro.linalg.iterative.conjugate_gradient to the same "
           "tolerance", "none (control)", "all", ""),
    Metric("baseline.cg_iters", "count", "lower", "CG iterations",
           "none (control)", "all", ""),
    Metric("bench.trace_overhead_ratio", "ratio", "lower",
           "traced / untraced op latency p50 (interleaved in the traced "
           "run)", "none", "all", ""),
    Metric("bench.unaccounted_share", "ratio", "lower",
           "op wall not covered by the layer spans above / op wall",
           "none", "all", ""),
)

#: per-layer metrics a workload does not measure: they print as n/a and
#: carry 0 in the result line
NOT_APPLICABLE = {
    "stream_shm": {"net.serve_overhead_s", "net.frames_per_op",
                   "net.mesh_direct_ratio"},
    "served_mesh": set(),
    "cold_plan": {"net.serve_overhead_s", "net.frames_per_op",
                  "net.mesh_direct_ratio"},
    "sim_fig11": {"runtime.close_s", "runtime.verified_stop_ratio",
                  "core.sweeps_per_op", "core.sweep_imbalance",
                  "core.sweep_busy_share", "net.serve_overhead_s",
                  "net.frames_per_op", "net.mesh_direct_ratio"},
}
