"""End-to-end benchmark of the simulator: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload packet_fig1 --seed 20150817 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` makes the separate traced run
and reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every simulated output checked out (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads
from tracing import SamplingProfiler, SpanRecorder, diagnostic_values, ratio, traced
from workloads import ROOT, SRC, WORK, Unit, make, run_probe, unit_seed

from repro.experiments.config import FIDELITY_FLOW
from repro.metrics.collector import ExperimentMetrics
from repro.metrics.stats import percentile
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed per run for set-up, and for the warm pass shared
#: out over the run's units (at least one each); each metric is their median,
#: because one interpreter's time is not a steady sample (see README.md).
SETUP_PROBES = 5
WARM_PROBES = 5


def source_hash() -> str:
    """Digest of the simulator and benchmark source, which fix the outputs."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_recorded_digests(name: str, size: str, units: List[Unit]) -> None:
    """Compare each unit's outputs with earlier runs of the same input and code.

    Digests are kept in ``.perfbench/digests-<source hash>.json`` keyed by
    workload, size and seed, so every run of one input against one version
    of the code -- in this invocation or an earlier one -- must agree.  A unit that
    disagrees has all its operations counted as failed.
    """
    path = WORK / f"digests-{source_hash()}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for unit in units:
        key = f"{name}/{size}/{unit.seed}"
        expected = recorded.setdefault(key, unit.digest)
        if unit.digest != expected:
            unit.problems.append(f"outputs of {key} differ from an earlier run ({expected[:12]})")
            unit.failed = unit.attempted
    WORK.mkdir(exist_ok=True)
    temporary = path.with_suffix(f".{os.getpid()}.tmp")
    temporary.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(temporary, path)


def end_to_end_metrics(units: List[Unit], setups: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(unit.wall_s for unit in units),
        "setup_s": statistics.median(setups),
        "cached_wall_s": statistics.median(sample for unit in units for sample in unit.cached_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def simulated_outputs(unit: Unit) -> Dict[str, float]:
    """Figure-1 outputs per protocol, pooled over the unit's runs.

    Reported and compared between versions, never gated: for a model,
    lower is not better.  p80 is the highest percentile with at least ten
    of the ~60 short flows of a Figure-1 run beyond it; ``sim.short_flows``
    states the sample count.
    """
    outputs: Dict[str, float] = {}
    for protocol in (PROTOCOL_MPTCP, PROTOCOL_MMPTCP):
        runs = [result for result in unit.results if result.config.protocol == protocol]
        pooled = ExperimentMetrics(
            flows=[flow for result in runs for flow in result.metrics.flows],
            duration_s=max((result.config.horizon_s for result in runs), default=0.0),
        )
        fct_ms = pooled.short_flow_fct_ms()
        outputs[f"sim.short_flows.{protocol}"] = len(pooled.short_flows)
        outputs[f"sim.short_fct_p50_ms.{protocol}"] = percentile(fct_ms, 50)
        outputs[f"sim.short_fct_p80_ms.{protocol}"] = percentile(fct_ms, 80)
        outputs[f"sim.rto_incidence.{protocol}"] = pooled.rto_incidence()
        outputs[f"sim.long_tput_mbps.{protocol}"] = pooled.mean_long_flow_throughput_bps() / 1e6
    outputs["outputs.digest"] = int(unit.digest[:13], 16)
    return outputs


def layer_metrics(
    unit: Unit,
    reference: Unit,
    spans: SpanRecorder,
    profiler: SamplingProfiler,
    import_s: float,
    scaling_exponent: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced unit (see layer_map.json)."""
    results = unit.results
    flows = [flow for result in results for flow in result.metrics.flows]
    fluid = [result for result in results if result.config.fidelity == FIDELITY_FLOW]
    events = sum(result.events_processed for result in results)
    self_s = profiler.package_self_s()
    sim_run_s = spans.total_s("sim.run")
    reused = sum(diagnostic_values(results, ("packet_pool", "reused")))
    allocated = sum(diagnostic_values(results, ("packet_pool", "allocated")))
    core = [result.metrics.network.layer_loss.get("core") for result in results]
    core = [stats for stats in core if stats is not None]
    sent = sum(flow.data_packets_sent for flow in flows)
    retransmitted = sum(flow.retransmitted_packets for flow in flows)
    mmptcp_done = [
        flow for flow in flows
        if flow.protocol == PROTOCOL_MMPTCP and flow.completion_time is not None
    ]
    solves = spans.count("fluid.solve")
    metrics = {
        "sim.run_s": sim_run_s,
        "sim.events": events,
        "sim.us_per_event": ratio(sim_run_s, events) * 1e6,
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.timer_wheel_sweeps": sum(
            diagnostic_values(results, ("engine", "timer_wheel_sweeps"))),
        "sim.heap_compactions": sum(diagnostic_values(results, ("engine", "heap_compactions"))),
        "net.self_s": self_s.get("net", 0.0),
        "net.packets_delivered": sum(
            diagnostic_values(results, ("handlers", "Interface._deliver"))),
        "net.pool_reuse_ratio": ratio(reused, reused + allocated),
        "net.pool_highwater": max(diagnostic_values(results, ("packet_pool", "highwater")),
                                  default=0),
        "net.drops": sum(result.metrics.network.total_packets_dropped for result in results),
        "net.core_loss_rate": ratio(sum(stats.dropped_packets for stats in core),
                                    sum(stats.offered_packets for stats in core)),
        "transport.self_s": self_s.get("transport", 0.0),
        "core.self_s": self_s.get("core", 0.0),
        "transport.create_s": spans.total_s("transport.create"),
        "transport.rto_events": sum(flow.rto_events for flow in flows),
        "transport.fast_retransmits": sum(flow.fast_retransmits for flow in flows),
        "transport.spurious_retransmits": sum(flow.spurious_retransmits for flow in flows),
        "transport.retransmitted_packets": retransmitted,
        "transport.duplicate_acks": sum(flow.duplicate_acks for flow in flows),
        "transport.useful_send_ratio": 1.0 - ratio(retransmitted, sent),
        "core.reordering_events": sum(flow.reordering_events for flow in flows),
        "core.scatter_phase_completions": ratio(
            sum(1 for flow in mmptcp_done if flow.phase_at_completion == "packet_scatter"),
            len(mmptcp_done)),
        "fluid.run_s": spans.total_s("fluid.run"),
        "fluid.solve_s": spans.total_s("fluid.solve"),
        "fluid.solves": solves,
        "fluid.us_per_solve": ratio(spans.total_s("fluid.solve"), solves) * 1e6,
        "fluid.events_per_flow": ratio(sum(result.events_processed for result in fluid),
                                       sum(result.workload_size for result in fluid)),
        "fluid.scaling_exponent": scaling_exponent,
        "topology.build_s": spans.total_s("topology.build"),
        "topology.builds": spans.count("topology.build"),
        "traffic.build_s": spans.total_s("traffic.build"),
        "traffic.flows": len(flows),
        "setup.import_s": import_s,
        "store.put_s": spans.total_s("store.put"),
        "store.puts": spans.count("store.put"),
        "store.bytes_written": spans.bytes_written,
        "store.index_s": spans.total_s("store.index"),
        "store.get_s": spans.total_s("store.get"),
        "store.gets": spans.count("store.get"),
        "campaigns.plan_s": spans.total_s("campaigns.plan"),
        "campaigns.cache_hits": unit.cache_hits,
        "campaigns.simulated": unit.simulated,
        "campaigns.report_s": spans.total_s("campaigns.report"),
        "metrics.summary_s": spans.total_s("metrics.summary"),
        "trace.overhead_s": unit.wall_s - reference.wall_s,
    }
    metrics.update(simulated_outputs(unit))
    return metrics


def traced_run(name: str, workload: Any, seed: int, size: str) -> Tuple[List[Unit], Dict]:
    """The separate traced run: an untraced reference unit, then a traced one.

    Both units see a warm process (the reference pays the first-run costs),
    so their difference is the tracing overhead alone.  The traced unit's
    packet-pool counters therefore describe a pool the reference filled.
    """
    imports = [run_probe("setup", name, seed, size)[1]["import_s"] for _ in range(3)]
    reference = workload.run_unit(seed, warm_probes=0)
    gc.collect()
    spans, profiler = SpanRecorder(), SamplingProfiler()
    with traced(spans, profiler):
        unit = workload.run_unit(seed, warm_probes=0, traced=True)
    if unit.digest != reference.digest:
        unit.problems.append("traced outputs differ from the untraced ones")
        unit.failed = unit.attempted
    exponent = 0.0
    if name == "fluid_scale" and reference.results:
        half_wall_s, half_flows = workload.half_size_run(seed)
        full_flows = reference.results[0].workload_size
        exponent = math.log(reference.wall_s / half_wall_s) / math.log(full_flows / half_flows)
    WORK.mkdir(exist_ok=True)
    (WORK / f"trace-{name}-{seed}.json").write_text(json.dumps(spans.as_records()))
    metrics = layer_metrics(unit, reference, spans, profiler,
                            statistics.median(imports), exponent)
    return [reference, unit], metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget; sets how many units one run makes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'smoke' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_units = {entry["name"]: entry["unit"]
                    for entry in declared["per_layer" if args.trace else "end_to_end"]}
    workload = make(args.workload, args.size)

    if args.trace:
        units, values = traced_run(args.workload, workload, args.seed, args.size)
    else:
        count = max(1, int(args.seconds // workloads.SIZES[args.size][args.workload]["unit_s"]))
        setups = [run_probe("setup", args.workload, args.seed, args.size)[0]
                  for _ in range(SETUP_PROBES)]
        units = []
        for index in range(count):
            gc.collect()  # no unit inherits the garbage of the one before
            warm_probes = WARM_PROBES // count + (index < WARM_PROBES % count)
            units.append(workload.run_unit(unit_seed(args.seed, index),
                                           warm_probes=max(1, warm_probes)))
        values = end_to_end_metrics(units, setups)
    check_recorded_digests(args.workload, args.size, units)

    if set(values) != set(metric_units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(metric_units))} do not match "
                           "BENCHMARK.json")
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    for unit in units:
        cached = " ".join(f"{sample:.4f}" for sample in unit.cached_s)
        print(f"unit seed={unit.seed} wall_s={unit.wall_s:.4f} "
              f"cached_s=[{cached}] digest={unit.digest[:16]} "
              f"ops={unit.attempted} failed={unit.failed}")
        for problem in unit.problems:
            print(f"  FAILED: {problem}")
    for name in metric_units:
        print(f"{name:34s} {values[name]:>16.6g} {metric_units[name]}")
    print(f"{'error_rate':34s} {ratio(failed, attempted):>16.6g} ({failed}/{attempted})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
