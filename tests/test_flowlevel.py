"""Tests for the flow-level (fluid) fidelity tier.

Three contract families:

* **Cross-validation** — on the golden tiny scenarios the fluid tier must
  land within the documented tolerances of the packet engine (FCT mean/p99
  within :data:`FCT_RELATIVE_TOLERANCE`; long-flow throughput optimistic by
  at most :data:`THROUGHPUT_RATIO_BOUNDS`).  These are the numbers the
  README's fidelity-tier table quotes.
* **Determinism** — byte-identical rows for any ``--workers`` value, and
  identical results across repeated in-process runs.
* **Scale** — the whole point of the tier: thousands of flows in a handful
  of events each, with synchronized (incast) arrivals coalescing into one
  rate recomputation per instant.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import FIDELITY_FLOW, FIDELITY_PACKET
from repro.experiments.runner import run_experiment
from repro.flowlevel import FluidFabric, FlowLevelEngine
from repro.net.faults import LINK_UP, FaultEvent, host_migration, link_failure
from repro.scenarios import ScenarioMatrixRunner, matrix_rows, tiny_config
from repro.scenarios.spec import build_scenario_workload
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.store import canonical_dumps
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_TCP, FlowSpec
from repro.traffic.workloads import Workload

#: Validated cross-engine tolerance for short-flow FCT mean and p99 on the
#: golden tiny scenarios (measured divergence is ~11–14%; the bound leaves
#: headroom without letting the model drift into a different regime).
FCT_RELATIVE_TOLERANCE = 0.30

#: Fluid long-flow throughput is *optimistic* — the packet tier pays
#: protocol inefficiencies (slow start re-entry, reordering stalls, RTO
#: idle time) that a loss-free fluid model does not — so the ratio
#: fluid/packet is bounded, not pinned (measured ~1.4–2.1×).
THROUGHPUT_RATIO_BOUNDS = (0.9, 2.6)


def _tiny(protocol: str, fidelity: str, **overrides):
    config = tiny_config(protocol=protocol, **overrides).with_updates(fidelity=fidelity)
    return run_experiment(config)


# ---------------------------------------------------------------------------
# Cross-validation against the packet engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["tcp", "mptcp", "mmptcp"])
def test_fluid_matches_packet_within_documented_tolerances(protocol) -> None:
    packet = _tiny(protocol, FIDELITY_PACKET).metrics.summary_dict()
    fluid = _tiny(protocol, FIDELITY_FLOW).metrics.summary_dict()

    assert fluid["short_completion_rate"] == packet["short_completion_rate"] == 1.0
    for metric in ("short_fct_mean_ms", "short_fct_p99_ms"):
        divergence = abs(fluid[metric] - packet[metric]) / packet[metric]
        assert divergence <= FCT_RELATIVE_TOLERANCE, (
            f"{protocol} {metric}: fluid {fluid[metric]:.3f} vs packet "
            f"{packet[metric]:.3f} diverges {100 * divergence:.1f}%"
        )
    ratio = fluid["long_flow_throughput_mbps"] / packet["long_flow_throughput_mbps"]
    low, high = THROUGHPUT_RATIO_BOUNDS
    assert low <= ratio <= high, f"{protocol} throughput ratio {ratio:.2f}"


def test_fluid_loss_and_rto_columns_are_structurally_zero() -> None:
    summary = _tiny("mmptcp", FIDELITY_FLOW).metrics.summary_dict()
    assert summary["rto_incidence"] == 0.0
    assert summary["edge_loss_rate"] == 0.0
    assert summary["fault_drops"] == 0.0


def test_fluid_runs_orders_of_magnitude_fewer_events() -> None:
    packet = _tiny("mptcp", FIDELITY_PACKET)
    fluid = _tiny("mptcp", FIDELITY_FLOW)
    assert fluid.workload_size == packet.workload_size
    assert fluid.events_processed * 100 < packet.events_processed


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_are_identical() -> None:
    first = _tiny("mmptcp", FIDELITY_FLOW)
    second = _tiny("mmptcp", FIDELITY_FLOW)
    assert first.events_processed == second.events_processed
    assert first.metrics.summary_dict() == second.metrics.summary_dict()
    assert [vars(r) for r in first.metrics.flows] == [
        vars(r) for r in second.metrics.flows
    ]


def test_matrix_rows_are_byte_identical_across_worker_counts() -> None:
    base = tiny_config().with_updates(fidelity=FIDELITY_FLOW)
    scenarios = ("baseline", "core-link-failure")
    protocols = ("tcp", "mmptcp")
    serial = matrix_rows(
        ScenarioMatrixRunner(base, workers=1).run(scenarios=scenarios, protocols=protocols)
    )
    parallel = matrix_rows(
        ScenarioMatrixRunner(base, workers=2).run(scenarios=scenarios, protocols=protocols)
    )
    assert canonical_dumps(serial) == canonical_dumps(parallel)


def test_early_stop_reports_only_the_traffic_it_simulated() -> None:
    """A run cut short by ``max_events`` drains flows up to the simulator's
    stop time, not to the horizon at their last rate."""
    full = _tiny("mmptcp", FIDELITY_FLOW)
    cut = _tiny("mmptcp", FIDELITY_FLOW, max_events=20)
    assert cut.events_processed == 20
    finished = sum(record.completed for record in cut.metrics.flows)
    assert 0 < finished < len(cut.metrics.flows)
    # The cut run simulated a prefix of the full one, so it cannot have
    # carried more bits or loaded the core more.
    assert cut.metrics.network.total_bytes_carried < full.metrics.network.total_bytes_carried
    cut_core = cut.metrics.summary_dict()["core_utilisation"]
    assert cut_core < full.metrics.summary_dict()["core_utilisation"]
    delivered = sum(record.bytes_received for record in cut.metrics.flows)
    assert delivered < sum(record.bytes_received for record in full.metrics.flows)


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


def test_downed_access_link_stalls_its_flows_without_rerouting() -> None:
    # Down host-0-0-0's only access link before any flow starts and never
    # restore it: every flow touching that host must stall (the fluid tier
    # documents stall-don't-reroute), everyone else completes.
    fault = link_failure(0.0, "host-0-0-0", "edge-0-0")
    result = _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(fault,))
    specs = [flow.spec for flow in _flows_of(result)]
    touched, untouched = [], []
    for record, spec in zip(result.metrics.flows, specs):
        bucket = (
            touched
            if "host-0-0-0" in (spec.source, spec.destination)
            else untouched
        )
        bucket.append(record)
    assert touched, "the tiny workload should route through host-0-0-0"
    assert all(record.receiver_completion_time is None for record in touched)
    assert untouched and all(
        record.receiver_completion_time is not None for record in untouched
    )


def _flows_of(result):
    """Rebuild the engine flow list for ``result`` (same seed, same paths)."""
    from repro.experiments.runner import build_topology, build_workload

    simulator = Simulator()
    streams = RandomStreams(result.config.seed)
    topology = build_topology(result.config, simulator)
    workload = build_workload(result.config, topology, streams)
    engine = FlowLevelEngine(result.config, FluidFabric(topology), workload, streams)
    return engine.flows


def test_link_recovery_lets_stalled_flows_finish() -> None:
    down = link_failure(0.0, "host-0-0-0", "edge-0-0")
    recover = FaultEvent(
        time_s=0.5, kind=LINK_UP, node_a="host-0-0-0", node_b="edge-0-0"
    )
    result = _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(down, recover))
    assert all(
        record.receiver_completion_time is not None for record in result.metrics.flows
    )


def test_migrate_host_faults_are_rejected_at_flow_fidelity() -> None:
    fault = host_migration(0.1, "host-0-0-0", "edge-1-0")
    with pytest.raises(ValueError, match="packet fidelity"):
        _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(fault,))


def test_unknown_fault_link_is_rejected() -> None:
    fault = link_failure(0.1, "host-0-0-0", "no-such-node")
    with pytest.raises(ValueError, match="no link between"):
        _tiny("mmptcp", FIDELITY_FLOW, fault_schedule=(fault,))


def test_topology_builder_overrides_are_packet_only() -> None:
    config = tiny_config().with_updates(fidelity=FIDELITY_FLOW)
    with pytest.raises(ValueError, match="packet-fidelity"):
        run_experiment(config, topology_builder=lambda *a, **k: None)


# ---------------------------------------------------------------------------
# Scale and coalescing
# ---------------------------------------------------------------------------


def test_synchronized_incast_coalesces_recomputes() -> None:
    """N same-instant arrivals cost O(1) allocations, not O(N)."""
    config = tiny_config()
    simulator = Simulator()
    streams = RandomStreams(config.seed)
    from repro.experiments.runner import build_topology

    topology = build_topology(config, simulator)
    receiver = "host-0-0-0"
    senders = sorted(host.name for host in topology.hosts if host.name != receiver)
    flows = [
        FlowSpec(
            flow_id=index,
            source=sender,
            destination=receiver,
            size_bytes=20_000,
            start_time=0.01,
            protocol=PROTOCOL_TCP,
        )
        for index, sender in enumerate(senders)
    ]
    engine = FlowLevelEngine(
        config, FluidFabric(topology), Workload(flows=flows), streams
    )
    engine.start()
    simulator.run(until=config.horizon_s)
    metrics = engine.finalise(config.horizon_s)
    assert all(r.receiver_completion_time is not None for r in metrics.flows)
    # One recompute for the synchronized batch plus one per departure event
    # instant (identical transfers may finish staggered once shares shift).
    assert engine.recomputes <= 2 * len(flows)
    assert engine.recomputes < simulator.events_processed


def test_incast_fan_in_shares_fairly() -> None:
    config = tiny_config(protocol=PROTOCOL_MMPTCP).with_updates(fidelity=FIDELITY_FLOW)
    workload = build_scenario_workload(config, "incast", fan_in=8, response_bytes=50_000)
    result = run_experiment(config, workload=workload)
    fcts = [
        record.completion_time
        for record in result.metrics.flows
        if record.receiver_completion_time is not None
    ]
    assert len(fcts) == len(result.metrics.flows)
    # Symmetric senders through one bottleneck: fair sharing keeps the
    # spread of completion times tight.
    assert max(fcts) <= 1.5 * min(fcts)


def test_hundredfold_flow_scale_in_a_handful_of_events_per_flow() -> None:
    """The acceptance headline: ~100× the tiny packet workload's flow count,
    completed at flow-level fidelity with single-digit events per flow."""
    packet_flows = _tiny("mmptcp", FIDELITY_PACKET).workload_size
    config = tiny_config(protocol=PROTOCOL_MMPTCP).with_updates(
        fidelity=FIDELITY_FLOW,
        max_short_flows=packet_flows * 100,
        short_flow_rate_per_sender=1200.0,
        arrival_window_s=1.2,
    )
    result = run_experiment(config)
    assert result.workload_size >= packet_flows * 100
    events_per_flow = result.events_processed / result.workload_size
    assert events_per_flow < 10.0
    summary = result.metrics.summary_dict()
    assert summary["short_completion_rate"] > 0.95
