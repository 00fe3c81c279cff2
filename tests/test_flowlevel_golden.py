"""Golden pin of the flow-level tier's simulated outputs.

Four reference runs at flow fidelity are hashed — SHA-256 over the canonical
JSON of ``summary_dict`` plus every :class:`FlowRecord` field — and compared
against digests captured before the solver and engine state moved to arrays.
The fluid tier's contract is bit-identity: a refactor of the solver, the
engine's bookkeeping or its timer wiring must not move a single simulated
number.  If a behaviour change is *intended*, regenerate with::

    python tests/test_flowlevel_golden.py

and commit the new digests together with the change that explains them.

Runs stopped early by ``max_events`` are deliberately not pinned: how many
events a run counts is an engine detail, not a simulated output.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.experiments.config import FIDELITY_FLOW, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.net.faults import degradation, link_flap
from repro.scenarios.spec import build_scenario_workload, tiny_config
from repro.store import canonical_dumps
from repro.store.canonical import sha256_hex
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP

#: Link-down/up plus degrade/restore on the access, edge-agg and core layers.
_FAULTS = (
    *link_flap(0.02, 0.12, "edge-0-0", "agg-0-0"),
    *link_flap(0.05, 0.30, "core-0", "agg-1-0"),
    *degradation(0.01, "core-1", "agg-0-0", factor=0.25, restore_s=0.20),
    *degradation(0.04, "host-0-0-0", "edge-0-0", factor=0.5, restore_s=0.10),
)


def _flow_config(**overrides) -> ExperimentConfig:
    return tiny_config(**overrides).with_updates(fidelity=FIDELITY_FLOW)


def _scale_run():
    """The perfbench ``fluid_scale`` shape at 200 short flows."""
    config = _flow_config(protocol=PROTOCOL_MMPTCP).with_updates(
        max_short_flows=200, short_flow_rate_per_sender=1200.0, arrival_window_s=1.2
    )
    return run_experiment(config)


def _faulted_run(protocol: str, num_subflows: int):
    config = _flow_config(protocol=protocol, num_subflows=num_subflows)
    return run_experiment(config.with_updates(fault_schedule=_FAULTS))


def _incast_run():
    config = _flow_config(protocol=PROTOCOL_MMPTCP)
    workload = build_scenario_workload(config, "incast", fan_in=12, response_bytes=70_000)
    return run_experiment(config, workload=workload)


RUNS = {
    "mmptcp_200_flows": _scale_run,
    "mptcp8_link_faults": lambda: _faulted_run(PROTOCOL_MPTCP, 8),
    "tcp_link_faults": lambda: _faulted_run(PROTOCOL_TCP, 1),
    "mmptcp_incast": _incast_run,
}

GOLDEN_DIGESTS = {
    "mmptcp_200_flows": "5b88bb64ecf057fcf174ba45efcdce09f6457b6c9687a9bf66b56e3aa21b4df7",
    "mptcp8_link_faults": "44042d81ed3f608f87e22565d500b9d8f15d0be2cd1ea865bccfa4af25d0d711",
    "tcp_link_faults": "11aded302053f7301f33d19a9391e0c18cc6b5afb77cd952b631e03409f95022",
    "mmptcp_incast": "0270fe6dbb57a8e15c664386aeaed2b32799712a81dc84fd51136416c38c06d2",
}


def output_digest(result) -> str:
    """SHA-256 of a run's summary plus every per-flow record, canonically encoded."""
    payload = {
        "summary": result.metrics.summary_dict(),
        "flows": [asdict(record) for record in result.metrics.flows],
    }
    return sha256_hex(canonical_dumps(payload))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_flow_tier_outputs_match_the_golden_digest(name) -> None:
    assert output_digest(RUNS[name]()) == GOLDEN_DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover
    for name in sorted(RUNS):
        print(f'    "{name}": "{output_digest(RUNS[name]())}",')
