"""The benchmark's workloads, built only from the simulator's public API.

Each workload is one kind of run users make:

* ``packet_fig1`` -- the paper's Figure-1 pair: one seeded short/long
  workload on the quick-scale FatTree, run under MPTCP-8 and then MMPTCP;
* ``fluid_scale`` -- the flow-fidelity (fluid) tier driven at a few hundred
  MMPTCP flows on the tiny fabric;
* ``campaign_store`` -- a flow-fidelity campaign written cold into a fresh
  run store, then re-run warm (every cell a cache hit) with its report.

A workload exposes ``setup(seed)`` (everything before the first simulated
event or cell dispatch), ``warm_pass(seed, store)`` (the all-cache-hit pass
over a store its cold pass filled) and ``run_unit(seed)``, which performs
one timed unit and returns a :class:`Unit` carrying its wall times, the
digest of its simulated outputs and its operation counts.  Set-up and the
warm pass are timed in fresh interpreters (``probe.py``), because that is
where a user pays them: in a new CLI invocation.  Every time is measured in
reference seconds (``hostclock``), which the load of a shared host moves far
less than wall time.

Configurations are written out here in full rather than imported from
``benchmarks/``, so editing a figure benchmark can never change what this
benchmark measures.  Importing this module puts the checkout's ``src/`` first
on ``sys.path`` and refuses to run against any other copy of the simulator.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run stores and trace files, inside the checkout.
WORK = ROOT / ".perfbench"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no simulator source at {SRC}")
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
    raise SystemExit(f"perfbench: imported repro from {repro.__file__}, expected {SRC}")

from hostclock import measure  # noqa: E402

from repro.campaigns import runner as campaigns  # noqa: E402
from repro.campaigns.spec import CampaignSpec  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.experiments.config import FIDELITY_FLOW, ExperimentConfig  # noqa: E402
from repro.flowlevel import FlowLevelEngine, FluidFabric  # noqa: E402
from repro.scenarios.spec import tiny_config  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.randomness import RandomStreams  # noqa: E402
from repro.sim.units import megabits_per_second, megabytes  # noqa: E402
from repro.store.canonical import run_key  # noqa: E402
from repro.store.runstore import RunStore  # noqa: E402
from repro.store.serialize import result_from_dict  # noqa: E402
from repro.traffic.flowspec import (  # noqa: E402
    PROTOCOL_MMPTCP,
    PROTOCOL_MPTCP,
    PROTOCOL_TCP,
    FlowSpec,
)
from repro.traffic.workloads import Workload  # noqa: E402

#: The workload seed when none is given (the paper's conference date).
DEFAULT_SEED = 20150817

#: The campaign's scenarios: every registered one except the three mobility
#: scenarios (vm-migration, vip-failover, rolling-drain), which the flow tier
#: rejects by design.
CAMPAIGN_SCENARIOS = (
    "baseline",
    "core-link-failure",
    "agg-edge-flap",
    "degraded-core",
    "oversubscribed-core",
    "asymmetric-fabric",
    "incast-burst",
    "incast-link-failure",
)

#: Per-size parameters.  ``full`` is what the benchmark measures; ``smoke``
#: shrinks every workload to a fraction of a second for the smoke test.
#: ``unit_s`` is the nominal time of one unit in reference seconds; a run of
#: ``--seconds S`` makes ``max(1, S // unit_s)`` units, so the number of
#: samples behind a median never depends on how busy the host was.  The
#: fluid and campaign units are sized so that the declared 25 s gives two
#: units, whose inputs differ: a fluid run's time varies by about 10% with
#: its seed, because the flows' paths set how many share each bottleneck.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "packet_fig1": {"unit_s": 23.0, "overrides": {}},
        "fluid_scale": {"unit_s": 11.0, "flows": 400},
        "campaign_store": {"unit_s": 10.5, "replications": 32},
    },
    "smoke": {
        "packet_fig1": {
            "unit_s": 0.5,
            "overrides": {"hosts_per_edge": 2, "long_flow_size_bytes": 200_000,
                          "max_short_flows": 8},
        },
        "fluid_scale": {"unit_s": 0.5, "flows": 40},
        "campaign_store": {"unit_s": 0.5, "replications": 1},
    },
}


def unit_seed(seed: int, index: int) -> int:
    """The workload seed of unit ``index`` in a run seeded ``seed``.

    Unit 0 uses ``seed`` itself; later units draw fresh inputs, which
    averages what input-to-input variation of host time is left.
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def digest_of(payload: Any) -> str:
    """SHA-256 of a JSON rendering of simulated outputs (sorted keys)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def figure1_workload(config: ExperimentConfig, host_names: List[str]) -> Workload:
    """A Figure-1 short/long workload that offers the same work at every seed.

    Host time follows packet-hops.  The program's own generator draws a
    random permutation (a pair may share an edge switch or cross the core)
    and a Poisson number of short flows, so a pair's host time varies by
    about 10% between seeds.  Here every host sends to a host in another pod
    (a random derangement of the pods, hosts matched at random within each
    pod pair), a fixed share of the senders send one long flow, and exactly
    ``max_short_flows`` short flows arrive uniformly over the arrival window
    (a Poisson process conditioned on its count).
    """
    rng = random.Random(config.seed)
    pods: Dict[str, List[str]] = {}
    for name in sorted(host_names):  # FatTree hosts are named host-<pod>-<edge>-<index>
        pods.setdefault(name.split("-")[1], []).append(name)
    order = sorted(pods)
    targets = list(order)
    while any(pod == target for pod, target in zip(order, targets)):
        rng.shuffle(targets)
    pairs = []
    for pod, target in zip(order, targets):
        destinations = list(pods[target])
        rng.shuffle(destinations)
        pairs.extend(zip(pods[pod], destinations))
    long_count = round(len(pairs) * config.long_flow_fraction)
    long_indices = set(rng.sample(range(len(pairs)), long_count))
    short_pairs = [pair for index, pair in enumerate(pairs) if index not in long_indices]

    def flow(pair: Tuple[str, str], size: int, start: float, is_long: bool) -> FlowSpec:
        return FlowSpec(
            flow_id=0, source=pair[0], destination=pair[1], size_bytes=size,
            start_time=start, protocol=config.protocol, is_long=is_long,
            num_subflows=config.num_subflows,
        )

    flows = [flow(pairs[index], config.long_flow_size_bytes, rng.uniform(0.0, 0.05), True)
             for index in sorted(long_indices)]
    flows += sorted(
        (flow(rng.choice(short_pairs), config.short_flow_size_bytes,
              rng.uniform(0.0, config.arrival_window_s), False)
         for _ in range(config.max_short_flows)),
        key=lambda spec: spec.start_time,
    )
    for flow_id, spec in enumerate(flows, start=1):
        spec.flow_id = flow_id
    return Workload(flows=flows)


@dataclass
class Unit:
    """What one timed unit produced."""

    seed: int
    wall_s: float
    #: Mean time of the warm pass in each fresh interpreter that ran it.
    cached_s: List[float]
    digest: str
    attempted: int
    failed: int
    #: Why operations failed, one line each (empty when none did).
    problems: List[str] = field(default_factory=list)
    #: Every simulated result of the cold pass, for the traced counters.
    results: List[Any] = field(default_factory=list)
    #: Campaign cache hits and fresh simulations over both passes.
    cache_hits: int = 0
    simulated: int = 0


#: Fresh interpreters answer here: ``probe.py setup|cached WORKLOAD SEED SIZE [STORE]``.
PROBE = Path(__file__).with_name("probe.py")
#: Upper bound on one probe before the run is declared broken.
PROBE_TIMEOUT_S = 120
#: Seconds over which one fresh interpreter repeats the warm pass (at least
#: once) and takes its mean time: a replay takes milliseconds.
WARM_WINDOW_S = {"full": 0.5, "smoke": 0.05}


def run_probe(*args: Any) -> Tuple[float, Dict[str, Any]]:
    """Run ``probe.py`` in a fresh interpreter.

    Returns the reference seconds from spawn to its one-line JSON reply,
    and the reply.  The child runs a reference clock from its first line and
    reports its ``calibration_s`` and ``speed``, which convert the wall time
    seen here.  The child's exit is waited for but not timed.  Raises
    ``RuntimeError`` when the probe fails.
    """
    command = [sys.executable, str(PROBE), *map(str, args)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=PROBE_TIMEOUT_S)
    if child.returncode != 0 or not line:
        raise RuntimeError(f"probe {args} exited with {child.returncode}")
    reply = json.loads(line)
    return (elapsed - reply["calibration_s"]) * reply["speed"], reply


def mean_over_window(action: Callable[[], Any], window_s: float) -> Tuple[float, Any]:
    """Repeat ``action`` until ``window_s`` wall seconds have passed (at
    least once).

    Returns the mean reference seconds per call and the last call's result.
    The garbage collector is off while timing, as ``timeit`` does.
    """
    calls = 0
    result = None
    deadline = time.perf_counter() + window_s

    def repeat() -> None:
        nonlocal calls, result
        while calls == 0 or time.perf_counter() < deadline:
            result = action()
            calls += 1

    gc.collect()
    gc.disable()
    try:
        seconds, _ = measure(repeat)
    finally:
        gc.enable()
    return seconds / calls, result


class _Workload:
    """What every workload shares: its size and how its warm pass is run."""

    name = ""
    size = "full"

    def warm_pass(self, seed: int, store: RunStore) -> Dict[str, Any]:
        raise NotImplementedError

    def timed_warm_passes(self, seed: int, root: Path, probes: int) -> List[Dict[str, Any]]:
        """The warm pass over the store at ``root`` in ``probes`` fresh
        interpreters, as a user re-running later would.  With ``probes`` 0
        it runs once in this process instead, so the traced run sees it."""
        if probes == 0:
            return [self.warm_pass(seed, RunStore(root))]
        return [run_probe("cached", self.name, seed, self.size, root)[1] for _ in range(probes)]


class _StoreReplay(_Workload):
    """Shared cold-run / warm-replay logic of the single-run workloads.

    The cold pass simulates each config; the cached pass is what a user
    re-rendering the same figure from a warm run store pays: derive each
    run's key, read and verify its artifact, and rebuild its summary.
    """

    def configs(self, seed: int) -> List[ExperimentConfig]:
        raise NotImplementedError

    def workload(self, config: ExperimentConfig) -> Optional[Workload]:
        """The run's input; None lets the program build its own."""
        return None

    def run_unit(self, seed: int, warm_probes: int, traced: bool = False) -> Unit:
        configs = self.configs(seed)
        problems: List[str] = []
        results = []

        def simulate() -> None:
            for config in configs:
                try:
                    results.append(runner.run_experiment(
                        config, workload=self.workload(config), profile=traced))
                except Exception as exc:  # a failed run is counted, not fatal
                    problems.append(f"{config.protocol} run raised {exc!r}")

        wall_s, _ = measure(simulate)
        digest = digest_of([result.metrics.summary_dict() for result in results])
        unit = Unit(seed, wall_s, [], digest, len(configs), len(problems), problems, results)
        if problems:
            return unit
        root = WORK / f"store-{self.name}-{seed}"
        shutil.rmtree(root, ignore_errors=True)
        try:
            store = RunStore(root)
            for config, result in zip(configs, results):
                store.put(run_key(config), result)
            warm = self.timed_warm_passes(seed, root, warm_probes)
        except Exception as exc:  # a failed warm pass is counted, not fatal
            warm = [{"seconds": 0.0, "digest": repr(exc)}]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        unit.cached_s = [reply["seconds"] for reply in warm]
        for reply in warm:
            if reply["digest"] != digest:
                unit.problems.append(f"warm replay gave other outputs: {reply['digest'][:40]}")
                unit.failed = unit.attempted
        return unit

    def warm_pass(self, seed: int, store: RunStore) -> Dict[str, Any]:
        """Replay the unit's runs from ``store`` over the warm window."""
        configs = self.configs(seed)

        def replay() -> List[Dict[str, float]]:
            return [
                result_from_dict(store.get_artifact(run_key(config))["payload"])
                .metrics.summary_dict()
                for config in configs
            ]

        seconds, summaries = mean_over_window(replay, WARM_WINDOW_S[self.size])
        return {"seconds": seconds, "digest": digest_of(summaries)}


class PacketFig1(_StoreReplay):
    """Figure 1: one seeded workload under MPTCP-8, then under MMPTCP."""

    name = "packet_fig1"

    def __init__(self, overrides: Dict[str, Any]) -> None:
        self.overrides = overrides

    def base(self, seed: int) -> ExperimentConfig:
        """The quick-scale 64-host, 4:1 over-subscribed FatTree at 100 Mb/s."""
        return ExperimentConfig(
            fattree_k=4,
            hosts_per_edge=8,
            link_rate_bps=megabits_per_second(100),
            arrival_window_s=0.25,
            drain_time_s=1.0,
            short_flow_rate_per_sender=7.0,
            long_flow_size_bytes=megabytes(3),
            max_short_flows=61,
            queue_capacity_packets=100,
            initial_cwnd_segments=2,
            seed=seed,
        ).with_updates(**self.overrides)

    def configs(self, seed: int) -> List[ExperimentConfig]:
        base = self.base(seed)
        return [
            base.with_protocol(PROTOCOL_MPTCP, num_subflows=8),
            base.with_protocol(PROTOCOL_MMPTCP, num_subflows=8),
        ]

    def workload(self, config: ExperimentConfig) -> Workload:
        hosts = runner.build_topology(config, Simulator()).hosts
        return figure1_workload(config, [host.name for host in hosts])

    def setup(self, seed: int) -> None:
        """Build the first run up to its first event: fabric, flows, endpoints."""
        config = self.configs(seed)[0]
        simulator = Simulator()
        streams = RandomStreams(config.seed)
        topology = runner.build_topology(config, simulator)
        workload = figure1_workload(config, [host.name for host in topology.hosts])
        for spec in workload.flows:
            instance = runner.create_flow(spec, config, topology, simulator, streams)
            simulator.schedule_at(spec.start_time, instance.sender.start)


class FluidScale(_StoreReplay):
    """The fluid tier on the tiny fabric at a few hundred MMPTCP flows."""

    name = "fluid_scale"

    def __init__(self, flows: int) -> None:
        self.flows = flows

    def config(self, seed: int, flows: Optional[int] = None) -> ExperimentConfig:
        return tiny_config(seed=seed, protocol=PROTOCOL_MMPTCP).with_updates(
            fidelity=FIDELITY_FLOW,
            max_short_flows=self.flows if flows is None else flows,
            short_flow_rate_per_sender=1200.0,
            arrival_window_s=1.2,
        )

    def configs(self, seed: int) -> List[ExperimentConfig]:
        return [self.config(seed)]

    def setup(self, seed: int) -> None:
        """Build the run up to its first event: fabric, flows, fluid state."""
        config = self.config(seed)
        simulator = Simulator()
        streams = RandomStreams(config.seed)
        topology = runner.build_topology(config, simulator)
        workload = runner.build_workload(config, topology, streams)
        FlowLevelEngine(config, FluidFabric(topology), workload, streams).start()

    def half_size_run(self, seed: int) -> Tuple[float, int]:
        """(reference seconds, flows) of the same run at half the flow target."""
        seconds, result = measure(
            lambda: runner.run_experiment(self.config(seed, flows=self.flows // 2)))
        return seconds, result.workload_size


class CampaignStore(_Workload):
    """A flow-tier campaign: cold into a fresh store, then warm from it."""

    name = "campaign_store"

    def __init__(self, replications: int) -> None:
        self.replications = replications

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            name="perfbench",
            scenarios=CAMPAIGN_SCENARIOS,
            protocols=(PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
            replications=self.replications,
            scale="tiny",
            seed=seed,
            config_overrides={"fidelity": FIDELITY_FLOW},
        )

    def setup(self, seed: int) -> None:
        """Plan the campaign and derive every cell's key."""
        campaigns.campaign_keys(campaigns.campaign_run_specs(self.spec(seed)))

    def warm_pass(self, seed: int, store: RunStore) -> Dict[str, Any]:
        """Re-run the campaign against its store and render the report,
        over the warm window."""
        spec = self.spec(seed)

        def rerun() -> Tuple[Any, str]:
            warm = campaigns.run_campaign(spec, store, workers=1)
            return warm, campaigns.outcome_report(warm)

        seconds, (warm, report) = mean_over_window(rerun, WARM_WINDOW_S[self.size])
        return {
            "seconds": seconds,
            "digest": digest_of(campaigns.campaign_rows(warm.cells)),
            "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
            "cache_hits": warm.cache_hits,
            "simulated": warm.simulated,
        }

    def run_unit(self, seed: int, warm_probes: int, traced: bool = False) -> Unit:
        spec = self.spec(seed)
        cells = spec.cell_count()
        root = WORK / f"store-{self.name}-{seed}"
        shutil.rmtree(root, ignore_errors=True)
        unit = Unit(seed, 0.0, [], "", attempted=cells * (1 + max(1, warm_probes)), failed=0)
        def cold_pass() -> Tuple[Any, str]:
            cold = campaigns.run_campaign(spec, RunStore(root), workers=1)
            return cold, campaigns.outcome_report(cold)

        try:
            try:
                unit.wall_s, (cold, cold_report) = measure(cold_pass)
            except Exception as exc:
                unit.problems.append(f"cold pass raised {exc!r}")
                unit.failed = unit.attempted
                return unit
            try:
                warm = self.timed_warm_passes(seed, root, warm_probes)
            except Exception as exc:
                unit.problems.append(f"warm pass failed: {exc!r}")
                unit.failed = unit.attempted - cells
                return unit
        finally:
            shutil.rmtree(root, ignore_errors=True)
        unit.cached_s = [reply["seconds"] for reply in warm]
        unit.results = [cell.result for cell in cold.cells]
        unit.digest = digest_of(campaigns.campaign_rows(cold.cells))
        unit.cache_hits = cold.cache_hits
        unit.simulated = cold.simulated
        if cold.simulated != cells or len(cold.cells) != cells:
            unit.problems.append(f"cold pass simulated {cold.simulated} of {cells} cells")
            unit.failed += cells - min(cold.simulated, cells)
        cold_report_sha256 = hashlib.sha256(cold_report.encode()).hexdigest()
        for reply in warm:
            unit.cache_hits += reply["cache_hits"]
            unit.simulated += reply["simulated"]
            if reply["cache_hits"] != cells:
                unit.problems.append(f"warm pass hit {reply['cache_hits']} of {cells} cells")
                unit.failed = min(unit.attempted, unit.failed + cells - reply["cache_hits"])
            if reply["digest"] != unit.digest:
                unit.problems.append("warm cells differ from the cold ones")
                unit.failed = unit.attempted
            if reply["report_sha256"] != cold_report_sha256:
                unit.problems.append("warm report is not byte-identical to the cold one")
                unit.failed = unit.attempted
        return unit


WORKLOADS = {cls.name: cls for cls in (PacketFig1, FluidScale, CampaignStore)}


def make(name: str, size: str = "full"):
    """The workload called ``name`` at ``size`` (``full`` or ``smoke``)."""
    params = {key: value for key, value in SIZES[size][name].items() if key != "unit_s"}
    workload = WORKLOADS[name](**params)
    workload.size = size
    return workload
