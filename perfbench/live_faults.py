"""Workload ``live_faults``: the asyncio stack on the virtual clock,
faulted while it converges.

Input: a ``LocalCluster`` of 128 peers on a ``ChaosHub`` (seeded from
the workload seed), a 0.4 s NEWSCAST warm-up, then the start signal.
Fabric-wide link faults begin at t=0 (drop 0.1, duplicate 0.05, reorder
0.05, 10 ms jitter); a targeted kill of 25% of the peers lands at 0.1 s
and a restart of every killed peer at 0.5 s.  The run lasts a fixed 1.2
virtual seconds after the start signal, polling convergence every
0.05 s, whether or not the cluster is perfect earlier.  128 peers
converge within about 0.3 virtual s, so the kill comes after two
bootstrap cycles to land while the cluster still converges; after the
restart they are perfect again at 0.6-0.75 virtual s.

This is the per-datagram Python path no engine workload touches:
codec, fabric, peer retry and liveness, the core protocol, live
NEWSCAST and tracker polling.

Operations are the peers that must hold perfect tables at the end.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from perfbench.common import RoundResult, derive, digest, span
from perfbench.tables import PerfectTables

SIZE = 128
WARMUP = 0.4
BUDGET = 1.2
POLL = 0.05
CYCLE = 0.05
KILL_FRACTION = 0.25
KILL_AT = 0.1
RESTART_AT = 0.5
LINK_FAULTS = {"drop": 0.1, "duplicate": 0.05, "reorder": 0.05, "jitter": 0.01}
OPS = SIZE
#: Set-ups timed before each round, besides the round's own.
SETUPS_PER_ROUND = 1


@dataclass(frozen=True)
class Inputs:
    cluster_seed: int


def make_inputs(seed: int) -> Inputs:
    return Inputs(cluster_seed=derive(seed, "live_faults", 1)[0])


def describe(inputs: Inputs) -> str:
    return (
        f"peers={SIZE} warmup={WARMUP}s budget={BUDGET}s faults={LINK_FAULTS} "
        f"kill={KILL_FRACTION}@{KILL_AT}s restart@{RESTART_AT}s "
        f"cluster_seed={inputs.cluster_seed}"
    )


def schedule():
    from repro.net.chaos import ChaosEvent, ChaosSchedule

    return ChaosSchedule.of(
        ChaosEvent.of(0.0, "link_faults", **LINK_FAULTS),
        ChaosEvent.of(KILL_AT, "kill", fraction=KILL_FRACTION, mode="targeted"),
        ChaosEvent.of(RESTART_AT, "restart"),
    )


async def _deploy(inputs: Inputs, tracer):
    """Cluster creation plus the NEWSCAST warm-up: the set-up."""
    from repro.core.config import PAPER_CONFIG
    from repro.net.chaos import ChaosHub
    from repro.net.cluster import LocalCluster
    from repro.simulator.random_source import RandomSource

    source = RandomSource(inputs.cluster_seed)
    hub = ChaosHub(rng=source.derive("chaos-hub"))
    with span(tracer, "net.cluster_create"):
        cluster = await LocalCluster.create(
            SIZE,
            seed=inputs.cluster_seed,
            config=PAPER_CONFIG.with_overrides(cycle_length=CYCLE),
            hub=hub,
        )
    cluster.start_sampling_layer()
    await cluster.warmup(WARMUP)
    return source, hub, cluster


def setup_once(inputs: Inputs, workdir) -> float:
    """One more set-up, timed; the cluster is then shut down."""
    from repro.net.chaos import run_virtual

    async def setup_only() -> float:
        _, _, cluster = await _deploy(inputs, None)
        elapsed = time.perf_counter() - start
        await cluster.shutdown()
        return elapsed

    start = time.perf_counter()
    return run_virtual(setup_only())


@dataclass
class LiveRun:
    cluster: object
    applied: list
    polls: list
    totals: dict
    hub_counters: dict
    crashes: dict
    setup_end: float


async def _run(inputs: Inputs, tracer) -> LiveRun:
    from repro.net.chaos import ChaosController

    source, hub, cluster = await _deploy(inputs, tracer)
    setup_end = time.perf_counter()
    cluster.broadcast_start()
    loop = asyncio.get_running_loop()
    started = loop.time()
    controller = ChaosController(
        cluster, hub, schedule(), source.derive("controller")
    )
    faults = asyncio.ensure_future(controller.run())
    polls = []
    tick = 0
    while True:
        sample = cluster.measure()
        polls.append(
            (round(loop.time() - started, 9), sample.missing_leaf,
             sample.missing_prefix)
        )
        tick += 1
        if tick * POLL > BUDGET + 1e-9:
            break
        await asyncio.sleep(started + tick * POLL - loop.time())
    await faults
    totals: dict[str, int] = {}
    for peer in cluster.live_peers():
        for key, value in peer.resilience_snapshot().items():
            totals[key] = totals.get(key, 0) + value
    crashes = await cluster.shutdown()
    return LiveRun(
        cluster=cluster,
        applied=list(controller.applied),
        polls=polls,
        totals=totals,
        hub_counters=hub.counters(),
        crashes=crashes,
        setup_end=setup_end,
    )


def _check(run: LiveRun) -> tuple[list[str], set[int]]:
    """Problems of the whole run, and the peers whose tables fail."""
    problems: list[str] = []
    events = schedule().events
    kinds = [event["kind"] for event in run.applied]
    if kinds != [event.kind for event in events]:
        problems.append(f"applied events {kinds}")
    for event, applied in zip(events, run.applied, strict=False):
        if abs(applied["time"] - event.at) > 1e-6:
            problems.append(f"{event.kind} applied at {applied['time']}")
        if event.kind in ("link_faults", "kill"):
            before = [p for p in run.polls if p[0] < event.at] or run.polls[:1]
            if before[-1][1:] == (0, 0):
                problems.append(f"cluster already perfect before {event.kind}")
    killed = round(SIZE * KILL_FRACTION)
    effects = {a["kind"]: a for a in run.applied}
    if effects.get("kill", {}).get("killed") != killed:
        problems.append("kill did not take a quarter of the peers")
    if effects.get("restart", {}).get("restarted") != killed:
        problems.append("restart did not revive every killed peer")
    if run.crashes or run.totals.get("crashes"):
        problems.append(f"{len(run.crashes)} peers crashed")

    peers = run.cluster.live_peers()
    perfect = PerfectTables([peer.node_id for peer in peers])
    base = perfect.base
    l_own, l_ids, p_own, p_ids, p_slots = [], [], [], [], []
    for peer in peers:
        node = peer.bootstrap
        for member in node.leaf_set.member_ids():
            l_own.append(peer.node_id)
            l_ids.append(member)
        for (row, column), descriptors in node.prefix_table.iter_slots():
            for desc in descriptors:
                p_own.append(peer.node_id)
                p_ids.append(desc.node_id)
                p_slots.append(row * base + column)
    audit = perfect.audit(l_own, l_ids, p_own, p_ids, p_slots)
    problems += audit.problems
    wrong = (
        (audit.missing_leaf > 0)
        | (audit.missing_prefix > 0)
        | (audit.leaf_sizes != perfect.leaf_valid.sum(axis=1))
    )
    failed = {int(i) for i in wrong.nonzero()[0]}
    if failed:
        problems.append(f"{len(failed)} peers do not hold perfect tables")
    if len(peers) != SIZE:
        problems.append(f"{len(peers)} live peers at the end")
    return problems, failed


def run_round(inputs: Inputs, workdir, tracer) -> RoundResult:
    from repro.net.chaos import run_virtual

    start = time.perf_counter()
    with span(tracer, "net.loop"):
        run = run_virtual(_run(inputs, tracer))
    wall = time.perf_counter() - start
    problems, failed = _check(run)
    if problems and not failed:
        failed = set(range(OPS))
    last_fault = max(event.at for event in schedule().events)
    perfect_at = next(
        (p[0] for p in run.polls if p[0] >= last_fault and p[1:] == (0, 0)),
        None,
    )
    totals = run.totals
    return RoundResult(
        wall_s=wall,
        setup_s=run.setup_end - start,
        exchanges=totals["exchanges_ok"],
        digest=digest(
            (run.applied, run.polls, sorted(totals.items()),
             sorted(run.hub_counters.items()), len(run.crashes))
        ),
        counters={
            "datagrams": run.hub_counters["datagrams_sent"],
            "frames_in": totals["frames_in"],
            "exchanges_ok": totals["exchanges_ok"],
            "retries": totals["retries_sent"],
            "perfect_at_virtual_s": perfect_at,
        },
        facts={
            "net_exchanges_ok": totals["exchanges_ok"],
            "net_exchanges_failed": totals["exchanges_failed"],
            "net_retries": totals["retries_sent"],
        },
        failed_ops=failed,
        problems=problems,
    )


def install_patches(patches, trace_dir=None) -> None:
    """Spans for the codec, fabric, peer, protocol, NEWSCAST and
    tracker layers."""
    from repro.core.convergence import ConvergenceTracker
    from repro.core.protocol import BootstrapNode
    from repro.core.reference import ReferenceTables
    from repro.net import codec
    from repro.net.chaos import ChaosHub
    from repro.net.peer import AsyncPeer
    from repro.sampling.newscast import NewscastNode

    patches.wrap(
        codec, "encode_message", "net.codec_encode", size_counter="net.wire_bytes"
    )
    patches.wrap(codec, "encode_bootstrap", "net.codec_encode_bootstrap")
    patches.wrap(codec, "decode_message", "net.codec_decode")
    patches.wrap(codec, "decode_bootstrap", "net.codec_decode_bootstrap")
    patches.wrap(ChaosHub, "send", "net.hub_send")
    patches.wrap(AsyncPeer, "on_datagram", "net.peer_receive")
    patches.wrap(BootstrapNode, "create_message", "core.create_message")
    patches.wrap(BootstrapNode, "absorb", "core.absorb")
    patches.wrap(ConvergenceTracker, "measure", "core.tracker_measure")
    patches.wrap(NewscastNode, "merge", "sampling.newscast")
    patches.wrap(NewscastNode, "gossip_payload", "sampling.newscast")
    patches.wrap(ReferenceTables, "__init__", "core.reference_build")
    patches.wrap(ReferenceTables, "perfect_leaf_ids", "core.perfect_tables")
    patches.wrap(ReferenceTables, "perfect_prefix_counts", "core.perfect_tables")
