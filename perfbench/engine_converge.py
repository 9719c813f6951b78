"""Workload ``engine_converge``: one vector-engine simulation through
its converging cycles.

Input: 2^11 identifiers drawn from the seed, the paper's parameters
(b=4, k=3, c=20, cr=30), the oracle sampler, no loss, a fixed budget of
10 cycles and a measurement after every cycle (plus the cycle-0
measurement that ends set-up).  These are the cycles of the paper's
Figure 3 in which the wave kernels do most of their work: the network
converges within them (cycles 1-5 cost about five times as much as
the cycles after).  At 2^11 a round takes about 3 s on a 2-vCPU VM,
so a run times several rounds rather than one (2^13 took 16-29 s).

Operations are cycles.  After each measurement the clock stops and the
benchmark audits every node's tables against :mod:`perfbench.tables`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench.common import RoundResult, derive, digest
from perfbench.tables import PerfectTables

SIZE = 1 << 11
CYCLES = 10
OPS = CYCLES
#: Set-ups timed before each round, besides the round's own.
SETUPS_PER_ROUND = 2
#: Nodes scored per audit pass (bounds the check's memory).
AUDIT_CHUNK = 512


@dataclass(frozen=True)
class Inputs:
    ids: tuple[int, ...]
    engine_seed: int


def make_inputs(seed: int) -> Inputs:
    """2^11 distinct 64-bit identifiers and the engine's RNG seed."""
    id_seed, engine_seed = derive(seed, "engine_converge", 2)
    rng = np.random.default_rng(id_seed)
    ids: dict[int, None] = {}
    while len(ids) < SIZE:
        for x in rng.integers(0, 1 << 64, size=SIZE, dtype=np.uint64):
            ids.setdefault(int(x))
            if len(ids) == SIZE:
                break
    return Inputs(ids=tuple(ids), engine_seed=engine_seed)


def describe(inputs: Inputs) -> str:
    return (
        f"n={SIZE} cycles={CYCLES} sampler=oracle drop=0 "
        f"engine_seed={inputs.engine_seed} ids_digest={digest(inputs.ids)}"
    )


def _build(inputs: Inputs):
    from repro.core.config import PAPER_CONFIG
    from repro.engine_vector import VectorBootstrapSimulation

    sim = VectorBootstrapSimulation(
        ids=list(inputs.ids),
        config=PAPER_CONFIG,
        seed=inputs.engine_seed,
        sampler="oracle",
    )
    return sim, sim.measure()


def setup_once(inputs: Inputs, workdir) -> float:
    """One more set-up (build plus cycle-0 measurement), timed."""
    start = time.perf_counter()
    _build(inputs)
    return time.perf_counter() - start


def audit_sim(sim, perfect: PerfectTables, sample) -> list[str]:
    """Score every node's tables independently against *sample*.

    Nodes are scored in chunks so the check's temporaries stay a few
    MiB, far below the engine's own footprint (the peak-memory metric
    is read after the round).
    """
    by_id = sorted(sim.nodes.items())
    problems: list[str] = []
    missing = [0, 0]
    for lo in range(0, len(by_id), AUDIT_CHUNK):
        chunk = by_id[lo:lo + AUDIT_CHUNK]
        node_ids = np.array([nid for nid, _ in chunk], dtype=np.uint64)
        leaves = [state.leaf for _, state in chunk]
        prefix = [state.prefix_ids for _, state in chunk]
        audit = perfect.audit(
            np.repeat(node_ids, [a.size for a in leaves]),
            np.concatenate(leaves),
            np.repeat(node_ids, [a.size for a in prefix]),
            np.concatenate(prefix),
            np.concatenate([state.prefix_slots for _, state in chunk]),
            rows=perfect.index_of(node_ids),
        )
        problems += audit.problems
        missing[0] += audit.total_missing[0]
        missing[1] += audit.total_missing[1]
    if len(by_id) != perfect.ids.size:
        problems.append(f"{len(by_id)} live nodes, expected {perfect.ids.size}")
    reported = (sample.missing_leaf, sample.missing_prefix)
    if tuple(missing) != reported:
        problems.append(
            f"engine reports missing {reported}, recomputed {tuple(missing)}"
        )
    if perfect.totals() != (sample.total_leaf, sample.total_prefix):
        problems.append(
            f"engine perfect totals {(sample.total_leaf, sample.total_prefix)}"
            f" != recomputed {perfect.totals()}"
        )
    return problems


def run_round(inputs: Inputs, workdir, tracer) -> RoundResult:
    perfect = PerfectTables(inputs.ids)
    problems: list[str] = []
    failed: set[int] = set()

    def check(cycle: int, found: list[str]) -> None:
        for line in found:
            problems.append(f"cycle {cycle}: {line}")
            failed.add(max(cycle, 1))

    start = time.perf_counter()
    sim, sample = _build(inputs)
    setup = time.perf_counter() - start
    busy = setup
    check(0, audit_sim(sim, perfect, sample))
    samples = [sample]
    result = None
    for cycle in range(1, CYCLES + 1):
        start = time.perf_counter()
        result = sim.run(1, stop_when_perfect=False)
        busy += time.perf_counter() - start
        sample = result.samples[-1]
        found = audit_sim(sim, perfect, sample)
        prev = samples[-1]
        if (sample.missing_leaf > prev.missing_leaf
                or sample.missing_prefix > prev.missing_prefix):
            found.append("missing entries rose")
        if sample.cycle != cycle:
            found.append(f"measurement labelled cycle {sample.cycle}")
        check(cycle, found)
        samples.append(sample)
    transport = dict(result.transport)
    for key in ("requests_sent", "exchanges"):
        if transport[key] != SIZE * CYCLES:
            check(CYCLES, [f"{key}={transport[key]} != n x cycles"])
    return RoundResult(
        wall_s=busy,
        setup_s=setup,
        exchanges=int(transport["exchanges"]),
        digest=digest(
            ([s.as_row() for s in samples], sorted(transport.items()))
        ),
        counters={
            "cycles": CYCLES,
            "exchanges": transport["exchanges"],
            "delivered": transport["delivered"],
            "final_missing_leaf": sample.missing_leaf,
            "final_missing_prefix": sample.missing_prefix,
        },
        facts={"engine_exchanges": int(transport["exchanges"])},
        failed_ops=failed,
        problems=problems,
    )


def install_patches(patches, trace_dir=None) -> None:
    """Spans for the vector engine and the reference-table layer."""
    from repro.core.reference import ReferenceTables
    from repro.engine_vector import sim as vsim

    engine = vsim.VectorBootstrapSimulation
    patches.wrap(engine, "__init__", "engine_vector.build")
    patches.wrap(engine, "run_cycle", "engine_vector.cycle")
    patches.wrap(engine, "measure", "engine_vector.measure")
    patches.wrap(engine, "_newscast_cycle", "engine_vector.newscast")
    patches.wrap(engine, "kill_node", "engine_vector.membership")
    patches.wrap(engine, "spawn_node", "engine_vector.membership")
    ops = getattr(vsim, "_ArenaOps", vsim)
    patches.wrap(ops, "select_wave", "engine_vector.select")
    patches.wrap(ops, "create_wave_flat", "engine_vector.wave_build")
    patches.wrap(ops, "absorb_wave_flat", "engine_vector.wave_absorb")
    patches.wrap(ReferenceTables, "__init__", "core.reference_build")
    patches.wrap(ReferenceTables, "perfect_leaf_ids", "core.perfect_tables")
    patches.wrap(ReferenceTables, "perfect_prefix_counts", "core.perfect_tables")
