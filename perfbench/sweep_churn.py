"""Workload ``sweep_churn``: one scenario grid through ``run_scenario``.

Input: 256 nodes x drop {0, 0.2} x sampler {oracle, newscast} x
schedule {none, churn 1%} x 2 replicas on the vector engine, a fixed 8
cycles each (``stop_when_perfect=False``), 2 worker processes and a
checkpoint directory.  That is 16 shards.  Besides the engine at small
waves it runs what ``engine_converge`` never takes: membership changes
that rebuild the reference tables, the vector NEWSCAST layer, drop
coins, and the sweep runtime's dispatch, columnar transport, streaming
merge and checkpoint journal.

Operations are shards.  Its set-up is the sweep's own path before any
shard is dispatched -- scenario spec, grid expansion and a fresh
checkpoint journal -- timed 25 times per round (about 2 ms each); the
worker pool's start is not observable from outside
``run_scenario`` and counts towards ``wall_s`` only.
"""

from __future__ import annotations

import functools
import math
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import trace
from perfbench.common import RoundResult, derive, digest, span

SIZE = 256
CYCLES = 8
DROPS = (0.0, 0.2)
SAMPLERS = ("oracle", "newscast")
CHURN_RATE = 0.01
REPLICAS = 2
WORKERS = 2
OPS = len(DROPS) * len(SAMPLERS) * 2 * REPLICAS
#: Set-ups timed before each round (a round's own cannot be told apart).
SETUPS_PER_ROUND = 25
#: Tolerance of the binomial drop checks, in standard deviations.
SIGMAS = 5.0


@dataclass(frozen=True)
class Inputs:
    base_seed: int


def make_inputs(seed: int) -> Inputs:
    return Inputs(base_seed=derive(seed, "sweep_churn", 1)[0])


def describe(inputs: Inputs) -> str:
    return (
        f"n={SIZE} drops={DROPS} samplers={SAMPLERS} churn={CHURN_RATE} "
        f"replicas={REPLICAS} cycles={CYCLES} workers={WORKERS} "
        f"base_seed={inputs.base_seed}"
    )


def scenario(inputs: Inputs):
    from repro.runtime.runner import SweepGrid
    from repro.runtime.spec import ScheduleSpec
    from repro.scenarios.spec import ScenarioSpec

    churn = ScheduleSpec.of("churn", rate=CHURN_RATE)
    grid = SweepGrid(
        sizes=(SIZE,),
        drop_rates=DROPS,
        replicas=REPLICAS,
        base_seed=inputs.base_seed,
        max_cycles=CYCLES,
        samplers=SAMPLERS,
        schedule_sets=((), (churn,)),
        engine="vector",
        stop_when_perfect=False,
    )
    return ScenarioSpec(
        name="perfbench_sweep_churn",
        title="churn x loss x NEWSCAST sweep on the vector engine",
        claim="fixed-window quality under loss and churn",
        grid=grid,
        analyses=("convergence", "loss", "quality"),
    )


def setup_once(inputs: Inputs, workdir) -> float:
    """The sweep's set-up path once, journalling into *workdir*."""
    from repro.runtime.checkpoint import CheckpointStore

    start = time.perf_counter()
    spec = scenario(inputs)
    spec.grid.expand()
    CheckpointStore.open(workdir, spec.grid)
    return time.perf_counter() - start


def _traced_shard(trace_dir: str, spec):
    """Worker-side shard runner of the traced round: spans of one shard
    go to their own file."""
    from repro.runtime.columns import execute_run_columns

    tracer = trace.active()
    if tracer is None:
        # A worker started without the parent's memory: patch here.
        from perfbench.engine_converge import install_patches

        tracer = trace.Tracer()
        patches = trace.Patches(tracer)
        patches.__enter__()
        install_patches(patches)
    tracer.reset()
    outcome = execute_run_columns(spec)
    tracer.add("runtime.transport_bytes", len(pickle.dumps(outcome)))
    tracer.dump(Path(trace_dir) / f"shard-{spec.shard:03d}.npz")
    return outcome


def _binomial_ok(hits: int, trials: int, p: float) -> bool:
    sd = math.sqrt(trials * p * (1 - p))
    return abs(hits - trials * p) <= SIGMAS * sd


def check_aggregate(spec, aggregate) -> dict[tuple, list[str]]:
    """Per-cell check failures (cell coordinate -> problems)."""
    expected = {shard.cell for shard in spec.grid.expand()}
    found: dict[tuple, list[str]] = {}
    seen = set()
    for cell in aggregate.cells:
        key = (cell.size, cell.drop, cell.sampler, cell.schedules, cell.engine)
        seen.add(key)
        bad = found.setdefault(key, [])
        t = dict(cell.transport)
        if cell.runs != REPLICAS:
            bad.append(f"{cell.runs} replicas")
        lost = t["intended"] - t["delivered"]
        if cell.drop == 0.0:
            if t["requests_dropped"] or t["replies_dropped"]:
                bad.append("messages dropped at drop 0")
            if lost != 2 * t["void_requests"]:
                bad.append(f"lost {lost} != 2 x void requests")
        else:
            for name, trials in (
                ("requests_dropped", t["requests_sent"]),
                ("replies_dropped", t["replies_sent"]),
            ):
                if not _binomial_ok(t[name], trials, cell.drop):
                    bad.append(f"{name}={t[name]} of {trials} off p={cell.drop}")
            if not cell.schedules:
                p = cell.drop
                mean = (2 * p + (1 - p) * p) / 2
                var = 4 * p + (1 - p) * p - (2 * p + (1 - p) * p) ** 2
                sd = math.sqrt(var / t["exchanges"]) / 2
                if abs(cell.overall_loss_fraction - mean) > SIGMAS * sd:
                    bad.append(
                        f"overall loss {cell.overall_loss_fraction:.4f} "
                        f"off {mean:.4f}"
                    )
        if not cell.schedules:
            if t["exchanges"] != SIZE * CYCLES * REPLICAS:
                bad.append(f"exchanges={t['exchanges']} != n x cycles x replicas")
            for curve in (cell.mean_leaf, cell.mean_prefix):
                values = [v for _, v in curve.points]
                if any(b > a for a, b in zip(values, values[1:], strict=False)):
                    bad.append("missing entries rose without churn")
    for key in expected - seen:
        found[key] = ["cell missing from the aggregate"]
    return {key: lines for key, lines in found.items() if lines}


def run_round(inputs: Inputs, workdir, tracer) -> RoundResult:
    from repro.runtime.merge import cell_label
    from repro.scenarios.run import run_scenario

    workdir = Path(workdir)
    checkpoint = workdir / "checkpoint"
    start = time.perf_counter()
    spec = scenario(inputs)
    with span(tracer, "runtime.scenario"):
        result = run_scenario(
            spec, workers=WORKERS, checkpoint_dir=str(checkpoint)
        )
    wall = time.perf_counter() - start
    aggregate = result.aggregate
    problems: list[str] = []
    failed: set[int] = set()
    shards_of: dict[tuple, list[int]] = {}
    for shard in spec.grid.expand():
        shards_of.setdefault(shard.cell, []).append(shard.shard)
    for key, lines in check_aggregate(spec, aggregate).items():
        problems += [f"{cell_label(*key)}: {line}" for line in lines]
        failed.update(shards_of.get(key, range(OPS)))
    if len(result.timings) != OPS:
        problems.append(f"{len(result.timings)} shards ran, expected {OPS}")
        failed.update(range(OPS))
    if tracer is None:
        resumed = run_scenario(
            spec, workers=WORKERS, checkpoint_dir=str(checkpoint), resume=True
        )
        if (resumed.resumed_cells != len(shards_of) or resumed.timings
                or resumed.aggregate.to_dict() != aggregate.to_dict()):
            problems.append("resume did not restore the identical aggregate")
            failed.update(range(OPS))
    exchanges = sum(dict(c.transport)["exchanges"] for c in aggregate.cells)
    shard_s = sum(t.wall_seconds for t in result.timings)
    journal = sum(p.stat().st_size for p in checkpoint.iterdir())
    return RoundResult(
        wall_s=wall,
        setup_s=None,
        exchanges=exchanges,
        digest=digest(aggregate.to_dict()),
        counters={
            "shards": len(result.timings),
            "cells": len(aggregate.cells),
            "exchanges": exchanges,
            "shard_compute_s": round(shard_s, 3),
            "checkpoint_bytes": journal,
        },
        facts={
            "engine_exchanges": exchanges,
            "shard_compute_s": shard_s,
            "shards": len(result.timings),
            "workers": WORKERS,
            "sweep_wall_s": wall,
            "checkpoint_bytes": journal,
        },
        failed_ops=failed,
        problems=problems,
    )


def install_patches(patches, trace_dir) -> None:
    """Engine spans (inherited by the forked workers), worker-side shard
    dumps, and spans for the merge and the journal in this process."""
    from perfbench.engine_converge import install_patches as engine_patches
    from repro.runtime import runner
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.merge import StreamingMerge

    engine_patches(patches)
    patches.wrap(StreamingMerge, "add", "runtime.merge")
    patches.wrap(StreamingMerge, "finalize", "runtime.merge")
    patches.wrap(CheckpointStore, "write_cell", "runtime.checkpoint")
    patches.replace(
        runner, "execute_run_columns", functools.partial(_traced_shard, str(trace_dir))
    )
