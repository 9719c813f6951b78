"""The repository's benchmark: three fixed-work workloads, timed end to
end and, in a separate traced mode, per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine_converge --seed 1 \\
        --seconds 30 --trace 0

``--workload`` is one of ``engine_converge``, ``sweep_churn``,
``live_faults`` or ``all`` (each workload in its own process, one at a
time).  ``--seed`` makes the inputs (default 1; the held-out seed is
9).  ``--seconds`` is how long one run measures: it repeats whole
rounds of the workload's fixed work (each round preceded by a few extra
timed set-ups) until the next round would end past it, and does at
least ``MIN_ROUNDS``.  The timed metrics come from the fastest round
and the fastest set-up: this machine's speed varies from second to
second, that variation only ever adds time, and the fastest of many
short rounds is what repeats from run to run.  ``--trace 1`` runs one
untraced and one traced round, checks that their outputs are equal,
prints the tracing overhead and reports the per-layer metrics instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
counts its operation as failed and makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("engine_converge", "sweep_churn", "live_faults")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9
MIN_ROUNDS = 3


def probe_ms() -> float:
    """A fixed pure-Python kernel, timed to show machine-speed drift.

    It is printed before and after each workload and feeds no metric.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(400_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return (time.perf_counter() - start) * 1e3


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited-for
    children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(summary, facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a span summary plus workload counts."""
    self_s, incl_s, spans, counters = summary

    def own(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    exchanges = facts.get("engine_exchanges", 0)
    cycle_s = incl_s.get("engine_vector.cycle", 0.0)
    ok = facts.get("net_exchanges_ok", 0)
    failed = facts.get("net_exchanges_failed", 0)
    retries = facts.get("net_retries", 0)
    attempts = ok + failed + retries
    shard_s = facts.get("shard_compute_s", 0.0)
    pool_idle = 0.0
    if facts.get("workers"):
        pool_idle = facts["workers"] * facts["sweep_wall_s"] - shard_s
    return {
        "engine_vector.build_s": (own("engine_vector.build"), "s"),
        "engine_vector.cycle_s": (cycle_s, "s"),
        "engine_vector.exchanges": (exchanges, "count"),
        "engine_vector.us_per_exchange": (
            cycle_s * 1e6 / exchanges if exchanges else 0.0, "us"
        ),
        "engine_vector.select_s": (own("engine_vector.select"), "s"),
        "engine_vector.wave_build_s": (own("engine_vector.wave_build"), "s"),
        "engine_vector.wave_absorb_s": (own("engine_vector.wave_absorb"), "s"),
        "engine_vector.waves": (spans.get("engine_vector.wave_build", 0), "count"),
        "engine_vector.newscast_s": (own("engine_vector.newscast"), "s"),
        "engine_vector.measure_s": (own("engine_vector.measure"), "s"),
        "engine_vector.membership_s": (own("engine_vector.membership"), "s"),
        "core.reference_build_s": (own("core.reference_build"), "s"),
        "core.reference_builds": (spans.get("core.reference_build", 0), "count"),
        "core.perfect_tables_s": (own("core.perfect_tables"), "s"),
        "core.perfect_tables": (spans.get("core.perfect_tables", 0), "count"),
        "core.create_message_s": (own("core.create_message"), "s"),
        "core.create_messages": (spans.get("core.create_message", 0), "count"),
        "core.absorb_s": (own("core.absorb"), "s"),
        "core.absorbs": (spans.get("core.absorb", 0), "count"),
        "core.tracker_measure_s": (own("core.tracker_measure"), "s"),
        "core.tracker_measures": (spans.get("core.tracker_measure", 0), "count"),
        "sampling.newscast_s": (own("sampling.newscast"), "s"),
        "runtime.shard_compute_s": (shard_s, "s"),
        "runtime.shards": (facts.get("shards", 0), "count"),
        "runtime.pool_idle_s": (pool_idle, "s"),
        "runtime.merge_s": (own("runtime.merge"), "s"),
        "runtime.checkpoint_s": (own("runtime.checkpoint"), "s"),
        "runtime.checkpoint_bytes": (facts.get("checkpoint_bytes", 0), "B"),
        "runtime.transport_bytes": (
            counters.get("runtime.transport_bytes", 0), "B"
        ),
        "net.codec_encode_s": (
            own("net.codec_encode", "net.codec_encode_bootstrap"), "s"
        ),
        "net.codec_decode_s": (
            own("net.codec_decode", "net.codec_decode_bootstrap"), "s"
        ),
        "net.frames": (spans.get("net.codec_encode", 0), "count"),
        "net.wire_bytes": (counters.get("net.wire_bytes", 0), "B"),
        "net.hub_send_s": (own("net.hub_send"), "s"),
        "net.datagrams": (spans.get("net.hub_send", 0), "count"),
        "net.peer_receive_s": (own("net.peer_receive"), "s"),
        "net.cluster_create_s": (own("net.cluster_create"), "s"),
        "net.retries": (retries, "count"),
        "net.exchanges_ok": (ok, "count"),
        "net.exchanges_failed": (failed, "count"),
        "net.useful_exchange_ratio": (ok / attempts if attempts else 0.0, "1"),
        "net.loop_s": (own("net.loop"), "s"),
    }


def run_workload(module, args, workdir: Path) -> tuple[dict, int, int, bool]:
    """Run one workload in this process; returns ``(metrics,
    attempted, failed, correct)`` and prints the report lines."""
    from perfbench.trace import Patches, Tracer, summarise

    inputs = module.make_inputs(args.seed)
    print(f"inputs: {module.describe(inputs)}")
    before = probe_ms()
    problems: list[str] = []
    if args.trace:
        plain = module.run_round(inputs, workdir / "plain", tracer=None)
        tracer = Tracer()
        trace_dir = workdir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with Patches(tracer) as patches:
            module.install_patches(patches, trace_dir)
            traced = module.run_round(inputs, workdir / "traced", tracer=tracer)
        tracer.dump(trace_dir / "parent.npz")
        rounds = [plain, traced]
        for target in patches.missing:
            print(f"trace: target not found: {target}")
        if traced.digest != plain.digest:
            problems.append("traced outputs differ from untraced outputs")
        print(
            f"trace overhead: wall_s {traced.wall_s - plain.wall_s:+.4f} s "
            f"(untraced {plain.wall_s:.4f} s, traced {traced.wall_s:.4f} s)"
        )
        summary = summarise(sorted(trace_dir.glob("*.npz")))
        metrics = layer_metrics(summary, traced.facts)
    else:
        deadline = time.perf_counter() + args.seconds
        setups: list[float] = []
        rounds = []
        while True:
            began = time.perf_counter()
            for _ in range(module.SETUPS_PER_ROUND):
                setups.append(
                    module.setup_once(inputs, workdir / "setup" / str(len(setups)))
                )
                # Discarded set-ups can hold reference cycles; free them so
                # they do not count towards the round's peak memory.
                gc.collect()
            rounds.append(
                module.run_round(inputs, workdir / f"round-{len(rounds)}", tracer=None)
            )
            gc.collect()
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and now + (now - began) > deadline:
                break
        peak = peak_rss_mb()
        setups += [r.setup_s for r in rounds if r.setup_s is not None]
        setup = min(setups)
        metrics = {
            "wall_s": (min(r.wall_s for r in rounds), "s"),
            "setup_s": (setup, "s"),
            "exchanges_per_s": (
                max(
                    r.exchanges / (r.wall_s - (setup if r.setup_s is None else r.setup_s))
                    for r in rounds
                ),
                "1/s",
            ),
            "peak_rss_mb": (peak, "MiB"),
        }
        for label, values in (("wall_s", [r.wall_s for r in rounds]), ("setup_s", setups)):
            print(
                f"{label}: {len(values)} samples, min {min(values):.6f}, "
                f"median {statistics.median(values):.6f}, max {max(values):.6f}"
            )
        for r in rounds[1:]:
            if r.digest != rounds[0].digest:
                problems.append("a repeated round produced other outputs")
    after = probe_ms()
    for index, r in enumerate(rounds):
        print(
            f"round {index}: wall_s={r.wall_s:.4f} "
            + ("" if r.setup_s is None else f"setup_s={r.setup_s:.4f} ")
            + " ".join(f"{k}={v}" for k, v in r.counters.items())
        )
        problems += [f"round {index}: {line}" for line in r.problems]
    print(f"probe: before={before:.1f} ms after={after:.1f} ms")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    attempted = module.OPS * len(rounds)
    failed = sum(len(r.failed_ops) for r in rounds)
    if problems and not failed:
        # A fault no single operation owns fails the whole run.
        failed = attempted
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = not problems and failed == 0
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        attempted,
        failed,
        correct,
    )


def run_all(args) -> int:
    """Run every workload in its own process, one at a time."""
    total: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=int, default=30,
        help="measured time a run aims at, in whole rounds of fixed work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import importlib

    module = importlib.import_module(f"perfbench.{args.workload}")
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    if args.trace:
        workdir = ROOT / ".perfbench" / f"trace-{args.workload}"
        shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed, correct = run_workload(module, args, workdir)
    finally:
        for leftover in workdir.iterdir():
            if leftover.name != "trace":
                shutil.rmtree(leftover, ignore_errors=True)
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
