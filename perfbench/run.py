#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package
(into $CARGO_TARGET_DIR, default `.bench_build`), then starts two fresh
processes:

1. the measured run on 2 threads and 2 NUMA domains: tracing off with
   `--trace 0` (end-to-end metrics), or traced with `--trace 1` (per-layer
   metrics, records written to `perfbench/results/`); a traced run is
   preceded by an untraced one, for the tracing overhead;
2. the correctness reference: the same workload and seed on 1 thread.

The run is correct when no iteration panicked or raised a health violation
and every episode's `BenchmarkModel::validate()` metrics lie inside the
bands below around the reference. Every iteration of an incorrect run counts
as failed. The last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("clustering-100k", "oncology-supervised-100k")

# The benchmark processes of one run end within this many seconds after
# the build, well inside the 180 s a run may take.
RUN_BUDGET_S = 170

# Correctness bands: validate() metric -> (absolute, relative) tolerance
# around the 1-thread reference of the same seed. A value passes when
# |value - reference| <= absolute + relative * |reference|. Metrics not
# listed must match exactly. See README.md for how each band was derived.
BANDS = {
    "clustering-100k": {
        "same_type_fraction": (0.08, 0.0),
        "substance_total_0": (0.0, 1e-13),
        "substance_total_1": (0.0, 1e-13),
    },
    "oncology-supervised-100k": {
        "final_agents": (400.0, 0.0),
        "agents_added": (400.0, 0.0),
        "agents_removed": (400.0, 0.0),
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("warmup_s", "s"),
    ("iter_p50_s", "s"),
    ("iter_p90_s", "s"),
    ("agent_updates_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_iter_share", "1"),
)

PER_LAYER = (
    ("core.agent_ops_s", "s"),
    ("core.snapshot_s", "s"),
    ("core.teardown_s", "s"),
    ("core.agent_sorting_s", "s"),
    ("core.health_check_s", "s"),
    ("core.agents_added_per_iter", "count"),
    ("core.agents_removed_per_iter", "count"),
    ("core.force_calcs_per_iter", "count"),
    ("core.batched_force_share", "1"),
    ("core.violations", "count"),
    ("env.environment_update_s", "s"),
    ("env.grid_build_ns_per_agent", "ns"),
    ("env.neighbor_query_ns", "ns"),
    ("env.neighbors_per_query", "count"),
    ("env.index_mib", "MiB"),
    ("diffusion.diffusion_s", "s"),
    ("diffusion.step_ns_per_voxel", "ns"),
    ("sfc.morton_order_ns_per_agent", "ns"),
    ("alloc.pool_reserved_mib", "MiB"),
    ("alloc.pool_alloc_share", "1"),
    ("numa.steal_share", "1"),
    ("numa.remote_steal_share", "1"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.ring_mib", "MiB"),
    ("checkpoint.write_mib_per_s", "MiB/s"),
    ("checkpoint.restore_mib_per_s", "MiB/s"),
    ("checkpoint.bytes_per_agent", "B"),
    ("trace.overhead_share", "1"),
    ("host.steal_share", "1"),
    ("host.dram_read_ns", "ns"),
    ("digest.distinct", "count"),
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary from source and returns its path."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no engine sources under {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def run_child(binary, args, deadline):
    """Runs one benchmark process and returns the JSON object it printed last.

    Exits the benchmark without a result if the process fails or runs past
    `deadline` (a `time.monotonic()` value)."""
    env = dict(os.environ, RAYON_NUM_THREADS="2")
    for var in ("BDM_THREADS", "BDM_NUMA_DOMAINS"):
        env.pop(var, None)
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)}: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(args)}: exit code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{' '.join(args)}: bad output: {e}")


def band_errors(workload, validate, reference):
    """Names every validate() metric outside its band around the reference."""
    bands = BANDS[workload]
    errors = []
    if set(validate) != set(reference):
        errors.append(f"metric names {sorted(validate)} != {sorted(reference)}")
    for name, ref in reference.items():
        value = validate.get(name)
        if value is None:
            continue
        absolute, relative = bands.get(name, (0.0, 0.0))
        if abs(value - ref) > absolute + relative * abs(ref):
            errors.append(f"{name}={value} outside {ref} +- {absolute} + {relative}*ref")
    return errors


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload and its reference; returns the result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    timed = common + ["--seconds", str(seconds), "--mode", "timed"]
    traced = common + ["--seconds", str(seconds), "--mode", "traced", "--trace-out",
                       str(HERE / "results" / f"trace-{workload}-seed{seed}.jsonl")]
    # With tracing, an untraced process runs first: the tracing overhead
    # compares the two fresh processes' iteration medians.
    untraced = run_child(binary, timed, deadline) if trace else None
    run = run_child(binary, traced if trace else timed, deadline)
    reference = run_child(binary, common + ["--mode", "reference"], deadline)

    runs = [r for r in (untraced, run) if r is not None]
    errors = [f"{r['failed']:.0f} failed iterations" for r in runs + [reference] if r["failed"]]
    for r in runs:
        for i, validate in enumerate(r["validate"]):
            errors += [f"episode {i}: {e}"
                       for e in band_errors(workload, validate, reference["validate"])]
    correct = not errors
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs) if correct else attempted
    digests = {d for r in runs for d in r["digests"]} | {reference["digest"]}

    for e in errors:
        print(f"correctness: {e}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={trace}: "
          f"{run['episodes']:.0f} episodes, {run['steady_samples']:.0f} steady samples, "
          f"host.steal_share={run['host_steal_share']:.4f}, "
          f"digests={[d for r in runs for d in r['digests']]} reference={reference['digest']} "
          f"distinct={len(digests)}")

    values = dict(run)
    if trace:
        values["host.steal_share"] = run["host_steal_share"]
        values["trace.overhead_share"] = run["iter_p50_s"] / untraced["iter_p50_s"] - 1.0
        values["digest.distinct"] = len(digests)
        wanted = PER_LAYER
    else:
        values["ok_iter_share"] = 1.0 - failed / attempted
        wanted = END_TO_END
    # A run whose last episode panicked has no end state for the kernel calls;
    # its metrics read 0 and the run is already incorrect.
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in wanted}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=4357)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    binary = build()
    if args.workload != "all":
        print(json.dumps(measure(binary, args.workload, args.seed, args.seconds, args.trace)))
        return
    # All workloads: one result line each, then one object that names every
    # metric as <workload>:<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = measure(binary, workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": workload, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
