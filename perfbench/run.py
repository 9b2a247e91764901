"""The spin7ac benchmark: one command, four seeded closed-loop workloads.

Usage, from the root of a checkout that holds ``src/spin7ac``:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json):

* ``cold-cli``: fresh ``python -m spin7ac.cli`` processes, one at a time.
* ``newton``: warm ``pi_theta`` splits on float anti-self-dual eta.
* ``exact-forms``: warm exact decompose, wedge, star, inner, pullback,
  gl-action and 4/7-factor operations.
* ``symbolic``: warm classify_rate, cone operators, enumeration, moduli
  dimension, lambda_of_mu round trips and the Bryant-Salamon pipeline.

Each run generates its inputs from the seed, measures for the given seconds
(in whole rounds of the workload's fixed schedule, and for the warm
workloads at least 100 operations), checks every output with the
benchmark's own code, and prints one metric per line, then, as the last
line, one JSON object with keys correct, attempted, failed and metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then again traced over the same operations, and reports
every per-layer metric (self time and calls per layer, the named function
times and counts) and the tracing overhead: the traced minus the untraced
latencies of the same operations, summed over the measured loop, set-up
left out.  Spans and run records go to ``.perfbench-out/``.

Every process the benchmark starts runs with BLAS pinned to one thread and
PYTHONPATH=src, and exits before the benchmark does.  The exit code is 0 when
every output passed its check, 1 when one did not, and 2 when the benchmark
could not run (for example, no ``src/spin7ac`` in the working directory).
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy is imported in this process

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("cold-cli", "newton", "exact-forms", "symbolic")
OUT_DIR = ".perfbench-out"
WORKER_TIMEOUT_S = 160
# Fresh-process set-ups per run.  newton and exact-forms build and certify
# the projector table (about 14 s) in set-up, so one per run fits the time
# budget; the others are cheap and report the median of nine.
SETUP_SAMPLES = {"cold-cli": 9, "newton": 1, "exact-forms": 1, "symbolic": 9}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def metadata() -> dict:
    src_files = sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(os.path.join("src", "spin7ac"))
        for name in names
        if name.endswith((".py", ".json"))
    )
    digest = hashlib.sha256()
    for path in src_files:
        with open(path, "rb") as handle:
            digest.update(path.encode() + b"\0" + handle.read())
    lines = 0
    for path in src_files:
        if path.endswith(".py"):
            with open(path, "rb") as handle:
                lines += handle.read().count(b"\n")
    sha = None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "pythonhashseed": "0",
        "platform": platform.platform(),
    }


def spawn_worker(workload: str, seed: int, seconds: float, trace: int = 0,
                 ops: int | None = None, setup_only: bool = False, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def setup_samples(workload: str, seed: int, first: float | None) -> list[float]:
    samples = [] if first is None else [first]
    while len(samples) < SETUP_SAMPLES[workload]:
        samples.append(spawn_worker(workload, seed, 0, setup_only=True)["setup_s"])
    return samples


def end_to_end(latencies: list[float], setups: list[float], peak_rss_kb: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    if workload == "cold-cli":
        import coldcli

        setups = setup_samples(workload, seed, None)
        result = coldcli.run_calls(seed, seconds, child_env())
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        result = spawn_worker(workload, seed, seconds)
        setups = setup_samples(workload, seed, result["setup_s"])
        result["peak_rss_kb"] = result["maxrss_kb"]
    result["setups"] = setups
    return result


def run_traced(workload: str, seed: int, count: int, tag: str) -> dict:
    """The same operations again, traced; returns the worker result with raw aggregates."""
    import layertrace

    if workload == "cold-cli":
        import coldcli

        raw_dir = os.path.join(OUT_DIR, f"{tag}-calls")
        os.makedirs(raw_dir, exist_ok=True)
        result = coldcli.run_calls(seed, 0, child_env(), count=count, raw_dir=raw_dir)
        parts = []
        for path in result.pop("raw_paths"):
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    parts.append(json.load(handle))
        result["trace"] = layertrace.merge_raw(parts)
        return result
    return spawn_worker(workload, seed, 0, trace=1, ops=count, spans_out=os.path.join(OUT_DIR, f"{tag}.spans"))


# The untraced and traced passes run one after the other, so host drift
# between them moves their difference too; the benchmark's bounds allow two
# runs to differ by this share.
DRIFT_SHARE = 0.25


def tracing_overhead(base: dict, traced: dict) -> tuple[float, float]:
    """Traced minus untraced loop time over the operations both completed, and its noise.

    The noise is two standard errors of the summed per-operation
    differences plus DRIFT_SHARE of the untraced loop time; an overhead
    inside it is not resolved.
    """
    untraced = dict(zip(base["indices"], base["latencies"]))
    pairs = [(t, untraced[i]) for i, t in zip(traced["indices"], traced["latencies"]) if i in untraced]
    diffs = [t - u for t, u in pairs]
    if len(diffs) < 2:
        return sum(diffs), float("inf")
    drift = DRIFT_SHARE * sum(u for _, u in pairs)
    return sum(diffs), 2 * statistics.stdev(diffs) * len(diffs) ** 0.5 + drift


def describe_samples(result: dict) -> str:
    kinds = result["kinds"]
    counts = {kind: kinds.count(kind) for kind in dict.fromkeys(kinds)}
    return ", ".join(f"{kind} {n}" for kind, n in counts.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spin7ac benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "spin7ac", "cli.py")):
        print("error: run from the root of a spin7ac checkout (no src/spin7ac/cli.py here)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = metadata()
    print(f"meta {json.dumps(meta, sort_keys=True)}")

    try:
        base = run_untraced(args.workload, args.seed, args.seconds)
        traced = run_traced(args.workload, args.seed, base["attempted"], tag) if args.trace else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = [base] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    lat = base["latencies"]
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} of {base['attempted']} operations correct "
          f"({describe_samples(base)}); failed_frac = {len(failures) / attempted:.4f}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    if len(lat) < 2:
        print("error: fewer than two correct operations; no latency metrics", file=sys.stderr)
        return 1

    e2e = end_to_end(lat, base["setups"], base["peak_rss_kb"])
    counts = {
        "setup_s": len(base["setups"]), "ops_per_s": len(lat), "op_p50_ms": len(lat),
        "op_p90_ms": len(lat), "peak_rss_mb": 1,
    }
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} (n={counts[name]})")
    ranked = sorted(zip(lat, base["kinds"]))
    print(f"operation at the median: {ranked[len(ranked) // 2][1]}; "
          f"at the 90th percentile: {ranked[(9 * len(ranked)) // 10][1]}")
    for kind in dict.fromkeys(base["kinds"]):
        times = [t for t, k in zip(lat, base["kinds"]) if k == kind]
        print(f"kind {kind}: median {1000 * statistics.median(times):.6g} ms, "
              f"{100 * sum(times) / sum(lat):.1f}% of loop time (n={len(times)})")
    if args.workload == "cold-cli":
        import coldcli

        heavy = [t for t, k in zip(lat, base["kinds"]) if k in coldcli.HEAVY]
        light = [t for t, k in zip(lat, base["kinds"]) if k not in coldcli.HEAVY]
        if heavy:
            print(f"cli_heavy_s = {statistics.median(heavy):.6g} s (n={len(heavy)})")
        if light:
            print(f"cli_light_ms = {1000 * statistics.median(light):.6g} ms (n={len(light)})")

    if traced:
        import layertrace

        metrics = layertrace.layer_metrics(traced["trace"])
        overhead, noise = tracing_overhead(base, traced)
        metrics["trace.overhead_s"] = overhead
        verdict = "resolved" if abs(overhead) > noise else "unresolved: inside the noise"
        print(f"traced run: {traced['attempted']} operations, loop {sum(traced['latencies']):.3f} s "
              f"vs untraced {sum(lat):.3f} s; tracing overhead {overhead:.3f} s "
              f"({100 * overhead / sum(lat):.1f}%, noise +-{noise:.3f} s, {verdict})")
        for layer in layertrace.LAYERS:
            print(f"layer {layer:10s} self {metrics[layer + '.self_s']:10.4f} s  calls {metrics[layer + '.calls']}")
        for name in sorted(metrics):
            unit = "count" if name in layertrace.COUNT_METRICS else "s"
            note = f" ({verdict})" if name == "trace.overhead_s" else ""
            print(f"{name} = {metrics[name]:.6g} {unit}{note}  [moves: {layertrace.LAYER_TARGETS[name]}]")
        payload = {name: {"value": value, "unit": "count" if name in layertrace.COUNT_METRICS else "s"}
                   for name, value in metrics.items()}
    else:
        payload = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": payload}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result, "failures": failures}, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
