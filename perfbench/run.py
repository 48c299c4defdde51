#!/usr/bin/env python3
"""daydrift benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload signature --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload, one table
    python3 perfbench/run.py --self-check --seed 1                  # corrupted outputs must be caught

A single-workload run prints its inputs, the machine, every metric by name
with its unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Full results (and, when traced, the spans) go to
``perfbench/results/``.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from calibrate import kernel_seconds, speed_scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("signature", "long_horizon", "ohlc_analyze", "sweep_grid")
SETUP_REPEATS = 5
PROBE_OP = -2  # op id of the traced config probe, kept apart from workload operations

# numpy is imported before the clock starts: it is a dependency that no
# change to daydrift speeds up, and its import time swings by up to 1.8x with
# the host's load, independently of CPU speed.
SETUP_CODE = """
import sys, time
import numpy
sys.path.insert(0, {here!r})
from calibrate import kernel_seconds
before = kernel_seconds()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import daydrift
{body}
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(before), repr(kernel_seconds()))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def measure_setup(config: Path | None) -> list[tuple[float, float]]:
    """Fresh processes that have imported numpy: import daydrift, then load_config + build() of ``config``.

    Returns (wall seconds, speed scale) per process.
    """
    body = f"daydrift.load_config({str(config)!r}).build()" if config else ""
    code = SETUP_CODE.format(here=str(HERE), src=str(SRC), body=body)
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        elapsed, before, after = map(float, out.stdout.split())
        samples.append((elapsed, speed_scale(before, after)))
    return samples


def provenance(seed: int) -> dict:
    from workloads import cache_sizes, nproc

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("daydrift/*.py"), *ROOT.glob("configs/*.ini")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def layer_metrics(tracer, wl, ops: list[dict], probe_scale: float) -> dict:
    """Per-layer numbers from the traced operations' spans; 0 where a layer is not exercised."""
    tab = tracer.table()
    traced = [r for r in ops if r["traced"]]
    n = len(traced)
    name, phase = tab["name"], tab["phase"]
    in_ops = tab["op"] >= 0
    # every span in reference seconds, at the speed measured around its operation
    scale_of = {r["op"]: r["scale"] for r in ops}
    factor = np.array([scale_of.get(op, probe_scale) for op in tab["op"].tolist()])
    dur, self_t = tab["dur"] * factor, tab["self"] * factor

    def of(layer, where=in_ops):
        return where & (name == layer)

    def mean(values) -> float:
        return float(values.mean()) if values.size else 0.0

    def per_op(layer, column=dur) -> float:
        return float(column[of(layer)].sum()) / n

    def calls(layer) -> float:
        return int(of(layer).sum()) / n

    run_day = dur[of("engine.run_day")] * 1e6
    days = run_day.size / n
    ledger = (name == "ledger.record_fill") | (name == "ledger.mark_to_market")

    def growth(selector) -> float:
        if not hasattr(wl, "short_days"):
            return 0.0
        long = dur[in_ops & selector & (phase == "long_run")].sum() / wl.days
        short = dur[in_ops & selector & (phase == "short_run")].sum() / wl.short_days
        return float(long / short) if short > 0 else 0.0

    walls = {flag: [r["wall_s"] * r["scale"] for r in ops if r["traced"] == flag] for flag in (True, False)}
    bench = in_ops & np.array([str(x).startswith("bench.") for x in name], dtype=bool)
    root_total = dur[of("bench.op")].sum()
    cells = sum(r.get("cells", 0) for r in traced)
    return {
        "config.load_s": mean(dur[of("config.load_config", True)]),
        "config.build_s": mean(dur[of("config.ScenarioConfig.build", True)]),
        "engine.run_day.calls": calls("engine.run_day"),
        "engine.run_day_us_p50": float(np.percentile(run_day, 50)) if run_day.size else 0.0,
        "engine.run_day_us_p99": float(np.percentile(run_day, 99)) if run_day.size else 0.0,
        "engine.run_day_self_us": mean(self_t[of("engine.run_day")]) * 1e6,
        "engine.simulate_self_us": per_op("engine.simulate", self_t) * 1e6 / days if days else 0.0,
        "engine.day_rng.calls": calls("engine.day_rng"),
        "engine.day_rng_us": mean(dur[of("engine.day_rng")]) * 1e6,
        "market.normals_drawn": sum(r["normals"] for r in traced) / n,
        "ledger.record_fill.calls": calls("ledger.record_fill"),
        "ledger.record_fill_us": mean(dur[of("ledger.record_fill")]) * 1e6,
        "ledger.mark_to_market.calls": calls("ledger.mark_to_market"),
        "ledger.mark_to_market_us": mean(dur[of("ledger.mark_to_market")]) * 1e6,
        "ledger.us_per_day_growth": growth(ledger),
        "engine.us_per_day_growth": growth(name == "engine.run_sim"),
        "engine.write_daily_csv_s": per_op("engine.write_daily_csv"),
        "engine.write_daily_csv_bytes": tracer.bytes.get("engine.write_daily_csv", 0) / n,
        "engine.read_daily_csv_s": per_op("engine.read_daily_csv"),
        "engine.read_daily_csv_bytes": tracer.bytes.get("engine.read_daily_csv", 0) / n,
        "analysis.ingest_ohlc_csv_s": per_op("analysis.ingest_ohlc_csv"),
        "analysis.decompose_s": per_op("analysis.decompose"),
        "analysis.from_day_records_s": per_op("analysis.PriceSeries.from_day_records"),
        "analysis.write_decomposition_csv_s": per_op("analysis.write_decomposition_csv"),
        "engine.run_sweep_s": per_op("engine.run_sweep"),
        "engine.sweep_cells_ok_ratio": sum(r.get("ok_cells", 0) for r in traced) / cells if cells else 0.0,
        "engine.sweep_parallel_eff": getattr(wl, "parallel_eff", None) or 0.0,
        "cli.main_self_s": per_op("cli.main", self_t),
        "gc.collections": tracer.gc_collections / n,
        "gc.pause_s": tracer.gc_pause_s / n,
        "trace.overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
        "trace.unattributed_frac": float(self_t[bench].sum() / root_total) if root_total else 0.0,
    }


def peak_rss_mb(wl) -> dict:
    """Peak RSS of this process; on a workload with pool workers, of the largest worker too.

    The only children up to this point are the workload's pool workers, so
    ``RUSAGE_CHILDREN`` gives the largest of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not getattr(wl, "pool_workers", False):
        return {"peak_rss_mb": own}
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"peak_rss_mb": max(own, workers), "peak_rss_self_mb": own, "peak_rss_workers_mb": workers}


def run_workload(name: str, seed: int, seconds: float, trace: bool, corrupt: bool) -> dict:
    import daydrift as dd
    from spans import Tracer
    from workloads import WORKLOADS, Ctx

    if not Path(dd.__file__).resolve().is_relative_to(SRC):
        fail(f"imported daydrift from {dd.__file__}, not from {SRC}")
    spec = load_spec()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": provenance(seed)}
    RESULTS.mkdir(exist_ok=True)
    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent))
    tracer = Tracer() if trace else None
    ctx = Ctx(root=ROOT, work=work, seed=seed, corrupt=corrupt, tracer=tracer)
    try:
        wl = WORKLOADS[name](ctx)
        probe_scale = 1.0
        if trace and wl.config is not None:
            before = kernel_seconds()
            with tracer.active(PROBE_OP):
                for _ in range(SETUP_REPEATS):
                    dd.load_config(wl.config).build()
            probe_scale = speed_scale(before, kernel_seconds())
            tracer.gc_collections, tracer.gc_pause_s = 0, 0.0
        result["inputs"] = wl.describe()
        wl.warmup()
        ops: list[dict] = []
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            traced = trace and i % 2 == 1
            before = kernel_seconds()
            try:
                with tracer.active(i) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    op = wl.run_op(i)
                    op["wall_s"] = time.perf_counter() - t0
                op.update(op=i, traced=traced, scale=speed_scale(before, kernel_seconds()))
                wl.check_op(op)
                ops.append(op)
            except Exception as exc:  # an operation that raises is a failed operation
                ctx.check(False, f"operation {i}: {type(exc).__name__}: {exc}")
            if time.perf_counter() >= deadline and i + 1 >= (4 if trace else 1):
                break
        # Peak RSS is read before the checks after the loop and before the set-up
        # probes, so that it is set by the program, not by the benchmark's own work.
        rss = peak_rss_mb(wl)
        if not trace:
            result["setup_samples"] = measure_setup(wl.config)
        try:
            wl.finish(ops)
        except Exception as exc:
            ctx.check(False, f"final checks: {type(exc).__name__}: {exc}")
        untraced = [r for r in ops if not r["traced"]]
        if not untraced or (trace and len(untraced) == len(ops)):
            fail(f"{name}: no operation completed; first failure: {ctx.failures[:1]}")
        e2e = wl.metrics(untraced)
        e2e["wall_s_p50"] = statistics.median(r["wall_s"] for r in untraced)
        e2e["speed_scale_p50"] = statistics.median(r["scale"] for r in untraced)
        e2e.update(rss)
        e2e["failed_frac"] = ctx.failed / ctx.attempted
        if not trace:
            e2e["setup_s"] = statistics.median(wall * scale for wall, scale in result["setup_samples"])
            e2e["setup_s_wall"] = statistics.median(wall for wall, _ in result["setup_samples"])
            wanted = spec["end_to_end"]
            values = e2e
        else:
            traced_e2e = wl.metrics([r for r in ops if r["traced"]])
            result["traced_end_to_end"] = traced_e2e
            result["tracing_overhead"] = {k: traced_e2e[k] - e2e[k] for k in ("run_s_p50", "days_per_s")}
            result["per_layer"] = values = layer_metrics(tracer, wl, ops, probe_scale)
            wanted = spec["per_layer"]
            spans = RESULTS / f"{name}-seed{seed}.spans.csv.gz"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["layer_self_wall_s"] = self_time_by_layer(tracer)
        result["end_to_end"] = e2e
        result["ops"] = [{k: v for k, v in r.items() if isinstance(v, (int, float))} for r in ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(attempted=ctx.attempted, failed=ctx.failed, failures=ctx.failures)
    result["metrics"] = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def self_time_by_layer(tracer) -> dict:
    """Self time (wall seconds) and calls per span name over the traced operations."""
    tab = tracer.table()
    keep = tab["op"] >= 0
    totals: dict[str, dict] = {}
    for layer, self_t in zip(tab["name"][keep], tab["self"][keep]):
        entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += float(self_t)
    return totals


def report(result: dict) -> None:
    """Human-readable lines; the JSON summary follows as the last line."""
    units = {"setup_s": "s", "run_s_p50": "s", "run_s_p75": "s", "days_per_s": "day/s",
             "sim_days_per_s": "day/s", "rows_per_s": "row/s", "cells_per_s": "cell/s",
             "per_day_growth": "ratio", "peak_rss_mb": "MiB",
             "peak_rss_self_mb": "MiB", "peak_rss_workers_mb": "MiB", "failed_frac": "ratio",
             "runs_timed": "count", "pooled_capture": "ratio", "wall_s_p50": "s (wall)",
             "speed_scale_p50": "ratio", "setup_s_wall": "s (wall)"}
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  trace {result['trace']}")
    for line in result["inputs"]:
        print(f"  input: {line}")
    prov = result["provenance"]
    print(f"  machine: nproc {prov['nproc']}, {prov['cpu_model']}, caches {prov['cache_bytes']}, "
          f"python {prov['python']}, numpy {prov['numpy']}")
    print(f"  source: git {prov['git_commit']}, sha256 {prov['source_sha256'][:16]}")
    print("  end-to-end" + (" (untraced operations of this traced run)" if result["trace"] else "") + ":")
    for key, value in result["end_to_end"].items():
        print(f"    {key} = {value:.6g} {units.get(key, '')}")
    if result["trace"]:
        print("  tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {v:+.6g}" for k, v in result["tracing_overhead"].items()))
        print("  per-layer (market.normals_drawn is computed, not counted):")
        for key, entry in result["metrics"].items():
            print(f"    {key} = {entry['value']:.6g} {entry['unit']}")
        print(f"  spans -> {result['spans_file']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def summary_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def run_children(names, args, extra: list[str]) -> dict[str, dict]:
    """Each workload in its own process, one after another, so peak RSS is per workload."""
    results = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.rstrip("\n").splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            fail(f"workload {name} exited {out.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; all inputs derive from it")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--corrupt", action="store_true", help="perturb one value in every output before checking it")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload with --corrupt; exit 1 unless each reports failures")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "daydrift" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no daydrift sources under {ROOT}; run from a checkout of the repository")

    if args.self_check:
        args.seconds, args.trace = 1.0, 0
        results = run_children(WORKLOAD_NAMES, args, ["--corrupt"])
        caught = {name: r["failed"] > 0 for name, r in results.items()}
        for name, r in results.items():
            print(f"self-check {name}: {r['failed']}/{r['attempted']} checks failed on corrupted output"
                  f" -> {'caught' if caught[name] else 'MISSED'}")
        return 0 if all(caught.values()) else 1
    if args.workload == "all":
        results = run_children(WORKLOAD_NAMES, args, [])
        for name, r in results.items():
            print(f"{name:>13}: correct {r['correct']}, failed {r['failed']}/{r['attempted']}, " + ", ".join(
                f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()))
        print(json.dumps(results))
        return 0

    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.corrupt)
    report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
