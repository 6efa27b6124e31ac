"""Layered ConnectIt benchmark: run one workload for one seed.

    python3 layerbench/run.py --workload static --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run sets up the workload five times
(reporting the median as ``setup_s``) and builds the oracle's answers. A
Spark workload then makes ``WARMUP_PASSES`` untimed warm-up passes,
because the JVM keeps compiling for minutes: the third pass takes about
two thirds of the first's time, and later ones improve more slowly. Then
the run makes full passes over the workload's calls for at most
``--seconds`` (but at least three), checking every result, the warm-ups'
too. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics. Workload figures
(``cc_s.*``, ``stream_*``, ``error_rate``) are printed above the result
line and, with the spans of a traced run, written to ``.layerbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A wrong or failed
call makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".layerbench"
SETUP_REPS = 5
WARMUP_PASSES = 2
MIN_PASSES = 3
SHUFFLE_PARTITIONS = 2
DRIVER_MEMORY = "2g"


def _cores() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def configure_env() -> None:
    """Pin Spark before pyspark is imported: ``local[k]``, quiet progress,
    scratch space inside the checkout, and ``repro`` importable in the Python
    workers (``spark_uf=True`` ships closures that import it there)."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # every JVM, the spark-submit launcher included, keeps its files here
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{_cores()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(WORK / 'spark-local'))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(WORK / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    sys.path[:0] = [src, str(ROOT)]


def start_spark():
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("layerbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.retainedJobs", 20000)
        .config("spark.ui.retainedStages", 20000)
        # the traced run drains this bus before it counts jobs; never drop an event
        .config("spark.scheduler.listenerbus.eventqueue.capacity", 100000)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def stop_jvm() -> None:
    """Stop Spark, if the run or the program started it, and the gateway
    JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = gw.proc
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()
    proc.wait(timeout=60)


def environment(uses_spark: bool, scale: str) -> dict:
    import pyspark

    return {
        "pyspark": pyspark.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "master": f"local[{_cores()}]",
        "spark_started": uses_spark,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "arrow": True,
        "broadcast_join_threshold": -1,
        "driver_memory": DRIVER_MEMORY,
        "scale": scale,
    }


def measure(wl, spark, seconds: float, trace: bool, first: int):
    """At least ``MIN_PASSES`` full passes, and more while another pass of
    median length would end within ``seconds``. Traced runs alternate
    untraced and traced passes, starting with an untraced one. Passes are
    numbered from ``first``, the number of warm-up passes before them."""
    from layerbench.trace import Tracer, install, layer_metrics

    tracer = Tracer(spark.sparkContext if spark is not None else None) if trace else None
    plain, traced, layers, walls = [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        if trace and i % 2 == 1:
            install(tracer)
            try:
                root = len(tracer.spans)
                with tracer.span("pass", idx=first + i):
                    calls = wl.run_pass(spark, first + i, tracer.span)
            finally:
                tracer.unpatch()
            tracer.count_jobs(root)
            traced.append(calls)
            layers.append(layer_metrics(tracer, root))
        else:
            plain.append(wl.run_pass(spark, first + i))
        walls.append(time.perf_counter() - t0)
        i += 1
        if i >= MIN_PASSES and time.perf_counter() - t_start + statistics.median(walls) > seconds:
            return plain, traced, layers, tracer


def pass_seconds(calls) -> float:
    return sum(c.seconds for c in calls)


def floor_metrics(wl, spark, plain) -> dict[str, float]:
    """Table 8's GatherEdges floor per static graph, and the fastest
    ``connectivity`` call on that graph divided by it."""
    from repro.baselines.primitives import gather_edges

    out = {}
    for name, g in wl.graphs.items() if spark is not None else ():
        edges = g.df(spark).localCheckpoint()
        edges.count()
        t = statistics.median(gather_edges(spark, edges, g.n)[1] for _ in range(3))
        fastest = min(c.seconds for p in plain for c in p if c.graph == name)
        out[f"floor.gather_edges_s.{name}"] = t
        out[f"floor.ratio.{name}"] = fastest / t
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("bench", "test"), default="bench",
        help="bench: the sizes in BENCHMARK.json; test: every graph at test scale (smoke runs)",
    )
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    configure_env()
    from layerbench import metrics

    if args.workload not in metrics.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(metrics.WORKLOADS)}")

    from layerbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    spark = None
    phases = {}  # wall seconds of each phase of the run
    try:
        t_phase = time.perf_counter()
        setup_times = []
        for _ in range(SETUP_REPS):
            if spark is not None:
                spark.stop()
            t0 = time.perf_counter()
            if wl.uses_spark:
                spark = start_spark()
            wl.setup(spark)
            setup_times.append(time.perf_counter() - t0)

        def phase(name):
            nonlocal t_phase
            phases[name] = -t_phase + (t_phase := time.perf_counter())

        phase("setup")
        wl.prepare_oracle()
        phase("oracle")
        warmups = WARMUP_PASSES if wl.uses_spark else 0
        warm = [c for i in range(warmups) for c in wl.run_pass(spark, i)]
        phase("warm-up")
        seconds = metrics.RUN_SECONDS if args.seconds is None else args.seconds
        plain, traced, layers, tracer = measure(wl, spark, seconds, bool(args.trace), warmups)
        phase("measure")
        floor = floor_metrics(wl, spark, plain) if args.trace else {}
        phase("floor")
    finally:
        stop_jvm()

    every = warm + [c for p in plain + traced for c in p]
    attempted = sum(c.attempted for c in every)
    failed = sum(c.failed for c in every)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_seconds(p) for p in plain),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = {"error_rate": failed / attempted, **wl.summary(plain)}
    units = metrics.UNITS
    if args.trace:
        from layerbench.trace import median_metrics

        per_layer = median_metrics(layers)
        per_layer.update(floor)
        per_layer["trace.overhead_s"] = (
            statistics.median(pass_seconds(p) for p in traced) - e2e["pass_s"]
        )
        reported = per_layer
    else:
        reported = e2e

    env = environment(wl.uses_spark, args.scale)
    print("env " + json.dumps(env))
    print(f"setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}; passes: {len(plain)} untraced, {len(traced)} traced")
    print("phases " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    for name, value in {**e2e, **named}.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    for c in every:
        if c.failed:
            print(f"FAILED {c.label} on {c.graph}: {c.error}")

    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "setup_times_s": setup_times,
        "end_to_end": e2e,
        "workload_metrics": named,
        "per_layer": reported if args.trace else None,
        "predictions": {n: metrics.prediction(n) for n in metrics.PER_LAYER},
        "absent": metrics.ABSENT,
        "calls": [[vars(c) for c in p] for p in plain],
        "traced_calls": [[vars(c) for c in p] for p in traced],
        "spans": tracer.dump() if tracer else [],
    }
    out_path.write_text(json.dumps(record, indent=1, default=float))
    print(f"wrote {out_path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in reported.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
