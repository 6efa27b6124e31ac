"""Self-check for the layered benchmark.

    python3 layerbench/selfcheck.py          # everything, about three minutes
    python3 layerbench/selfcheck.py --quick  # no Spark runs

Checks, in order:

1. Every per-layer metric in ``BENCHMARK.json`` has a predicted
   end-to-end effect in ``layerbench/metrics.py``.
2. The correctness gate flags a corrupted labeling and a wrong query
   answer, and passes the oracle's own answers (no Spark needed: the
   program's ``connectivity`` is replaced by a fake inside the workload).
3. Without ``src/`` next to it the command fails fast and prints no result.
4. (not with ``--quick``) The tracer counts the jobs of a SparkContext that
   a workload starts without the runner's knowledge, so ``spark.jobs == 0``
   on ``stream-mixed`` is measured, not assumed.
5. (not with ``--quick``) A seeded ``--scale test`` run of every workload,
   untraced and traced, exits 0, reports exactly the metrics and units of
   ``BENCHMARK.json``, prints every workload figure, and shows the layer
   predictions that need no timing: no Spark jobs on ``stream-mixed``; on
   ``static``, at least 100 Spark jobs per pass and dataflow kernels under
   the SV, Label-Propagation and LDD calls only, none under k-out ->
   UF-Rem-CAS or the partitioned union-find.

This file is not collected by pytest (its name matches no ``test_*`` or
``bench_*`` pattern), so a plain ``pytest`` never starts the benchmark.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from layerbench import metrics  # noqa: E402


def check_predictions() -> None:
    missing = [n for n in metrics.PER_LAYER if metrics.prediction(n) is None]
    assert not missing, f"per-layer metrics without a prediction: {missing}"


def check_gate() -> None:
    import numpy as np

    from layerbench import workloads
    from repro.graphs import suite

    truth = {}

    def fake_connectivity(corrupt):
        def connectivity(spark, g, sampling, finish, **kw):
            labels = truth[g.name].copy()
            if corrupt:  # split vertex 0 off into a class of its own
                labels[0] = len(labels)
            return labels, {}

        return connectivity

    wl = workloads.Static(0, "test")
    wl.graphs = {name: suite.get(name, "test") for _, name, *_ in wl.calls}
    wl.prepare_oracle()
    truth.update(wl.truth)
    real = workloads.connectivity
    try:
        for corrupt in (False, True):
            workloads.connectivity = fake_connectivity(corrupt)
            calls = wl.run_pass(None, 0)
            failed = sum(c.failed for c in calls)
            assert failed == (len(calls) if corrupt else 0), (corrupt, [c.error for c in calls])
    finally:
        workloads.connectivity = real

    expected = np.array([True, False, True])
    assert workloads.wrong_answers(expected.copy(), expected) == 0
    assert workloads.wrong_answers(~expected, expected) == 3
    assert workloads.wrong_answers(expected[:2], expected) == 3

    sm = workloads.StreamMixed(0, "test")
    sm.setup()
    sm.prepare_oracle()
    assert sum(c.failed for c in sm.run_pass(None, 0)) == 0
    sm.answers["RM"][0] = ~sm.answers["RM"][0]
    calls = sm.run_pass(None, 0)
    assert sum(c.failed for c in calls) == len(workloads.STREAM_TYPES) * workloads.BATCH, "flipped answers not caught"


def check_bare_directory() -> None:
    bare = ROOT / ".layerbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in metrics.PATHS:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        metrics.COMMAND + ["--workload", "static", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert r.returncode != 0 and '"metrics"' not in r.stdout, (r.returncode, r.stdout)


def check_unexpected_spark() -> None:
    from layerbench import run
    from layerbench.trace import Tracer, layer_metrics

    run.configure_env()
    tracer = Tracer(None)  # what a workload with uses_spark = False gets
    try:
        with tracer.span("pass"):
            run.start_spark().range(10).count()
        tracer.count_jobs(0)
    finally:
        run.stop_jvm()
    jobs = layer_metrics(tracer, 0)["spark.jobs"]
    assert jobs >= 1, jobs


def dataflow_calls(workload: str, seed: int) -> set[str]:
    """The calls under which a dataflow kernel ran, from a traced run's spans."""
    spans = json.loads((ROOT / ".layerbench" / "out" / f"{workload}-seed{seed}-trace1.json").read_text())["spans"]

    def call_of(i: int) -> str:
        while not spans[i]["name"].startswith("call."):
            i = spans[i]["parent"]
        return spans[i]["name"]

    return {call_of(i) for i, sp in enumerate(spans) if sp["name"].startswith("dataflow.")}


def smoke(workload: str, trace: int) -> dict:
    r = subprocess.run(
        metrics.COMMAND
        + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, (workload, trace, r.stdout[-2000:], r.stderr[-2000:])
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert declared == {n: m["unit"] for n, m in result["metrics"].items()}, workload
    for name, unit, _, where in metrics.WORKLOAD:
        if where in ("all", workload):
            assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines), name
    return {n: m["value"] for n, m in result["metrics"].items()}


def check_smoke() -> None:
    for workload in metrics.WORKLOADS:
        e2e = smoke(workload, 0)
        assert all(v > 0 for v in e2e.values()), (workload, e2e)
        layers = smoke(workload, 1)
        if workload == "stream-mixed":
            assert layers["spark.jobs"] == 0 and layers["streaming.type1.ops_per_s"] > 0
        if workload == "static":
            assert layers["spark.jobs"] >= 100, layers["spark.jobs"]
            assert layers["uf_finish.jobs"] > 0 and layers["unionfind.edges"] > 0
            assert dataflow_calls(workload, 7) == {"call.sv", "call.labelprop", "call.ldd-uf"}
        print(f"ok smoke {workload}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description="self-check for layerbench")
    ap.add_argument("--quick", action="store_true", help="skip the Spark smoke runs")
    args = ap.parse_args()
    checks = [check_predictions, check_gate, check_bare_directory]
    if not args.quick:
        checks += [check_unexpected_spark, check_smoke]
    for check in checks:
        check()
        print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
