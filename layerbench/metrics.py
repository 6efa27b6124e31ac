"""The benchmark's metric table.

``BENCHMARK.json`` is the single source of the workloads, the end-to-end
metrics with their bounds, the per-layer metrics with their units, and
``run_seconds``. This module loads it and adds only what its schema cannot
hold:

- ``WORKLOAD``: the per-workload figures a user of that workload sees
  (``cc_s.*``, ``stream_*``, ``batch_latency_s.*``, where the tail is the
  highest percentile with at least ten samples beyond it, recorded with
  that percentile and the sample count). They are printed and written to
  the run's result file; they are not in ``BENCHMARK.json`` because it
  requires every listed metric on every workload.
- ``PREDICTIONS``: for each per-layer metric, by name prefix, the
  end-to-end metric it is predicted to move. A layer that a workload does
  not touch reports 0 there, which is itself a prediction (e.g.
  ``spark.jobs`` on ``stream-mixed``).
"""
from __future__ import annotations

import json
from pathlib import Path

MANIFEST = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
COMMAND: list[str] = MANIFEST["command"]
PATHS: list[str] = MANIFEST["paths"]
RUN_SECONDS: int = MANIFEST["run_seconds"]
WORKLOADS = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}

# (name, unit, better, workload)
WORKLOAD = [
    ("error_rate", "ratio", "lower", "all"),
    ("cc_s.kout-uf", "s", "lower", "static"),
    ("cc_s.partitioned-uf", "s", "lower", "static"),
    ("cc_s.sv", "s", "lower", "static"),
    ("cc_s.labelprop", "s", "lower", "static"),
    ("cc_s.ldd-uf", "s", "lower", "static"),
    ("stream_ops_per_s", "1/s", "higher", "stream-mixed"),
    ("stream_bulk_updates_per_s", "1/s", "higher", "stream-mixed"),
    ("batch_latency_s.p50", "s", "lower", "stream-mixed"),
    ("batch_latency_s.tail", "s", "lower", "stream-mixed"),
    ("batch_latency_s.tail_pct", "%", "higher", "stream-mixed"),
    ("batch_latency_s.tail_beyond", "count", "higher", "stream-mixed"),
    ("batch_latency_s.samples", "count", "higher", "stream-mixed"),
]

UNITS = {**END_TO_END, **{n: u for n, u, *_ in WORKLOAD}, **PER_LAYER}

# per-layer name prefix -> the end-to-end effect a change there should have
PREDICTIONS = {
    "unionfind.": (
        "stream-mixed: pass_s (stream_ops_per_s, stream_bulk_updates_per_s, batch_latency_s.*); "
        "static: pass_s (cc_s.kout-uf, cc_s.partitioned-uf, cc_s.ldd-uf) by at most its share; "
        "none on cc_s.sv, cc_s.labelprop"
    ),
    "streaming.": "stream-mixed: pass_s (stream_ops_per_s, batch_latency_s.*)",
    "graphs.": "static: pass_s (every cc_s.*)",
    "sampling.": "static: pass_s (cc_s.kout-uf, cc_s.ldd-uf)",
    "uf_finish.": "static: pass_s (cc_s.partitioned-uf)",
    "dataflow.": "static: pass_s (cc_s.sv, cc_s.labelprop, cc_s.ldd-uf); none on cc_s.kout-uf and "
    "cc_s.partitioned-uf (0 rounds) or on stream-mixed",
    "spark.": "static: pass_s; exactly 0 on stream-mixed",
    "floor.gather_edges_s.": "none: the GatherEdges floor of one static graph",
    "floor.ratio.": "falls when cc_s.* on that graph does",
    "trace.overhead_s": "none: traced minus untraced pass_s",
}

DATAFLOW_KERNELS = ("sv", "labelprop", "ldd")
# per-layer metrics the design names but no workload can produce
ABSENT = {
    "dataflow.bfs.*": "no workload runs BFS sampling; adding it to static would push a run "
    "past its time budget",
    "dataflow.lt-prf.*": "kout->LT-PRF is not run: on every suite graph tried (CW, FR) k-out covers the "
    "graph on some seeds, so the call takes 0.3 s or 2 s by seed, and a fourth kernel would push "
    "static past its time budget",
}


def prediction(name: str) -> str | None:
    """The predicted end-to-end effect of per-layer metric ``name``."""
    hits = [p for p in PREDICTIONS if name.startswith(p)]
    return PREDICTIONS[max(hits, key=len)] if hits else None
