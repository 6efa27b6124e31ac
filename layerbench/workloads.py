"""The two workloads and the correctness gate.

Each workload is closed loop: one driver thread makes its calls back to
back. A workload object is built once per run; ``setup`` is what a user
pays before the first call (Spark session, graph builds, warm-up calls)
and is repeated by the runner; ``prepare_oracle`` builds the independent
answers outside every timed region; ``run_pass`` makes one full pass and
returns one :class:`Call` per call, each checked against the oracle.

The run seed drives every random choice the workload makes: the k-out and
LDD sampling seeds, the stream's edge order and its query pairs.
"""
from __future__ import annotations

import contextlib
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core.framework import connectivity
from repro.core.streaming import StreamingConnectIt
from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.ground_truth import cc_labels, same_partition
from repro.unionfind import UFSpec

BATCH = 1_000
# batches streamed per graph and algorithm: the first 10^5 edges of the
# seeded edge order, so that a stream-mixed pass stays a few seconds long
STREAM_BATCHES = 100


@dataclass
class Call:
    label: str
    graph: str
    seconds: float
    attempted: int = 1
    failed: int = 0
    error: str | None = None


def labels_ok(labels: np.ndarray, truth: np.ndarray) -> bool:
    """Gate for a static result: the same partition as the oracle's."""
    return len(labels) == len(truth) and same_partition(labels, truth)


def wrong_answers(answers: np.ndarray, expected: np.ndarray) -> int:
    """Gate for one stream batch: the number of query answers that differ."""
    if answers.shape != expected.shape:
        return len(expected)
    return int((answers != expected).sum())


def _err(e: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(e), e)).strip()


def _no_span(name, **attrs):
    return contextlib.nullcontext()


class Static:
    """Every Spark call, in one session: a fixed list of ``connectivity``
    calls per pass, each checked with ``same_partition``.

    On HL12 (the paper's headline web graph) the paper's fastest
    configuration, k-out -> UF-Rem-CAS, and the partitioned union-find:
    Spark sampling, collect, ``Graph.df`` and driver union-find, with zero
    dataflow rounds. On FR (a Barabasi-Albert social graph) the job-bound
    iterative kernels: one component of low diameter, so every kernel
    converges in a few rounds whatever the seed. On the web graphs (CW,
    HL*) the LDD round count swings with the seed.
    """

    name = "static"
    uses_spark = True
    # (label, graph, sampling, finish, extra connectivity kwargs)
    calls = (
        ("kout-uf", "HL12", "kout", "uf-rem-cas", {}),
        ("partitioned-uf", "HL12", "none", "uf-rem-cas", {"spark_uf": True}),
        ("sv", "FR", "none", "sv", {}),
        ("labelprop", "FR", "none", "labelprop", {}),
        ("ldd-uf", "FR", "ldd", "uf-rem-cas", {}),
    )
    bench_scales = {"HL12": "mini", "FR": "test"}

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scales = {g: s if scale == "bench" else "test" for g, s in self.bench_scales.items()}
        self.graphs: dict = {}
        self.truth: dict = {}

    def setup(self, spark) -> None:
        suite.get.cache_clear()
        self.graphs = {name: suite.get(name, scale) for name, scale in self.scales.items()}
        # the warm-up call a user makes on a tiny graph before real work
        connectivity(spark, gen.path_graph(2, name="warmup"), "kout", "uf-rem-cas")

    def prepare_oracle(self) -> None:
        self.truth = {name: cc_labels(g.n, g.src, g.dst) for name, g in self.graphs.items()}

    def run_pass(self, spark, pass_idx: int, span=_no_span) -> list[Call]:
        rng = np.random.default_rng([self.seed, pass_idx])
        out = []
        for label, name, sampling, finish, kw in self.calls:
            g = self.graphs[name]
            opts = dict(kw)
            if sampling in ("kout", "ldd"):
                opts["sampling_opts"] = {"seed": int(rng.integers(2**31))}
            call = Call(label, name, 0.0)
            t0 = time.perf_counter()
            try:
                with span(f"call.{label}", graph=name):
                    labels, _ = connectivity(spark, g, sampling, finish, **opts)
                call.seconds = time.perf_counter() - t0
                if not labels_ok(labels, self.truth[name]):
                    call.failed, call.error = 1, "labels differ from cc_labels"
            except Exception as e:  # a failed call is counted, never dropped
                call.seconds = time.perf_counter() - t0
                call.failed, call.error = 1, _err(e)
            out.append(call)
        return out

    def summary(self, passes: list[list[Call]]) -> dict[str, float]:
        return {
            f"cc_s.{lab}": statistics.median(c.seconds for p in passes for c in p if c.label == lab)
            for lab, *_ in self.calls
        }


STREAM_TYPES = {
    "type1": UFSpec("uf-rem-cas", "naive", "split-one"),
    "type3": UFSpec("uf-rem-cas", "naive", "splice"),
    "type2": "sv",
}


def _offline_answers(n: int, batches: list[np.ndarray], queries: list[np.ndarray]) -> list[np.ndarray]:
    """Sequential union-by-size reference: apply each batch, then answer its
    queries. Independent of ``repro.unionfind``."""
    parent = list(range(n))
    size = [1] * n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for b, q in zip(batches, queries):
        for u, v in b.tolist():
            ru, rv = find(u), find(v)
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
        out.append(np.array([find(a) == find(c) for a, c in q.tolist()], dtype=bool))
    return out


class StreamMixed:
    """Driver-resident streaming state; never starts Spark."""

    name = "stream-mixed"
    uses_spark = False
    bulk_graph = "RM"

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.graph_scale = "mini" if scale == "bench" else "test"

    def setup(self, spark=None) -> None:
        suite.streaming_graph.cache_clear()
        rng = np.random.default_rng(self.seed)
        self.graphs, self.batches, self.queries, self.edges = {}, {}, {}, {}
        for kind in ("RM", "BA"):
            g = suite.streaming_graph(kind, self.graph_scale)
            half = g.src < g.dst
            e = np.stack([g.src[half], g.dst[half]], axis=1)[rng.permutation(int(half.sum()))]
            self.graphs[kind], self.edges[kind] = g, e
            self.batches[kind] = [e[i : i + BATCH] for i in range(0, min(len(e), STREAM_BATCHES * BATCH), BATCH)]
            self.queries[kind] = [rng.integers(0, g.n, (BATCH, 2)) for _ in self.batches[kind]]
        tiny = gen.cycle(8, name="warmup")
        for alg in STREAM_TYPES.values():
            s = StreamingConnectIt(tiny.n, alg)
            s.process_batch(np.stack([tiny.src, tiny.dst], axis=1), [[0, 4]])

    def prepare_oracle(self) -> None:
        self.answers = {k: _offline_answers(g.n, self.batches[k], self.queries[k]) for k, g in self.graphs.items()}
        self.truth = {}
        for k, g in self.graphs.items():
            u, v = np.concatenate(self.batches[k]).T
            self.truth[k] = cc_labels(g.n, np.concatenate([u, v]), np.concatenate([v, u]))  # wants both directions
        g = self.graphs[self.bulk_graph]
        self.bulk_truth = cc_labels(g.n, g.src, g.dst)

    def _stream(self, kind: str, tname: str, out: list[Call]) -> None:
        s = StreamingConnectIt(self.graphs[kind].n, STREAM_TYPES[tname])
        for b, q, expected in zip(self.batches[kind], self.queries[kind], self.answers[kind]):
            call = Call(f"batch.{tname}", kind, 0.0, attempted=1 + len(q))
            t0 = time.perf_counter()
            try:
                answers = s.process_batch(b, q)
                call.seconds = time.perf_counter() - t0
                wrong = wrong_answers(answers, expected)
                if wrong:
                    call.failed, call.error = wrong, f"{wrong} wrong query answers"
            except Exception as e:
                call.seconds = time.perf_counter() - t0
                call.failed, call.error = call.attempted, _err(e)
            out.append(call)
        out.append(self._labels_check(s, self.truth[kind], kind, f"labels.{tname}"))

    @staticmethod
    def _labels_check(s, truth: np.ndarray, kind: str, label: str) -> Call:
        call = Call(label, kind, 0.0)
        try:
            if not labels_ok(s.labels(), truth):
                call.failed, call.error = 1, "final labels differ from cc_labels"
        except Exception as e:
            call.failed, call.error = 1, _err(e)
        return call

    def run_pass(self, spark, pass_idx: int, span=_no_span) -> list[Call]:
        out: list[Call] = []
        for kind in self.graphs:
            for tname in STREAM_TYPES:
                with span(f"call.stream.{tname}", graph=kind):
                    self._stream(kind, tname, out)
        e = self.edges[self.bulk_graph]
        for tname, alg in STREAM_TYPES.items():
            call = Call(f"bulk.{tname}", self.bulk_graph, 0.0)
            t0 = time.perf_counter()
            try:
                with span(f"call.bulk.{tname}", graph=self.bulk_graph):
                    s = StreamingConnectIt(self.graphs[self.bulk_graph].n, alg)
                    s.process_batch(e)
                call.seconds = time.perf_counter() - t0
            except Exception as exc:
                call.seconds = time.perf_counter() - t0
                call.failed, call.error = 1, _err(exc)
                out.append(call)
                continue
            out.append(call)
            out.append(self._labels_check(s, self.bulk_truth, self.bulk_graph, f"labels.bulk.{tname}"))
        return out

    def summary(self, passes: list[list[Call]]) -> dict[str, float]:
        n_ops = len(STREAM_TYPES) * sum(
            len(b) + len(q) for k in self.batches for b, q in zip(self.batches[k], self.queries[k])
        )
        ops, bulk = [], []
        for p in passes:
            ops.append(n_ops / sum(c.seconds for c in p if c.label.startswith("batch.")))
            bulk_t = sum(c.seconds for c in p if c.label.startswith("bulk."))
            bulk.append(len(STREAM_TYPES) * len(self.edges[self.bulk_graph]) / bulk_t)
        lat = np.array([c.seconds for p in passes for c in p if c.label.startswith("batch.")])
        pct, beyond = tail_percentile(len(lat))
        return {
            "stream_ops_per_s": statistics.median(ops),
            "stream_bulk_updates_per_s": statistics.median(bulk),
            "batch_latency_s.p50": float(np.median(lat)),
            "batch_latency_s.tail": float(np.percentile(lat, pct)),
            "batch_latency_s.tail_pct": pct,
            "batch_latency_s.tail_beyond": beyond,
            "batch_latency_s.samples": len(lat),
        }


def tail_percentile(n: int) -> tuple[float, int]:
    """The highest of the usual percentiles with at least ten samples beyond
    it, and how many samples lie beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(n * (100 - pct) / 100)
        if beyond >= 10:
            return pct, beyond
    return 50.0, n // 2


WORKLOADS = {w.name: w for w in (Static, StreamMixed)}
