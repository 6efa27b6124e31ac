"""Tracing from outside the program: spans, Spark job counts, layer metrics.

:class:`Tracer` keeps spans in memory (name, start, end, parent) and, when a
SparkContext is given, puts each span in its own Spark job group so that
``statusTracker`` attributes every job, stage and task to exactly one span.
Counts are kept per span ("self"); a span's inclusive count sums its
subtree, because a job belongs only to the group active when it started.

:func:`install` wraps the program's public functions in spans without
editing ``src/``. A function imported by name into another module is
patched where it is looked up (``repro.core.sampling.run_components``, not
``repro.unionfind.core.run_components``). Rows collected to the driver are
counted on ``pyspark.sql.classic.dataframe.DataFrame.toPandas``, the class
``DataFrame.toPandas`` calls resolve to on pyspark 4.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from layerbench.metrics import DATAFLOW_KERNELS, PER_LAYER

_UF_COUNTERS = ("parent_reads", "cas_attempts", "cas_failures", "hooks", "total_path_length")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    group: str | None = None
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    rows: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, sc=None):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set[int] = set()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        i = len(self.spans)
        sp = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None, attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(i)
        if self.sc is not None:
            sp.group = f"layerbench-{i}"
            self.sc.setJobGroup(sp.group, name)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self.sc is not None:
                outer = self.spans[self._stack[-1]].group if self._stack else None
                if outer is None:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                else:
                    self.sc.setJobGroup(outer, self.spans[self._stack[-1]].name)

    def count_jobs(self, root: int) -> None:
        """Count the jobs, stages and tasks of every span from ``root`` on.
        Call it after the pass has ended."""
        from pyspark import SparkContext

        sc = self.sc or SparkContext._active_spark_context
        if sc is None:
            return
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        if self.sc is None:  # a context the program started on its own
            jobs = sc._jsc.sc().statusStore().jobsList(None)
            ids = {job.jobId() for job in sc._jvm.scala.jdk.javaapi.CollectionConverters.asJava(jobs)}
            self._count(tracker, ids - self._seen, self.spans[root])
            self._seen |= ids
            return
        for sp in self.spans[root:]:
            self._count(tracker, tracker.getJobIdsForGroup(sp.group), sp)

    @staticmethod
    def _count(tracker, job_ids, sp: Span) -> None:
        for jid in job_ids:
            sp.jobs += 1
            job = tracker.getJobInfo(jid)
            for sid in job.stageIds if job else ():
                stage = tracker.getStageInfo(sid)
                if stage is not None and stage.numCompletedTasks > 0:
                    sp.stages += 1
                    sp.tasks += stage.numCompletedTasks

    def add_rows(self, n: int) -> None:
        if self._stack:
            self.spans[self._stack[-1]].rows += n

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def wrap(self, name, on_result=None):
        """Wrapper factory: run the call in a span named ``name``;
        ``on_result(span, out, args, kwargs)`` records attributes from the
        result."""

        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                with self.span(name) as sp:
                    out = orig(*args, **kwargs)
                    if on_result is not None:
                        on_result(sp, out, args, kwargs)
                    return out

            return wrapper

        return make

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions; undo with ``tracer.unpatch()``."""
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

    import repro.core.framework as framework
    import repro.core.minbased as minbased
    import repro.core.sampling as sampling
    import repro.core.streaming as streaming
    import repro.core.uf_finish as uf_finish
    import repro.graphs.generators as generators

    def uf_counters(sp, out, args, kwargs):
        sp.attrs["counters"] = out[1].c.as_dict()

    def sample_attrs(sp, out, args, kwargs):
        sp.attrs["coverage"] = out.coverage()
        sp.attrs["edges_processed"] = int(out.edges_processed)

    def rounds(sp, out, args, kwargs):
        sp.attrs["rounds"] = int(out[1])

    for mod in (sampling, uf_finish):
        tracer.patch(mod, "run_components", tracer.wrap("unionfind.run_components", uf_counters))
    tracer.patch(sampling, "kout_sample", tracer.wrap("sampling.kout", sample_attrs))
    tracer.patch(sampling, "ldd_sample", tracer.wrap("sampling.ldd", sample_attrs))
    tracer.patch(sampling, "ldd_labels", tracer.wrap("dataflow.ldd", rounds))
    tracer.patch(framework, "uf_components_spark", tracer.wrap("uf_finish.spark"))
    tracer.patch(minbased, "shiloach_vishkin", tracer.wrap("dataflow.sv", rounds))
    tracer.patch(minbased, "label_propagation", tracer.wrap("dataflow.labelprop", rounds))
    tracer.patch(generators.Graph, "df", tracer.wrap("graphs.df"))

    def process_batch(orig):
        @functools.wraps(orig)
        def wrapper(self, updates, queries=None):
            before = self.state.c.as_dict()
            with tracer.span(f"streaming.type{self.type}") as sp:
                out = orig(self, updates, queries)
            after = self.state.c.as_dict()
            sp.attrs["counters"] = {k: after[k] - before[k] for k in after}
            sp.attrs["counters"]["max_path_length"] = after["max_path_length"]
            sp.attrs["updates"] = int(np.asarray(updates).size // 2)
            sp.attrs["queries"] = 0 if queries is None else int(np.asarray(queries).size // 2)
            return out

        return wrapper

    tracer.patch(streaming.StreamingConnectIt, "process_batch", process_batch)

    def to_pandas(orig):
        @functools.wraps(orig)
        def wrapper(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            tracer.add_rows(len(out))
            return out

        return wrapper

    tracer.patch(ClassicDataFrame, "toPandas", to_pandas)


def _inclusive(spans: list[Span], root: int) -> dict[int, dict[str, int]]:
    """Subtree sums of jobs/stages/tasks/rows for every span under ``root``."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out: dict[int, dict[str, int]] = {}

    def visit(i: int) -> dict[str, int]:
        s = spans[i]
        tot = {"jobs": s.jobs, "stages": s.stages, "tasks": s.tasks, "rows": s.rows}
        for c in children.get(i, ()):
            for k, v in visit(c).items():
                tot[k] += v
        out[i] = tot
        return tot

    visit(root)
    return out


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Every per-layer metric for the pass whose span index is ``root``."""
    spans = tracer.spans
    inc = _inclusive(spans, root)
    sub = [(i, spans[i]) for i in sorted(inc)]
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}

    def named(prefix: str):
        return [(i, s) for i, s in sub if s.name == prefix]

    # L0: run_components calls, plus the Type 1/3 streaming batches, which run
    # the same union closures on the driver.
    uf = {k: 0 for k in _UF_COUNTERS}
    unions = mpl = 0
    for _, s in named("unionfind.run_components"):
        c = s.attrs["counters"]
        m["unionfind.run_components_s"] += s.seconds
        m["unionfind.edges"] += c["unions"]
        unions += c["unions"]
        mpl = max(mpl, c["max_path_length"])
        for k in _UF_COUNTERS:
            uf[k] += c[k]
    for t in (1, 2, 3):
        secs = ops = 0.0
        for _, s in named(f"streaming.type{t}"):
            c = s.attrs["counters"]
            secs += s.seconds
            ops += s.attrs["updates"] + s.attrs["queries"]
            m[f"streaming.type{t}.parent_reads"] += c["parent_reads"]
            m[f"streaming.type{t}.parent_writes"] += c["parent_writes"]
            if t != 2:
                unions += s.attrs["updates"]
                mpl = max(mpl, c["max_path_length"])
                for k in _UF_COUNTERS:
                    uf[k] += c[k]
        m[f"streaming.type{t}.ops_per_s"] = ops / secs if secs else 0.0
    for k in _UF_COUNTERS:
        m[f"unionfind.{k}"] = uf[k]
    m["unionfind.max_path_length"] = mpl
    if m["unionfind.run_components_s"]:
        m["unionfind.edges_per_s"] = m["unionfind.edges"] / m["unionfind.run_components_s"]
    m["unionfind.hooks_per_union"] = uf["hooks"] / unions if unions else 0.0
    m["unionfind.cas_fail_ratio"] = uf["cas_failures"] / uf["cas_attempts"] if uf["cas_attempts"] else 0.0

    # L2: edge DataFrame builds, sampling, the partitioned union-find finish.
    for _, s in named("graphs.df"):
        m["graphs.df_s"] += s.seconds
        m["graphs.df_calls"] += 1
    coverages = []
    for scheme in ("kout", "ldd"):
        for i, s in named(f"sampling.{scheme}"):
            m[f"sampling.{scheme}_s"] += s.seconds
            m[f"sampling.{scheme}_jobs"] += inc[i]["jobs"]
            m["sampling.collect_rows"] += inc[i]["rows"]
            m["sampling.edges_processed"] += s.attrs["edges_processed"]
            coverages.append(s.attrs["coverage"])
    m["sampling.coverage"] = float(np.mean(coverages)) if coverages else 0.0
    for i, s in named("uf_finish.spark"):
        merge = sum(spans[j].seconds for j, c in sub if c.parent == i and c.name == "unionfind.run_components")
        m["uf_finish.merge_s"] += merge
        m["uf_finish.spark_s"] += s.seconds - merge
        m["uf_finish.jobs"] += inc[i]["jobs"]
        m["uf_finish.hook_rows"] += inc[i]["rows"]

    # L1: dataflow kernels.
    for k in DATAFLOW_KERNELS:
        p = f"dataflow.{k}"
        for i, s in named(p):
            m[f"{p}.s"] += s.seconds
            m[f"{p}.rounds"] += s.attrs["rounds"]
            for f in ("jobs", "stages", "tasks"):
                m[f"{p}.{f}"] += inc[i][f]
        if m[f"{p}.rounds"]:
            m[f"{p}.s_per_round"] = m[f"{p}.s"] / m[f"{p}.rounds"]
            m[f"{p}.jobs_per_round"] = m[f"{p}.jobs"] / m[f"{p}.rounds"]

    for f in ("jobs", "stages", "tasks"):
        m[f"spark.{f}"] = inc[root][f]
    m["spark.collect_rows"] = inc[root]["rows"]
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
