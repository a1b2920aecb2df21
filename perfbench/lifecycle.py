"""One lifecycle run of the index: edge list → build → query → serve → update.

Every workload runs every stage, so every run reports every end-to-end
metric.  The workload's focus stage runs on the workload's own seeded input
for the measured window (``--seconds``).  The other stages run a fixed
number of operations on the reference input, a small graph where each stage
is cheap; the counts give each reported percentile at least ten samples
beyond it.

The stages are interleaved: the run is :data:`ROUNDS` rounds, and each
round runs a slice of every stage in lifecycle order.  A slow spell of the
host then touches a slice of every metric instead of the whole of one.
All checks, and the reading of peak memory, come after the last round.

Stages call the library's public functions directly.  With tracing on, the
benchmark wraps each call into a layer in a span of a
:class:`repro.obs.trace.Tracer` that writes into memory; the spans are
written to a JSONL file at the end and reconciled into per-layer rows
whose sum plus a residual row equals the stage's end-to-end total.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import ApproximationConfig, ScanIndex
from repro.core.core_order import build_core_order
from repro.core.neighbor_order import build_neighbor_order
from repro.core.query import get_cores
from repro.graphs import dense_clustered_graph, planted_partition
from repro.graphs.io import read_edge_list, write_edge_list
from repro.lsh.approximate import compute_approximate_similarities
from repro.obs.trace import Tracer
from repro.parallel.execute import executor_for
from repro.parallel.metrics import CostReport
from repro.parallel.scheduler import Scheduler
from repro.quality.ari import adjusted_rand_index
from repro.serve import wire
from repro.similarity.exact import compute_similarities

import inputs
import oracle
import stats
from servetier import ServerProcess

JOBS = 2
#: k=64 merges the planted clusters of the dense graph (ARI 0.00-0.03), so
#: the approximation is scored at a sketch length where it holds them.
SIMHASH_SAMPLES = 256
SETUP_REPEATS = 3
GRID_EPSILONS = 14
ORACLE_SETTINGS = 3
CONNECTIONS = 2
SERVE_WORKERS = 2
ROUNDS = 4
#: Per round, off focus: this many builds and query passes over the grid.
#: On focus a stage repeats until its share of the window,
#: ``--seconds / ROUNDS``, has passed (at least once).
SIDE_BUILDS = 2
SIDE_QUERY_PASSES = 2
#: Per round: serve epochs, each of this many requests.  Every epoch but
#: the first starts after an update.
SERVE_EPOCHS = 3
EPOCH_REQUESTS = 600
REJECTED_PROBES = 200
STAGES = ("build", "explore", "serve")


@dataclass(frozen=True)
class Workload:
    """A workload is named after its focus stage: ``build`` or ``explore``."""

    name: str
    why: str
    make_graph: Callable[[int], object]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "build",
            "dense brain-like graph (3.6k vertices, ~548k edges): the high-arboricity "
            "regime where exact construction is costly and the paper applies LSH",
            lambda seed: dense_clustered_graph(12, 300, p_intra=0.8, p_inter=0.02, seed=seed),
        ),
        Workload(
            "explore",
            "social planted partition (12k vertices, ~369k edges): an interactive "
            "(mu, epsilon) sweep where queries and the sweep planner do the work",
            lambda seed: planted_partition(60, 200, p_intra=0.25, p_inter=0.001, seed=seed),
        ),
    )
}
#: The input of every stage outside a workload's focus, and always of the
#: serve stage: a small graph (4k vertices, ~75k edges) on which every
#: stage is cheap and steady.
REFERENCE = Workload(
    "reference",
    "small planted partition behind the socket tier",
    lambda seed: planted_partition(40, 100, p_intra=0.3, p_inter=0.002, seed=seed),
)


@dataclass
class Input:
    """One input graph of a run: its edge-list file and saved artifact."""

    workload: Workload
    directory: Path

    @property
    def edge_path(self) -> Path:
        return self.directory / "edges.txt"

    @property
    def artifact(self) -> Path:
        return self.directory / "artifact"


class SpanLog:
    """Benchmark-side spans kept in memory through a ``repro.obs`` Tracer.

    Each span carries ``span_id`` and ``parent`` attributes so the layer
    tree can be rebuilt from the file alone.  Disabled, :meth:`span` is a
    plain ``yield``.
    """

    def __init__(self, enabled: bool, run_id: str = "", *, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self._run_id = run_id
        self._lines: list[str] = []
        self._tracer = Tracer(self, clock=clock)
        self._stack: list[int] = []
        self._next_id = 0

    def write(self, text: str) -> None:
        self._lines.append(text)

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        try:
            with self._tracer.span(name, span_id=span_id, parent=parent, run=self._run_id, **attrs):
                yield
        finally:
            self._stack.pop()

    def event(self, name: str, **attrs) -> None:
        if self.enabled:
            self._tracer.event(name, run=self._run_id, **attrs)

    def spans(self) -> list[dict]:
        records = (json.loads(line) for line in self._lines)
        return [record for record in records if record["kind"] == "span"]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(self._lines))


def layer_rows(log: SpanLog, parent_name: str, layers: tuple[str, ...], *, scale: float = 1.0):
    """Median duration of the parent span and of each named child layer.

    Returns ``(total, rows)`` where ``rows`` holds each layer's median plus
    the residual, so ``sum(rows.values()) == total`` exactly.
    """
    spans = log.spans()
    parents = [span for span in spans if span["name"] == parent_name]
    by_parent: dict[int, dict[str, float]] = {}
    for span in spans:
        by_parent.setdefault(span["attrs"]["parent"], {})[span["name"]] = span["dur"]
    total = stats.median(span["dur"] for span in parents) * scale
    medians = {
        layer: stats.median(by_parent[span["attrs"]["span_id"]].get(layer, 0.0) for span in parents) * scale
        for layer in layers
    }
    return total, stats.reconcile(total, medians)


@dataclass
class Run:
    """Everything one workload run measures and checks."""

    workload: Workload
    seed: int
    seconds: float
    root: Path
    workdir: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def input_for(self, stage: str) -> Input:
        """The workload's own input for its focus stage, else the reference
        (always for ``serve``)."""
        workload = self.workload if stage == self.workload.name else REFERENCE
        return Input(workload, self.workdir / workload.name)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# ----------------------------------------------------------------------
# Set-up: the input graphs, their edge-list files and the read artifacts
# ----------------------------------------------------------------------
def setup(run: Run) -> None:
    """Generate each input graph and write its edge list; build and save
    the artifacts the query and serve stages read.  Done
    :data:`SETUP_REPEATS` times; each repetition is one ``setup_s`` sample."""
    sources = {source.workload.name: source for source in map(run.input_for, STAGES)}
    read = {run.input_for(stage).workload.name for stage in ("explore", "serve")}
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        for name, source in sources.items():
            source.directory.mkdir(parents=True, exist_ok=True)
            graph = source.workload.make_graph(run.seed)
            write_edge_list(graph, source.edge_path)
            if name in read:
                shutil.rmtree(source.artifact, ignore_errors=True)
                ScanIndex.build(graph, jobs=JOBS).save(source.artifact)
        run.sample("setup_s", time.perf_counter() - started)


# ----------------------------------------------------------------------
# Build stage: edge list → verified durable artifact, and the SimHash index
# ----------------------------------------------------------------------
def _force_pool(executor) -> None:
    """Start the executor's worker pool with one trivial sharded sort."""
    executor.segmented_argsort(
        np.arange(4, dtype=np.int64), np.arange(5, dtype=np.int64),
        universe=4, max_segment=1, strategy="argsort",
    )


class BuildStage:
    """Edge-list file → ``ScanIndex.build(jobs=2)`` → ``save`` →
    ``load(verify=True)``, then a SimHash build of the same graph."""

    name = "build"

    def __init__(self, run: Run, log: SpanLog, *, focus: bool) -> None:
        self.run, self.log, self.focus = run, log, focus
        self.edge_path = run.input_for("build").edge_path
        self.artifact = run.workdir / "built"
        self.config = ApproximationConfig(measure="cosine", num_samples=SIMHASH_SAMPLES, seed=run.seed)
        self.last = None

    def round(self, budget: float) -> None:
        started = time.perf_counter()
        count = 0
        while True:
            self.last = None  # frees the previous build before the next
            shutil.rmtree(self.artifact, ignore_errors=True)
            self.last = self._traced() if self.log.enabled else self._timed()
            count += 1
            if self.focus and time.perf_counter() - started >= budget:
                break
            if not self.focus and count >= SIDE_BUILDS:
                break

    def _timed(self):
        run = self.run
        tick = time.perf_counter()
        graph = read_edge_list(self.edge_path)
        index = ScanIndex.build(graph, jobs=JOBS)
        index.save(self.artifact)
        loaded = ScanIndex.load(self.artifact, verify=True)
        run.sample("build_s", time.perf_counter() - tick)
        tick = time.perf_counter()
        approx = ScanIndex.build(graph, approximate=self.config)
        run.sample("approx_build_s", time.perf_counter() - tick)
        return index, loaded, approx

    def _traced(self):
        run, log = self.run, self.log
        with log.span("lifecycle.build"):
            with log.span("graphs.read_edge_list"):
                graph = read_edge_list(self.edge_path)
            scheduler = Scheduler()
            started = time.perf_counter()
            with executor_for(JOBS, num_arcs=graph.num_arcs) as executor:
                if executor is not None:
                    with log.span("parallel.pool_startup"):
                        _force_pool(executor)
                with log.span("similarity.exact"):
                    similarities = compute_similarities(graph, scheduler=scheduler, executor=executor)
                run.sample("similarity.work", scheduler.counter.work)
                run.sample("similarity.span", scheduler.counter.span)
                with log.span("core.neighbor_order"):
                    neighbor_order = build_neighbor_order(graph, similarities, scheduler=scheduler, executor=executor)
                with log.span("core.core_order"):
                    core_order = build_core_order(graph, neighbor_order, scheduler=scheduler, executor=executor)
            index = ScanIndex(
                graph=graph,
                similarities=similarities,
                neighbor_order=neighbor_order,
                core_order=core_order,
                construction_report=CostReport.from_counter(
                    "index-construction[cosine]", scheduler.counter,
                    wall_seconds=time.perf_counter() - started,
                ),
            )
            with log.span("storage.save"):
                index.save(self.artifact)
            with log.span("storage.load_verify"):
                loaded = ScanIndex.load(self.artifact, verify=True)
        with log.span("lifecycle.approx_build"):
            scheduler = Scheduler()
            with log.span("lsh.simhash"):
                similarities = compute_approximate_similarities(graph, self.config, scheduler=scheduler)
            with log.span("core.neighbor_order"):
                neighbor_order = build_neighbor_order(graph, similarities, scheduler=scheduler)
            with log.span("core.core_order"):
                core_order = build_core_order(graph, neighbor_order, scheduler=scheduler)
        approx = ScanIndex(
            graph=graph, similarities=similarities, neighbor_order=neighbor_order,
            core_order=core_order,
            construction_report=CostReport.from_counter("index-construction[lsh]", scheduler.counter),
        )
        return index, loaded, approx

    def check(self) -> None:
        """The verified artifact answers the probe set like the in-memory
        index; the SimHash index is scored against it by ARI."""
        run = self.run
        size = sum(path.stat().st_size for path in self.artifact.rglob("*") if path.is_file())
        run.sample("artifact_mb", size / 1e6)
        run.layers["storage.artifact_bytes"] = float(size)
        index, loaded, approx = self.last
        boundaries = inputs.distinct_similarities(index.similarities.values)
        scores = []
        for mu, epsilon in inputs.probe_settings(boundaries):
            expected = index.query(mu, epsilon, deterministic_borders=True)
            got = loaded.query(mu, epsilon, deterministic_borders=True)
            run.check(
                np.array_equal(expected.labels, got.labels)
                and np.array_equal(expected.core_mask, got.core_mask),
                f"loaded artifact differs from the in-memory index at mu={mu} eps={epsilon}",
            )
            estimate = approx.query(mu, epsilon, deterministic_borders=True)
            scores.append(adjusted_rand_index(estimate, expected))
        run.sample("approx_ari", statistics.fmean(scores))


# ----------------------------------------------------------------------
# Query stage: per-setting queries, then one query_many over the grid
# ----------------------------------------------------------------------
class QueryStage:
    """Per-setting ``query`` over the grid, then one ``query_many`` over the
    same grid, on the mmap-loaded artifact."""

    name = "explore"

    def __init__(self, run: Run, log: SpanLog, *, focus: bool) -> None:
        self.run, self.log, self.focus = run, log, focus
        tick = time.perf_counter()
        self.index = ScanIndex.load(run.input_for("explore").artifact)
        run.layers["storage.load_mmap_s"] = time.perf_counter() - tick
        boundaries = inputs.distinct_similarities(self.index.similarities.values)
        self.grid = inputs.query_grid(boundaries, run.seed, GRID_EPSILONS)

    def round(self, budget: float) -> None:
        if not self.focus:
            for _ in range(SIDE_QUERY_PASSES):
                self._pass()
            return
        started = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            self._pass()
            last_pass = time.perf_counter() - pass_started
            elapsed = time.perf_counter() - started
            if elapsed >= budget or elapsed + last_pass > budget * 1.25:
                return

    def _pass(self) -> None:
        run, log, index, grid = self.run, self.log, self.index, self.grid
        singles = []
        per_pair_total = 0.0
        for mu, epsilon in grid:
            if log.enabled:
                # get_cores is timed in a call of its own, outside the
                # query's span: the query calls it again inside.
                with log.span("core.get_cores"):
                    cores = get_cores(index.core_order, mu, epsilon)
                scheduler = Scheduler()
                with log.span("lifecycle.query", mu=mu):
                    tick = time.perf_counter()
                    clustering = index.query(mu, epsilon, deterministic_borders=True, scheduler=scheduler)
                    per_pair_total += time.perf_counter() - tick
                run.sample("core.query_work", scheduler.counter.work)
                run.sample("core.cores_per_query", cores.shape[0])
                run.sample("core.clustered_per_query", clustering.num_clustered_vertices)
            else:
                tick = time.perf_counter()
                clustering = index.query(mu, epsilon, deterministic_borders=True)
                elapsed = time.perf_counter() - tick
                per_pair_total += elapsed
                run.sample("query_ms", elapsed * 1e3)
            singles.append(clustering)
        with log.span("lifecycle.query_many", settings=len(grid)):
            tick = time.perf_counter()
            batch = index.query_many(grid, deterministic_borders=True)
            many_seconds = time.perf_counter() - tick
        run.sample("sweep_settings_per_s", len(grid) / many_seconds)
        run.sample("core.sweep_sharing", per_pair_total / many_seconds)
        run.notes["sweep_base"] = (
            f"per-pair total {per_pair_total:.3f} s / query_many {many_seconds:.3f} s "
            f"over {len(grid)} settings"
        )
        for (mu, epsilon), single, batched in zip(grid, singles, batch):
            run.check(
                np.array_equal(single.labels, batched.labels)
                and np.array_equal(single.core_mask, batched.core_mask),
                f"query and query_many differ at mu={mu} eps={epsilon}",
            )

    def check(self) -> None:
        """Brute-force SCAN agrees with the index on a few grid settings."""
        index, run = self.index, self.run
        edge_u, edge_v = index.graph.edge_list()
        edges = list(zip(edge_u.tolist(), edge_v.tolist()))
        sims = oracle.similarities(index.graph.num_vertices, edges)
        for mu, epsilon in self.grid[-ORACLE_SETTINGS:]:
            clustering = index.query(mu, epsilon)
            answer = oracle.scan(index.graph.num_vertices, sims, mu, epsilon)
            problems = oracle.check(clustering.labels.tolist(), clustering.core_mask.tolist(), answer)
            run.check(not problems, f"oracle mu={mu} eps={epsilon}: {problems[:2]}")


# ----------------------------------------------------------------------
# Serve stage: socket tier, closed loop, update epochs
# ----------------------------------------------------------------------
def _lru_totals(stats_answer: dict, generation: int) -> tuple[int, int, int, int]:
    """(served, hits, misses, evictions) of the workers at ``generation``."""
    served = hits = misses = evictions = 0
    for worker in stats_answer["per_worker"]:
        lru = worker.get("lru")
        if lru is None or lru.get("generation") != generation:
            continue
        served += lru["served"]
        hits += lru["cache_hits"]
        misses += lru["cache"]["misses"]
        evictions += lru["cache"]["evictions"]
    return served, hits, misses, evictions


class ServeStage:
    """``repro serve --port 0`` over a copy of the reference artifact,
    driven in closed loop, with an update before every epoch but the first.

    :meth:`start` starts the server, which stays up across rounds;
    :meth:`finish` reads its counters and :meth:`stop` drains it.
    """

    name = "serve"

    def __init__(self, run: Run, log: SpanLog) -> None:
        self.run, self.log = run, log
        self.artifact = run.workdir / "served"
        shutil.rmtree(self.artifact, ignore_errors=True)
        shutil.copytree(run.input_for("serve").artifact, self.artifact)
        self.base = ScanIndex.load(self.artifact, mmap_mode=None)
        boundaries = inputs.distinct_similarities(self.base.similarities.values)
        edge_u, edge_v = self.base.graph.edge_list()
        self.source = inputs.DeltaSource(edge_u, edge_v, self.base.graph.num_vertices, run.seed)
        self.stream = inputs.RequestStream(boundaries, run.seed)
        self.epochs: list[list] = []
        self.answers: list[str] = []
        self.deltas: list[tuple] = []
        self.first_after: list[float] = []
        self.totals = np.zeros(4, dtype=np.int64)
        self.exit_code: int | None = None
        self.server: ServerProcess | None = None

    def start(self) -> None:
        run = self.run
        with self.log.span("lifecycle.serve_start"):
            self.server = ServerProcess(str(self.artifact), src_dir=str(run.root / "src"), workers=SERVE_WORKERS)
        run.layers["serve.start_s"] = self.server.start_seconds
        _, rejected, rejected_answers = self.server.drive(["1:0.5"] * REJECTED_PROBES, 1)
        for answer in rejected_answers:
            run.check(answer.startswith(wire.ERROR_PREFIX), f"mu=1 was not rejected: {answer!r}")
        run.layers["serve.rejected_rtt_us"] = stats.median(rejected) * 1e6

    def round(self, budget: float) -> None:
        run, server = self.run, self.server
        for _ in range(SERVE_EPOCHS):
            epoch = len(self.epochs)
            if epoch > 0:
                self.deltas.append(self._update(epoch))
            requests = self.stream.epoch(epoch, EPOCH_REQUESTS)
            with self.log.span("lifecycle.serve_epoch", epoch=epoch, requests=len(requests)):
                seconds, latencies, answers = server.drive([request.line for request in requests], CONNECTIONS)
            run.sample("serve_rps", len(requests) / seconds)
            run.samples.setdefault("serve_us", []).extend(value * 1e6 for value in latencies)
            self.epochs.append(requests)
            self.answers.extend(answers)
            if epoch > 0:
                self.first_after.append(latencies[0])
            self.totals += np.array(_lru_totals(server.control_json("!stats"), epoch))

    def _update(self, epoch: int):
        """Delta → load → apply_updates → save over the served artifact →
        ``!invalidate``, with no request in flight.  Returns the delta."""
        run, log = self.run, self.log
        insertions, deletions = self.source.next_delta()
        with log.span("lifecycle.update", epoch=epoch):
            started = time.perf_counter()
            with log.span("dynamic.load"):
                index = ScanIndex.load(self.artifact, mmap_mode=None)
            loaded = time.perf_counter()
            with log.span("dynamic.apply_updates"):
                report = index.apply_updates(insertions=insertions, deletions=deletions)
            applied = time.perf_counter()
            with log.span("storage.patch_save"):
                index.save(self.artifact)
            saved = time.perf_counter()
            with log.span("serve.invalidate"):
                ack = self.server.control("!invalidate")
            finished = time.perf_counter()
        run.check(ack.startswith("invalidated generation="), f"!invalidate answered {ack!r}")
        run.sample("update_ms", (finished - started) * 1e3)
        run.sample("dynamic.load_ms", (loaded - started) * 1e3)
        run.sample("dynamic.apply_updates_ms", (applied - loaded) * 1e3)
        run.sample("storage.patch_save_ms", (saved - applied) * 1e3)
        run.sample("serve.invalidate_ms", (finished - saved) * 1e3)
        run.sample("dynamic.affected_edges", report.affected_edges)
        return insertions, deletions

    def finish(self) -> float:
        """Read the server's counters; returns its peak resident MB."""
        run, server = self.run, self.server
        final_stats = server.control_json("!stats")
        metrics = server.control_json("!metrics")
        latencies_us = run.samples["serve_us"]
        if self.first_after:
            run.layers["serve.first_after_invalidate_ms"] = stats.median(self.first_after) * 1e3
        served, hits, misses, evictions = (int(value) for value in self.totals)
        run.layers["serve.hit_ratio"] = hits / served if served else 0.0
        run.layers["serve.misses"] = float(misses)
        routed = [worker["requests"] for worker in final_stats["per_worker"]]
        run.layers["serve.worker_share_max"] = max(routed) / sum(routed)
        counters = metrics.get("counters", {})
        run.notes["serve_counters"] = {
            "evictions": evictions,
            "shed": counters.get("serve.requests_shed_total", 0),
            "hedges": counters.get("serve.hedges_total", 0),
            "restarts": final_stats.get("restarts_total", 0),
            "late_replies": counters.get("serve.late_replies_total", 0),
        }
        frontend = metrics.get("histograms", {}).get("serve.request_seconds", {})
        run.layers["serve.frontend_request_us"] = frontend.get("p50", 0.0) * 1e6
        run.layers["serve.socket_residual_us"] = (
            stats.median(latencies_us) - run.layers["serve.frontend_request_us"]
        )
        return server.peak_rss_mb()

    def stop(self) -> None:
        if self.server is not None:
            self.exit_code = self.server.stop()

    def check(self) -> None:
        """Every socket answer, ``cache=`` stripped, equals the in-process
        session answer for its setting and generation.  The base index
        starts at generation 0 and takes each epoch's delta in turn.  Times
        the session's hit and miss paths and the formatter on the way."""
        run, index = self.run, self.base
        run.check(self.exit_code == 0, f"server did not drain cleanly (exit {self.exit_code})")
        position = 0
        for epoch, requests in enumerate(self.epochs):
            if epoch > 0:
                insertions, deletions = self.deltas[epoch - 1]
                index.apply_updates(insertions=insertions, deletions=deletions)
            session = index.session()
            for request in requests:
                tick = time.perf_counter()
                result = session.serve(request.mu, request.epsilon)
                served = time.perf_counter() - tick
                tick = time.perf_counter()
                line = wire.format_response(result)
                run.sample("serve.format_us", (time.perf_counter() - tick) * 1e6)
                if result.from_cache:
                    run.sample("serve.session_hit_us", served * 1e6)
                else:
                    run.sample("serve.session_miss_ms", served * 1e3)
                got = self.answers[position]
                position += 1
                run.check(
                    wire.strip_cache_field(got) == wire.strip_cache_field(line),
                    f"epoch {request.epoch} {request.line}: got {got!r}, expected {line!r}",
                )


# ----------------------------------------------------------------------
# The whole run
# ----------------------------------------------------------------------
FOCUS_STAGES = {"build": BuildStage, "explore": QueryStage}


def lifecycle(run: Run, log: SpanLog, *, focus_only: bool = False) -> None:
    """Run :data:`ROUNDS` rounds of every stage, then every check.

    ``focus_only`` runs just the workload's focus stage (the untraced pass
    that the tracing overhead is measured against).
    """
    focus = run.workload.name
    budget = run.seconds / ROUNDS
    stage_seconds = run.notes.setdefault("stage_seconds", {})
    serve = None
    try:
        if focus_only:
            stages = [FOCUS_STAGES[focus](run, log, focus=True)]
        else:
            stages = [
                BuildStage(run, log, focus=focus == "build"),
                QueryStage(run, log, focus=focus == "explore"),
            ]
            serve = ServeStage(run, log)
            stages.append(serve)
            serve.start()
        for _ in range(ROUNDS):
            for stage in stages:
                # Garbage of the previous slice (replaced indexes) would
                # otherwise be collected inside this slice's timings.
                gc.collect()
                started = time.perf_counter()
                stage.round(budget)
                stage_seconds[stage.name] = stage_seconds.get(stage.name, 0.0) + time.perf_counter() - started
        server_peak_mb = serve.finish() if serve is not None else 0.0
    finally:
        if serve is not None:
            serve.stop()
    # Peak memory of the timed rounds only: the checks below hold their own
    # data (the oracle's sets, the replayed sessions).
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + server_peak_mb
    for stage in stages:
        started = time.perf_counter()
        stage.check()
        stage_seconds[f"check_{stage.name}"] = time.perf_counter() - started
    for name, seconds in stage_seconds.items():
        stage_seconds[name] = round(seconds, 2)
