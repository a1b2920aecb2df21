"""Metric assembly and the printed tables of one workload run."""

from __future__ import annotations

import statistics

import stats
from lifecycle import Run, SpanLog, layer_rows

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("approx_build_s", "s", "lower"),
    ("approx_ari", "ratio", "higher"),
    ("artifact_mb", "MB", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p95_ms", "ms", "lower"),
    ("sweep_settings_per_s", "1/s", "higher"),
    ("serve_rps", "1/s", "higher"),
    ("serve_p50_us", "us", "lower"),
    ("serve_p99_us", "us", "lower"),
    ("update_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
)

BUILD_LAYERS = (
    "graphs.read_edge_list", "parallel.pool_startup", "similarity.exact",
    "core.neighbor_order", "core.core_order", "storage.save", "storage.load_verify",
)
APPROX_LAYERS = ("lsh.simhash", "core.neighbor_order", "core.core_order")
UPDATE_LAYERS = (
    "dynamic.load_ms", "dynamic.apply_updates_ms", "storage.patch_save_ms", "serve.invalidate_ms",
)

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("graphs.read_edge_list_s", "s"),
    ("parallel.pool_startup_s", "s"),
    ("similarity.exact_s", "s"),
    ("similarity.work", "count"),
    ("similarity.span", "count"),
    ("core.neighbor_order_s", "s"),
    ("core.core_order_s", "s"),
    ("storage.save_s", "s"),
    ("storage.load_verify_s", "s"),
    ("storage.artifact_bytes", "bytes"),
    ("build.residual_s", "s"),
    ("lsh.simhash_s", "s"),
    ("storage.load_mmap_s", "s"),
    ("core.get_cores_ms", "ms"),
    ("core.query_work", "count"),
    ("core.cores_per_query", "count"),
    ("core.clustered_per_query", "count"),
    ("core.sweep_sharing", "ratio"),
    ("serve.start_s", "s"),
    ("serve.session_hit_us", "us"),
    ("serve.session_miss_ms", "ms"),
    ("serve.format_us", "us"),
    ("serve.frontend_request_us", "us"),
    ("serve.socket_residual_us", "us"),
    ("serve.rejected_rtt_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count"),
    ("serve.worker_share_max", "ratio"),
    ("serve.first_after_invalidate_ms", "ms"),
    ("dynamic.load_ms", "ms"),
    ("dynamic.apply_updates_ms", "ms"),
    ("dynamic.affected_edges", "count"),
    ("storage.patch_save_ms", "ms"),
    ("serve.invalidate_ms", "ms"),
    ("update.residual_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
)


def end_to_end(run: Run) -> dict[str, float]:
    samples = run.samples
    return {
        "setup_s": stats.median(samples["setup_s"]),
        "build_s": stats.median(samples["build_s"]),
        "approx_build_s": stats.median(samples["approx_build_s"]),
        "approx_ari": stats.median(samples["approx_ari"]),
        "artifact_mb": stats.median(samples["artifact_mb"]),
        "query_p50_ms": stats.median(samples["query_ms"]),
        "query_p95_ms": stats.percentile(samples["query_ms"], 95),
        "sweep_settings_per_s": stats.median(samples["sweep_settings_per_s"]),
        "serve_rps": stats.median(samples["serve_rps"]),
        "serve_p50_us": stats.median(samples["serve_us"]),
        "serve_p99_us": stats.percentile(samples["serve_us"], 99),
        "update_ms": stats.median(samples["update_ms"]),
        "peak_rss_mb": run.peak_rss_mb,
        "success_rate": 1.0 - run.failed / run.attempted,
    }


def _focus_time(run: Run, log: SpanLog | None) -> float:
    """The focus stage's headline time in seconds, from spans when ``log``
    is given: the median build, or the median single ``index.query``."""
    if run.workload.name == "build":
        if log is not None:
            return layer_rows(log, "lifecycle.build", ())[0]
        return stats.median(run.samples["build_s"])
    if log is not None:
        return layer_rows(log, "lifecycle.query", ())[0]
    return stats.median(run.samples["query_ms"]) / 1e3


def per_layer(run: Run, log: SpanLog, untraced: Run):
    """Per-layer metrics plus the reconciliation tables of a traced run.

    Each table is ``(total name, total, unit, rows)`` with ``rows`` summing
    to ``total`` (the last row is the residual).
    """
    samples, layers = run.samples, dict(run.layers)
    build_total, build_rows = layer_rows(log, "lifecycle.build", BUILD_LAYERS)
    approx_total, approx_rows = layer_rows(log, "lifecycle.approx_build", APPROX_LAYERS)
    # get_cores runs in a call of its own beside each query (the query calls
    # it again inside), so its row estimates that part of the query.
    query_total = layer_rows(log, "lifecycle.query", (), scale=1e3)[0]
    get_cores_ms = layer_rows(log, "core.get_cores", (), scale=1e3)[0]
    query_rows = stats.reconcile(query_total, {"core.get_cores": get_cores_ms})
    for layer in BUILD_LAYERS:
        layers[f"{layer}_s"] = build_rows[layer]
    layers["build.residual_s"] = build_rows["residual"]
    layers["lsh.simhash_s"] = approx_rows["lsh.simhash"]
    layers["core.get_cores_ms"] = get_cores_ms
    for name in ("similarity.work", "similarity.span", "core.query_work", "core.sweep_sharing",
                 "serve.session_hit_us", "serve.session_miss_ms", "serve.format_us",
                 "dynamic.affected_edges", *UPDATE_LAYERS):
        layers[name] = stats.median(samples[name])
    layers["core.cores_per_query"] = statistics.fmean(samples["core.cores_per_query"])
    layers["core.clustered_per_query"] = statistics.fmean(samples["core.clustered_per_query"])
    update_total = stats.median(samples["update_ms"])
    update_rows = stats.reconcile(update_total, {name: layers[name] for name in UPDATE_LAYERS})
    layers["update.residual_ms"] = update_rows["residual"]
    layers["obs.trace_overhead_pct"] = stats.overhead_pct(_focus_time(run, log), _focus_time(untraced, None))

    serve_total = stats.median(samples["serve_us"])
    frontend = layers["serve.frontend_request_us"]
    tables = [
        ("build_s", build_total, "s", build_rows),
        ("approx_build_s", approx_total, "s", approx_rows),
        ("query_p50_ms", query_total, "ms", query_rows),
        ("update_ms", update_total, "ms", update_rows),
        ("serve_p50_us", serve_total, "us", {"serve.frontend_request_us": frontend, "residual": serve_total - frontend}),
        ("serve.frontend_request_us", frontend, "us", stats.reconcile(frontend, {
            "serve.session_hit_us": layers["serve.session_hit_us"],
            "serve.format_us": layers["serve.format_us"],
        })),
    ]
    missing = [name for name, _ in PER_LAYER if name not in layers]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return {name: layers[name] for name, _ in PER_LAYER}, tables


def print_end_to_end(values: dict[str, float]) -> None:
    for name, unit, better in END_TO_END:
        print(f"  {name:<24} {values[name]:>14.6g} {unit:<6} ({better} is better)")


def print_tables(tables) -> None:
    for total_name, total, unit, rows in tables:
        print(f"  {total_name:<34} {total:>12.6g} {unit}")
        for name, value in rows.items():
            share = 100.0 * value / total if total else 0.0
            print(f"    {name:<32} {value:>12.6g} {unit}  {share:6.1f}%")
