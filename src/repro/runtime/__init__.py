"""Parallel runtime substrate: the shared rank executor, partitioning,
buffered metered I/O, tracing, and the simulated-cluster performance
model.  Exports resolve on first use (PEP 562)."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "buffers": ("BufferedTextWriter", "RangeLineReader"),
    "executor": ("POOL_KINDS", "ExecutorFailure", "PipeWorkers",
                 "SharedExecutor", "get_shared_executor",
                 "reset_shared_executor", "resolve_start_method",
                 "simulate_schedule"),
    "metrics": ("DEFAULT_CLUSTER", "ClusterModel", "RankMetrics",
                "ServiceMetrics", "format_metrics_snapshot", "merge_all",
                "modeled_parallel_time"),
    "partition": ("Partition", "even_split", "partition_bytes",
                  "partition_records", "partition_text_file"),
    "tracing": ("Span", "Tracer", "format_summary", "format_tree",
                "get_tracer", "install", "read_jsonl", "to_chrome_events",
                "write_chrome", "write_jsonl", "write_trace"),
})
