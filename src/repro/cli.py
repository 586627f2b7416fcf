"""Command-line interface: ``repro <subcommand>``.

Subcommands cover the whole pipeline: simulate a dataset, preprocess it
(BAMX/BAIX), convert it (fully or for one region, in parallel), build a
coverage histogram, denoise it with NL-means, and compute an FDR
threshold.  ``serve``/``submit``/``status``/``cancel`` drive the
long-lived conversion job service (:mod:`repro.service`) over a local
unix socket.  Run ``repro --help`` or ``repro <cmd> --help`` for
options.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING

from .errors import ReproError

if TYPE_CHECKING:       # handlers import numpy when they run
    import numpy as np


def _knob_value(text: str, name: str, auto: bool):
    """argparse type for ``--shards`` (int or 'auto') and
    ``--batch-size`` (int)."""
    from .core.base import validate_knob
    try:
        return validate_knob(text, name, auto=auto)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _shards_value(text: str):
    return _knob_value(text, "shards", auto=True)


def _batch_size_value(text: str):
    return _knob_value(text, "batch_size", auto=False)


def _nprocs_value(text: str) -> int:
    """argparse type for ``--nprocs``: a rank count >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"nprocs {text!r} must be an integer >= 1")
    return int(text)


def _maybe_tuner(args: argparse.Namespace):
    """Build an AutoTuner when auto-tuning is in play, else None.

    A persistent tuner is wanted when ``--shards`` is ``auto`` or the
    user named a model file; otherwise the converters run the static
    path.
    """
    if args.cost_model is None and args.shards != "auto":
        return None
    from .runtime.autotune import AutoTuner, CostModel, \
        resolve_model_path
    model = CostModel(resolve_model_path(args.cost_model))
    _warn_damaged(model)
    return AutoTuner(model)


def _warn_damaged(model) -> None:
    """Say on stderr what a cost-model file lost at load, if anything."""
    if model.load_error:
        print(f"warning: damaged cost model {model.path}: "
              f"{model.load_error}", file=sys.stderr)


def _parse_chroms(text: str) -> list[tuple[str, int]]:
    """Parse ``chr1:60000,chr2:40000`` into [(name, length), ...]."""
    out = []
    for part in text.split(","):
        name, _, length = part.partition(":")
        if not name or not length.isdigit() or int(length) == 0:
            raise ReproError(f"bad chromosome spec {part!r} "
                             "(want name:length with length >= 1)")
        out.append((name, int(length)))
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simdata import build_bam_dataset, build_sam_dataset
    chroms = _parse_chroms(args.chromosomes)
    if args.output.endswith(".bam"):
        wl = build_bam_dataset(args.output, args.templates, chroms,
                               seed=args.seed, sort=not args.unsorted)
    else:
        wl = build_sam_dataset(args.output, args.templates, chroms,
                               seed=args.seed, sort=not args.unsorted)
    mapped = sum(1 for r in wl.records if r.is_mapped)
    print(f"wrote {len(wl.records)} records ({mapped} mapped) "
          f"to {args.output}")
    return 0


def _converter_knobs(args: argparse.Namespace) -> dict:
    """The constructor arguments every converter shares."""
    return {"batch_size": args.batch_size, "pipeline": args.pipeline,
            "shards_per_rank": args.shards, "tuner": _maybe_tuner(args)}


def _cmd_convert(args: argparse.Namespace) -> int:
    from . import core      # the converter for the input's kind only
    from .formats.registry import source_kind
    kind = source_kind(args.input, "repro convert")
    record_filter = core.parse_filter_expr(args.filter) if args.filter \
        else None
    knobs = _converter_knobs(args)
    if kind == "sam":
        converter, source = core.SamConverter(**knobs), args.input
    elif kind == "bam":
        converter = core.BamConverter(store_format=args.store_format,
                                      **knobs)
        supplied = core.PreprocArtifacts.for_store(args.bamx, args.baix) \
            if args.bamx else None
        artifacts, pre = converter.ensure_preprocessed(
            args.input, args.work_dir or args.out_dir,
            artifacts=supplied, nprocs=args.nprocs,
            executor=args.executor)
        if pre is not None:
            print(f"preprocessed to {artifacts.store_path} "
                  f"({pre.total_seconds:.2f}s, {pre.records} records)")
        else:
            print(f"reusing preprocessing artifacts "
                  f"{artifacts.store_path}")
        source = artifacts.store_path
    else:
        converter, source = core.BamConverter(**knobs), args.input
    result = converter.convert(source, args.target, args.out_dir,
                               args.nprocs, args.executor,
                               record_filter=record_filter)
    print(f"converted {result.records} records -> {result.emitted} "
          f"{result.target} objects in {len(result.outputs)} part files "
          f"({result.wall_seconds:.2f}s, {result.nprocs} ranks)")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    from .core import BamConverter, PreprocSamConverter
    from .formats.registry import source_kind
    if source_kind(args.input, "repro preprocess", ("sam", "bam")) == "bam":
        bamx, baix, metrics = BamConverter(
            store_format=args.store_format).preprocess(
            args.input, args.work_dir, compress=args.compress,
            nprocs=args.nprocs, executor=args.executor)
        print(f"preprocessing ({args.nprocs} ranks): {metrics.records} "
              f"records, {metrics.total_seconds:.2f}s\n  {bamx}\n  {baix}")
    else:
        paths, metrics = PreprocSamConverter(
            shards_per_rank=args.shards,
            store_format=args.store_format,
            tuner=_maybe_tuner(args)).preprocess(
            args.input, args.work_dir, args.nprocs, args.executor)
        total = sum(m.records for m in metrics)
        print(f"parallel preprocessing ({args.nprocs} ranks): "
              f"{total} records")
        for path in paths:
            print(f"  {path}")
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    from .core import BamConverter, parse_filter_expr
    record_filter = parse_filter_expr(args.filter) if args.filter \
        else None
    result = BamConverter(**_converter_knobs(args)).convert_region(
        args.bamx, args.baix, args.region, args.target, args.out_dir,
        args.nprocs, args.executor, mode=args.mode,
        record_filter=record_filter)
    print(f"partial conversion of {args.region}: {result.records} records "
          f"-> {result.emitted} {result.target} objects "
          f"({result.wall_seconds:.2f}s, {result.nprocs} ranks)")
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    import numpy as np

    from .formats.bedgraph import write_bedgraph
    from .formats.registry import source_kind
    from .stats import histogram_parallel, histogram_to_bedgraph
    source_kind(args.input, "repro histogram")
    histos, _ = histogram_parallel(args.input, args.bin_size)
    intervals = []
    for chrom, histo in histos.items():
        intervals.extend(histogram_to_bedgraph(histo, chrom,
                                               args.bin_size))
    n = write_bedgraph(args.output, intervals)
    print(f"wrote {n} intervals over {len(histos)} chromosomes "
          f"to {args.output}")
    if args.npy:
        np.save(args.npy, np.concatenate(list(histos.values())))
        print(f"wrote dense histogram to {args.npy}")
    return 0


def _load_series(path: str) -> np.ndarray:
    import numpy as np
    if path.endswith(".npy"):
        return np.load(path)
    from .formats.bedgraph import read_bedgraph
    intervals = read_bedgraph(path)
    if not intervals:
        raise ReproError(f"no intervals in {path!r}")
    chrom = intervals[0].chrom
    span = max(iv.end for iv in intervals if iv.chrom == chrom)
    out = np.zeros(span)
    for iv in intervals:
        if iv.chrom == chrom:
            out[iv.start:iv.end] = iv.value
    return out


def _cmd_nlmeans(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from .stats import nlmeans_parallel
    values = _load_series(args.input)
    t0 = time.perf_counter()
    denoised, metrics = nlmeans_parallel(values, args.nprocs,
                                         args.search_radius,
                                         args.half_patch, args.sigma,
                                         args.executor)
    wall = time.perf_counter() - t0
    np.save(args.output, denoised)
    busy = max(m.compute_seconds for m in metrics)
    print(f"denoised {len(values)} bins with r={args.search_radius}, "
          f"l={args.half_patch}, sigma={args.sigma} on {args.nprocs} "
          f"ranks (slowest rank {busy:.2f}s, wall {wall:.2f}s) "
          f"-> {args.output}")
    return 0


def _cmd_fdr(args: argparse.Namespace) -> int:
    import numpy as np

    from .simdata import build_simulations
    from .stats import fdr_parallel
    hist = _load_series(args.histogram)
    if args.simulations:
        sims = np.load(args.simulations)
    else:
        sims = build_simulations(hist, args.n_simulations, seed=args.seed)
    result, _ = fdr_parallel(hist, sims, args.threshold, args.nprocs,
                             executor=args.executor)
    print(f"FDR(p_t={args.threshold}) = {result.fdr:.6f} "
          f"(numerator {result.numerator:.2f}, "
          f"denominator {result.denominator:.0f}, "
          f"B={sims.shape[0]}, M={sims.shape[1]})")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from .core.sort import sort_file
    result, _ = sort_file(args.input, args.output, args.nprocs,
                          args.executor, args.work_dir, args.chunk_records)
    print(f"sorted {result.records} records with {args.nprocs} "
          f"run-generation ranks, {result.runs} parts joined "
          f"({result.metrics.total_seconds:.2f}s) -> {result.output}")
    return 0


def _cmd_flagstat(args: argparse.Namespace) -> int:
    from .tools import flagstat_parallel
    stats, _ = flagstat_parallel(args.input, args.nprocs, args.executor)
    print(stats.format_report())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .tools import validate_file
    report = validate_file(args.input, check_mates=not args.no_mates)
    print(report.format_report())
    return 0 if report.ok else 1


def _cmd_peaks(args: argparse.Namespace) -> int:
    import numpy as np

    from .simdata import build_simulations
    from .stats import call_peaks
    hist = _load_series(args.histogram)
    if args.simulations:
        sims = np.load(args.simulations)
    else:
        sims = build_simulations(hist, args.n_simulations,
                                 seed=args.seed)
    result = call_peaks(hist, sims, target_fdr=args.target_fdr,
                        denoise=not args.no_denoise,
                        search_radius=args.search_radius,
                        half_patch=args.half_patch,
                        nprocs=args.nprocs, min_width=args.min_width,
                        merge_gap=args.merge_gap, executor=args.executor)
    print(f"selected p_t={result.threshold} "
          f"(FDR {result.fdr.fdr:.4f}, "
          f"{result.fdr.denominator:.0f} candidate bins)")
    print(f"{result.n_peaks} enriched regions:")
    for peak in result.peaks[:args.limit]:
        print(f"  bins [{peak.start}, {peak.end})  "
              f"max={peak.max_value:.1f} mean={peak.mean_value:.1f}")
    if result.n_peaks > args.limit:
        print(f"  ... and {result.n_peaks - args.limit} more")
    if args.bed:
        from .formats.bed import BedInterval, write_bed
        intervals = [
            BedInterval(args.chrom, p.start * args.bin_size,
                        p.end * args.bin_size, f"peak{i}",
                        min(1000, p.max_value))
            for i, p in enumerate(result.peaks)]
        write_bed(args.bed, intervals)
        print(f"wrote {len(intervals)} BED features to {args.bed}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ConversionService, GatewayConfig, \
        GatewayServer, protocol
    if not args.socket and not args.listen:
        print("serve needs --socket PATH and/or --listen HOST:PORT",
              file=sys.stderr)
        return 2
    listen = protocol.parse_address(args.listen) if args.listen \
        else None
    config = GatewayConfig(max_pending_jobs=args.max_pending_jobs)
    cache_verify: object = args.cache_verify
    if cache_verify not in ("always", "never"):
        try:
            cache_verify = float(cache_verify)
        except ValueError:
            # Leave the raw string; ArtifactCache._parse_verify
            # reports it as a friendly ServiceError.
            pass
    service = ConversionService(args.work_dir, workers=args.workers,
                                cache_dir=args.cache_dir,
                                cache_max_bytes=args.cache_max_bytes,
                                shards_per_rank=args.shards,
                                journal_path=args.journal,
                                journal_fsync=args.journal_fsync,
                                cache_verify=cache_verify,
                                cost_model_path=args.cost_model)
    if args.journal:
        recovered = int(service.metrics.gauge("journal_recovered_jobs"))
        print(f"journal {args.journal}: {recovered} jobs recovered",
              flush=True)
    daemon = GatewayServer(service, unix_path=args.socket,
                           tcp_address=listen, config=config)
    try:
        daemon.start()
        endpoints = []
        if args.socket:
            endpoints.append(str(args.socket))
        if daemon.tcp_address is not None:
            endpoints.append("tcp://%s:%d" % daemon.tcp_address)
        print(f"repro service listening on {' and '.join(endpoints)} "
              f"({args.workers} workers, cache at "
              f"{service.cache.cache_dir})", flush=True)
        daemon.join()
    except KeyboardInterrupt:
        print("shutting down")
        daemon.stop()
    return 0


def _service_client(args: argparse.Namespace):
    """Connect a ServiceClient from ``--socket``/``--connect`` flags.

    Retries the connect with bounded backoff so racing a just-spawned
    ``repro serve`` (listener not bound yet) does not fail hard.
    """
    from .service import ServiceClient, protocol
    if getattr(args, "connect", None):
        address: object = protocol.parse_address(args.connect)
    else:
        address = args.socket
    return ServiceClient(address, connect_retries=3,
                         connect_backoff=0.1)


def _format_job_line(job: dict) -> str:
    error = f"  error: {job['error']}" if job.get("error") else ""
    return (f"{job['job_id']}  {job['kind']:<10} {job['state']:<9} "
            f"attempts={job['attempts']}{error}")


def _cmd_submit(args: argparse.Namespace) -> int:
    params = {"input": args.input, "target": args.target,
              "out_dir": args.out_dir, "nprocs": args.nprocs,
              "executor": args.executor}
    if args.shards != 1:
        params["shards"] = args.shards
    if args.batch_size is not None:
        params["batch_size"] = args.batch_size
    if args.filter:
        params["filter"] = args.filter
    if args.store_format != "bamx":
        params["store_format"] = args.store_format
    kind = "convert"
    if args.region:
        kind = "region"
        params["region"] = args.region
        params["mode"] = args.mode
    with _service_client(args) as client:
        job = client.submit(kind, params, priority=args.priority,
                            timeout=args.timeout,
                            max_retries=args.max_retries)
        print(f"submitted {job['job_id']} ({kind}, "
              f"priority {job['priority']})")
        if not args.wait:
            return 0
        job = client.wait(job["job_id"])
    print(_format_job_line(job))
    if job["state"] != "done":
        return 1
    result = job.get("result") or {}
    if "records" in result:
        cache = result.get("cache")
        suffix = f" (preprocessing cache {cache})" if cache else ""
        print(f"converted {result['records']} records -> "
              f"{result['emitted']} {result['target']} objects in "
              f"{len(result['outputs'])} part files "
              f"({result['wall_seconds']:.2f}s){suffix}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _service_client(args) as client:
        if args.trace:
            from .runtime.tracing import format_tree, spans_from_dicts
            span_dicts = client.trace(args.trace)
            if not span_dicts:
                print(f"no trace recorded for {args.trace}")
                return 0
            print(format_tree(spans_from_dicts(span_dicts)))
            return 0
        if args.metrics:
            from .runtime.metrics import format_metrics_snapshot
            print(format_metrics_snapshot(client.metrics()))
            return 0
        jobs = client.status(args.job)
    if isinstance(jobs, dict):
        jobs = [jobs]
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(_format_job_line(job))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    with _service_client(args) as client:
        cancelled = client.cancel(args.job)
    if cancelled:
        print(f"cancelled {args.job}")
        return 0
    print(f"{args.job} had already finished")
    return 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from .runtime.autotune import CostModel, resolve_model_path
    path = resolve_model_path(args.cost_model)
    model = CostModel(path)
    if args.action == "reset":
        n = len(model)
        model.reset()
        print(f"cleared {n} cost-model keys ({path})")
        return 0
    _warn_damaged(model)
    snap = model.snapshot()
    if not snap:
        print(f"cost model {path}: empty (cold); auto runs fall back "
              f"to the static defaults until it warms up")
        return 0
    print(f"cost model {path}: {len(snap)} keys")
    print(f"{'key':<36} {'rate s/unit':>12} {'hottest':>12} "
          f"{'hot%':>5} {'obs':>4}")
    for key in sorted(snap):
        entry = snap[key]
        print(f"{key:<36} {entry['rate']:>12.3e} "
              f"{entry['rate_max']:>12.3e} "
              f"{100 * entry['hot_frac']:>4.0f}% "
              f"{entry['count']:>4d}")
    return 0


def _cmd_formats(_args: argparse.Namespace) -> int:
    from .formats.registry import list_formats
    for info in list_formats():
        kind = "binary" if info.binary else "text"
        exts = ", ".join(info.extensions)
        print(f"{info.name:<10} {kind:<7} {exts:<20} {info.description}")
    return 0


def _add_service_endpoint_arguments(p: argparse.ArgumentParser) -> None:
    """--socket/--connect pair shared by the service client verbs."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--socket", default=None,
                       help="service unix socket path")
    group.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="service TCP address")


def _add_rank_arguments(p: argparse.ArgumentParser,
                        nprocs_help: str = "ranks the work is "
                                           "partitioned over") -> None:
    """--nprocs/--executor pair shared by every rank-parallel verb."""
    from .defaults import EXECUTORS
    p.add_argument("--nprocs", type=_nprocs_value, default=1,
                   help=f"{nprocs_help} (default 1)")
    p.add_argument("--executor", default="simulate", choices=EXECUTORS,
                   help="how the ranks run: 'simulate' (default) one "
                        "after another in this process, 'thread' or "
                        "'process' concurrently on the shared worker "
                        "pool (results are identical)")


def _add_pipeline_arguments(p: argparse.ArgumentParser) -> None:
    """Batched-pipeline knobs shared by the conversion commands."""
    from .defaults import DEFAULT_BATCH_SIZE, PIPELINES
    p.add_argument("--batch-size", type=_batch_size_value,
                   default=DEFAULT_BATCH_SIZE,
                   help="records per batch through the chunk-level "
                        f"codecs, an integer >= 1 (default "
                        f"{DEFAULT_BATCH_SIZE})")
    p.add_argument("--pipeline", default="batch", choices=PIPELINES,
                   help="'batch' (default) uses the chunk-level codecs "
                        "and per-target fastpaths; 'record' keeps the "
                        "record-at-a-time path (outputs are "
                        "byte-identical)")
    _add_shards_argument(p)


def _add_store_format_argument(p: argparse.ArgumentParser) -> None:
    """The preprocessing record-store format knob."""
    from .defaults import STORE_FORMATS
    p.add_argument("--store-format", default="bamx",
                   choices=STORE_FORMATS,
                   help="record store written by preprocessing: 'bamx' "
                        "(default; row-major fixed records) or 'bamc' "
                        "(slab-columnar, converted through vectorized "
                        "kernels; outputs are byte-identical)")


def _add_shards_argument(p: argparse.ArgumentParser) -> None:
    """The dynamic over-decomposition knob."""
    p.add_argument("--shards", type=_shards_value, default=1,
                   help="shards per rank for dynamic load balancing on "
                        "the shared worker pool; 1 (default) keeps the "
                        "paper-faithful static one-task-per-rank "
                        "schedule, 'auto' lets the cost model pick "
                        "(outputs are byte-identical)")


def _add_cost_model_argument(
        p: argparse.ArgumentParser,
        default: str = "$REPRO_COST_MODEL, then "
                       "~/.cache/repro/cost-model.json") -> None:
    """The persistent cost-model path used by ``--shards auto``."""
    p.add_argument("--cost-model", default=None, metavar="PATH",
                   help="persistent cost-model profile behind "
                        "'--shards auto'; every run given one feeds it "
                        f"(default: {default})")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel NGS format conversion and statistics "
                    "(IPDPSW 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic SAM/BAM "
                                        "dataset")
    p.add_argument("output", help="output path (.sam or .bam)")
    p.add_argument("--templates", type=int, default=1000,
                   help="number of read pairs (default 1000)")
    p.add_argument("--chromosomes", default="chr1:60000,chr2:40000",
                   help="comma-separated name:length list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unsorted", action="store_true",
                   help="keep template order instead of coordinate sort")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("convert", help="convert SAM/BAM/BAMX to another "
                                       "format in parallel")
    p.add_argument("input", help=".sam, .bam or .bamx input")
    p.add_argument("--target", required=True,
                   help="target format (see 'repro formats')")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--work-dir", default=None,
                   help="where BAM preprocessing writes BAMX/BAIX")
    _add_rank_arguments(p)
    p.add_argument("--filter", default=None,
                   help="record filter, e.g. 'q=30,F=0x400,primary'")
    p.add_argument("--bamx", default=None,
                   help="reuse this BAMX instead of preprocessing "
                        "(BAM input only)")
    p.add_argument("--baix", default=None,
                   help="index for --bamx (default <bamx>.baix)")
    _add_store_format_argument(p)
    _add_pipeline_arguments(p)
    _add_cost_model_argument(p)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("preprocess", help="BAMX/BAIX preprocessing only")
    p.add_argument("input", help=".sam or .bam input")
    p.add_argument("--work-dir", required=True)
    _add_rank_arguments(p, "preprocessing ranks")
    p.add_argument("--compress", action="store_true",
                   help="write BGZF-compressed BAMZ instead of BAMX "
                        "(BAM input only)")
    _add_store_format_argument(p)
    _add_shards_argument(p)
    _add_cost_model_argument(p)
    p.set_defaults(fn=_cmd_preprocess)

    p = sub.add_parser("sort", help="coordinate-sort an alignment file "
                                    "(through a store's index)")
    p.add_argument("input", help=".sam, .bam, .bamx, .bamz or .bamc input")
    p.add_argument("--output", required=True,
                   help=".sam or .bam output")
    p.add_argument("--chunk-records", type=int, default=250_000,
                   help="records per part of the sorted output")
    _add_rank_arguments(p, "ranks writing the scratch store and the "
                           "sorted parts")
    p.add_argument("--work-dir", default=None,
                   help="where the scratch store and parts are written")
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser("flagstat", help="flag statistics "
                                        "(samtools flagstat)")
    p.add_argument("input", help=".sam, .bam, .bamx, .bamz or .bamc input")
    _add_rank_arguments(p, "parallel counting ranks (a BAM's ranks "
                           "take runs of whole slabs of its spool)")
    p.set_defaults(fn=_cmd_flagstat)

    p = sub.add_parser("validate", help="structural validation "
                                        "(Picard ValidateSamFile)")
    p.add_argument("input", help=".sam, .bam, .bamx, .bamz or .bamc input")
    p.add_argument("--no-mates", action="store_true",
                   help="skip mate cross-checks")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("region", help="partial conversion of one "
                                      "chromosome region")
    p.add_argument("bamx", help="preprocessed .bamx file")
    p.add_argument("--baix", dest="baix", default=None,
                   help="index path (default <bamx>.baix)")
    p.add_argument("--region", required=True,
                   help="samtools-style region, e.g. chr1:1000-2000")
    p.add_argument("--target", required=True)
    p.add_argument("--out-dir", required=True)
    _add_rank_arguments(p)
    p.add_argument("--mode", default="start",
                   choices=("start", "overlap"),
                   help="select records starting in (paper semantics) "
                        "or overlapping the region")
    p.add_argument("--filter", default=None,
                   help="record filter, e.g. 'q=30,F=0x400,primary'")
    _add_pipeline_arguments(p)
    _add_cost_model_argument(p)
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("histogram", help="binned coverage histogram from "
                                         "an alignment file")
    p.add_argument("input", help=".sam, .bam, .bamx, .bamz or .bamc input")
    p.add_argument("--bin-size", type=int, default=25)
    p.add_argument("--output", required=True, help=".bedgraph output")
    p.add_argument("--npy", default=None,
                   help="also save the dense array as .npy")
    p.set_defaults(fn=_cmd_histogram)

    p = sub.add_parser("nlmeans", help="denoise a histogram with parallel "
                                       "NL-means")
    p.add_argument("input", help=".npy or .bedgraph histogram")
    p.add_argument("--output", required=True, help=".npy output")
    p.add_argument("--search-radius", "-r", type=int, default=20)
    p.add_argument("--half-patch", "-l", type=int, default=15)
    p.add_argument("--sigma", type=float, default=10.0)
    _add_rank_arguments(p)
    p.set_defaults(fn=_cmd_nlmeans)

    p = sub.add_parser("fdr", help="false discovery rate for a peak "
                                   "threshold")
    p.add_argument("histogram", help=".npy or .bedgraph histogram")
    p.add_argument("--simulations", default=None,
                   help=".npy (B, M) simulation array; generated by "
                        "permutation when omitted")
    p.add_argument("--n-simulations", type=int, default=80)
    p.add_argument("--threshold", "-t", type=float, required=True,
                   help="candidate threshold p_t")
    p.add_argument("--seed", type=int, default=0)
    _add_rank_arguments(p)
    p.set_defaults(fn=_cmd_fdr)

    p = sub.add_parser("peaks", help="FDR-controlled peak calling on a "
                                     "histogram")
    p.add_argument("histogram", help=".npy or .bedgraph histogram")
    p.add_argument("--simulations", default=None,
                   help=".npy (B, M) simulation array")
    p.add_argument("--n-simulations", type=int, default=60)
    p.add_argument("--target-fdr", type=float, default=0.05)
    p.add_argument("--no-denoise", action="store_true")
    p.add_argument("--search-radius", "-r", type=int, default=20)
    p.add_argument("--half-patch", "-l", type=int, default=15)
    p.add_argument("--min-width", type=int, default=1)
    p.add_argument("--merge-gap", type=int, default=0)
    _add_rank_arguments(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=20,
                   help="max regions printed")
    p.add_argument("--bed", default=None,
                   help="also write regions as BED to this path")
    p.add_argument("--chrom", default="chr1",
                   help="chromosome name used in the BED output")
    p.add_argument("--bin-size", type=int, default=25,
                   help="bin size for BED coordinates")
    p.set_defaults(fn=_cmd_peaks)

    p = sub.add_parser("serve", help="run the conversion job service "
                                     "daemon")
    p.add_argument("--socket", default=None,
                   help="unix socket path to listen on")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="also (or only) listen on TCP; port 0 binds "
                        "an ephemeral port and reports it")
    p.add_argument("--work-dir", required=True,
                   help="service state root (cache lives below it)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads draining the job queue")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache dir (default <work-dir>/cache)")
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   help="LRU size cap for the artifact cache")
    p.add_argument("--max-pending-jobs", type=int, default=1024,
                   help="admission-control cap on queued jobs; "
                        "submits beyond it get explicit 'overloaded' "
                        "errors (default 1024)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="write-ahead job journal; an existing journal "
                        "is replayed on startup, re-queueing jobs the "
                        "previous daemon lost to a crash")
    p.add_argument("--journal-fsync", default="interval",
                   choices=("always", "interval", "never"),
                   help="journal durability: fsync every append, "
                        "at a bounded interval (default), or never")
    p.add_argument("--cache-verify", default="always",
                   metavar="POLICY",
                   help="artifact digest verification on cache fetch: "
                        "'always' (default), 'never', or a sample "
                        "probability like 0.1")
    _add_shards_argument(p)
    _add_cost_model_argument(p, "<work-dir>/cost_model.json")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("submit", help="submit a conversion job to a "
                                      "running service")
    p.add_argument("input", help=".sam, .bam, .bamx, .bamz or .bamc "
                                 "input")
    _add_service_endpoint_arguments(p)
    p.add_argument("--target", required=True,
                   help="target format (see 'repro formats')")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--region", default=None,
                   help="submit a partial conversion of this region")
    p.add_argument("--mode", default="start",
                   choices=("start", "overlap"),
                   help="region selection semantics")
    _add_rank_arguments(p)
    p.add_argument("--filter", default=None,
                   help="record filter, e.g. 'q=30,F=0x400,primary'")
    _add_store_format_argument(p)
    _add_shards_argument(p)
    p.add_argument("--batch-size", type=_batch_size_value, default=None,
                   help="records per batch, an integer >= 1 (default: "
                        "the service's own default)")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (default 0)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-attempt wall-clock limit in seconds")
    p.add_argument("--max-retries", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("status", help="job status / service metrics of "
                                      "a running service")
    p.add_argument("job", nargs="?", default=None,
                   help="job id (all jobs when omitted)")
    _add_service_endpoint_arguments(p)
    p.add_argument("--metrics", action="store_true",
                   help="print the service metrics snapshot instead")
    p.add_argument("--trace", metavar="JOB", default=None,
                   help="print the span tree recorded for this job")
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser("cancel", help="cancel a queued or running "
                                      "service job")
    p.add_argument("job", help="job id")
    _add_service_endpoint_arguments(p)
    p.set_defaults(fn=_cmd_cancel)

    p = sub.add_parser("tune", help="inspect or reset the persistent "
                                    "cost model behind '--shards auto'")
    p.add_argument("action", choices=("show", "reset"),
                   help="'show' prints every learned key; 'reset' "
                        "forgets them and removes the model file")
    _add_cost_model_argument(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("formats", help="list supported formats")
    p.set_defaults(fn=_cmd_formats)

    # Every command can dump a trace of its run; "status" is excluded
    # because its --trace flag queries a *service job's* trace instead.
    for name, command_parser in sub.choices.items():
        if name != "status":
            command_parser.add_argument(
                "--trace", metavar="FILE", default=None,
                help="write a span trace of this run (.json = Chrome "
                     "trace format, anything else = JSON lines); "
                     "REPRO_TRACE=FILE does the same")
    return parser


@contextlib.contextmanager
def _command_tracing(args: argparse.Namespace):
    """Install a tracer around one CLI command when requested.

    The trace path comes from the subcommand's ``--trace FILE`` flag,
    falling back to the ``REPRO_TRACE`` environment variable; with
    neither set, the disabled default tracer stays installed and the
    instrumented code paths cost one predicate per span site.
    """
    path = getattr(args, "trace", None) or os.environ.get("REPRO_TRACE")
    if not path or args.command == "status":
        yield
        return
    from .runtime.tracing import Tracer, install, write_trace
    tracer = Tracer(enabled=True)
    prev = install(tracer)
    try:
        with tracer.span(f"cli.{args.command}", "cli"):
            yield
    finally:
        install(prev)
        spans = tracer.spans()
        write_trace(spans, path)
        print(f"trace: {len(spans)} spans -> {path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _command_tracing(args):
            return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A missing, unreadable or wrongly-typed path from any verb.
        where = f": {exc.filename!r}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
