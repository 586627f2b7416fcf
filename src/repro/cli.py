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
from functools import partial
from typing import TYPE_CHECKING

from .errors import ReproError

if TYPE_CHECKING:       # handlers import numpy when they run
    import numpy as np


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
            "shards_per_rank": args.shards}


def _cmd_convert(args: argparse.Namespace) -> int:
    from . import core      # the converter for the input's kind only
    from .defaults import KNOBS
    from .formats.registry import source_kind
    kind = source_kind(args.input, "repro convert")
    if kind != "bam":
        # These steer preprocessing, which only a BAM input has.
        for name in ("bamx", "baix", "store_format"):
            if getattr(args, name) != KNOBS[name].default:
                raise ReproError(
                    f"--{name.replace('_', '-')} applies to BAM input "
                    f"only; got {args.input!r}")
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
    elif args.compress:
        raise ReproError(f"--compress writes BAMZ from BAM input only; "
                         f"got {args.input!r}")
    else:
        paths, metrics = PreprocSamConverter(
            shards_per_rank=args.shards,
            store_format=args.store_format).preprocess(
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
    service = ConversionService(args.work_dir, workers=args.workers,
                                cache_dir=args.cache_dir,
                                cache_max_bytes=args.cache_max_bytes,
                                shards_per_rank=args.shards,
                                journal_path=args.journal,
                                journal_fsync=args.journal_fsync,
                                cache_verify=args.cache_verify)
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
    from .defaults import KNOBS, verb_knobs
    kind = "region" if args.region else "convert"
    # The job parameters this verb was given; a default is the
    # service's own.
    params = {knob.name: getattr(args, knob.name)
              for knob in verb_knobs("submit") if knob.jobs
              and getattr(args, knob.name) != knob.default}
    for name in params:
        jobs = KNOBS[name].jobs.split()
        if kind not in jobs:    # a region job takes every one
            print(f"error: --{name.replace('_', '-')} applies to "
                  f"{' and '.join(jobs)} jobs only; without --region this "
                  f"submit is a {kind} job", file=sys.stderr)
            return 2
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


def _cmd_formats(_args: argparse.Namespace) -> int:
    from .formats.registry import list_formats
    for info in list_formats():
        kind = "binary" if info.binary else "text"
        exts = ", ".join(info.extensions)
        print(f"{info.name:<10} {kind:<7} {exts:<20} {info.description}")
    return 0


#: Every verb, in ``repro --help`` order: its one-line help and handler.
#: Its flags are its rows of the knob table (``defaults.verb_knobs``).
_VERBS = {
    "simulate": ("generate a synthetic SAM/BAM dataset", _cmd_simulate),
    "convert": ("convert SAM/BAM/BAMX to another format in parallel",
                _cmd_convert),
    "preprocess": ("BAMX/BAIX preprocessing only", _cmd_preprocess),
    "sort": ("coordinate-sort an alignment file (through a store's "
             "index)", _cmd_sort),
    "flagstat": ("flag statistics (samtools flagstat)", _cmd_flagstat),
    "validate": ("structural validation (Picard ValidateSamFile)",
                 _cmd_validate),
    "region": ("partial conversion of one chromosome region", _cmd_region),
    "histogram": ("binned coverage histogram from an alignment file",
                  _cmd_histogram),
    "nlmeans": ("denoise a histogram with parallel NL-means", _cmd_nlmeans),
    "fdr": ("false discovery rate for a peak threshold", _cmd_fdr),
    "peaks": ("FDR-controlled peak calling on a histogram", _cmd_peaks),
    "serve": ("run the conversion job service daemon", _cmd_serve),
    "submit": ("submit a conversion job to a running service",
               _cmd_submit),
    "status": ("job status / service metrics of a running service",
               _cmd_status),
    "cancel": ("cancel a queued or running service job", _cmd_cancel),
    "formats": ("list supported formats", _cmd_formats),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser: each verb's flags from
    the knob table, each value checked by its row's rule (a lazy rule,
    which loads a converter module, where the value is used)."""
    from .defaults import verb_knobs
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel NGS format conversion and statistics "
                    "(IPDPSW 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (text, fn) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        p.set_defaults(fn=fn)
        groups: dict = {}
        for knob in verb_knobs(verb):
            if knob.group and knob.group not in groups:
                groups[knob.group] = p.add_mutually_exclusive_group(
                    required=True)
            options = {"help": knob.help, "default": knob.default,
                       "choices": knob.choices, "metavar": knob.metavar,
                       "action": knob.action, "nargs": knob.nargs,
                       "required": knob.required and not knob.positional}
            if knob.rule and not (knob.lazy or knob.action):
                options["type"] = partial(
                    knob.check, error=argparse.ArgumentTypeError)
            flags = [knob.name] if knob.positional else \
                [f"--{knob.name.replace('_', '-')}", knob.short]
            # None and False are argparse's own defaults: leave them
            # out (a store_true action takes no default=None).
            groups.get(knob.group, p).add_argument(
                *filter(None, flags),
                **{key: value for key, value in options.items()
                   if value is not None and value is not False})
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
