"""Tests for the span tracer, its exporters, and the instrumented
converter / runtime / CLI paths."""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.errors import RuntimeLayerError
from repro.runtime.tracing import Span, Tracer, _NULL_SPAN, \
    format_summary, format_tree, get_tracer, install, read_jsonl, \
    spans_from_dicts, to_chrome_events, write_chrome, write_jsonl, \
    write_trace


# ---------------------------------------------------------------------
# core tracer behaviour


def test_nested_spans_get_parent_ids():
    tracer = Tracer()
    with tracer.span("outer", "t"):
        with tracer.span("inner", "t"):
            pass
        with tracer.span("inner2", "t"):
            pass
    spans = {s.name: s for s in tracer.spans()}
    assert spans["outer"].parent_id is None
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["inner2"].parent_id == spans["outer"].span_id
    assert spans["inner"].end is not None
    assert spans["outer"].duration >= spans["inner"].duration


def test_span_yields_live_span_for_args():
    tracer = Tracer()
    with tracer.span("work", "t") as span:
        span.args["records"] = 7
    assert tracer.spans()[0].args == {"records": 7}


def test_span_records_error_on_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("nope")
    span = tracer.spans()[0]
    assert span.args["error"] == "ValueError"
    assert span.end is not None


def test_explicit_parent_id_overrides_stack():
    tracer = Tracer()
    with tracer.span("root") as root:
        pass
    with tracer.span("adopted", parent_id=root.span_id):
        pass
    spans = {s.name: s for s in tracer.spans()}
    assert spans["adopted"].parent_id == spans["root"].span_id


def test_rank_context_tags_spans():
    tracer = Tracer()
    with tracer.rank_context(3):
        with tracer.span("a"):
            pass
    with tracer.span("b"):
        pass
    spans = {s.name: s for s in tracer.spans()}
    assert spans["a"].rank == 3
    assert spans["b"].rank is None


def test_monotonic_timeline():
    tracer = Tracer()
    with tracer.span("one"):
        time.sleep(0.002)
    with tracer.span("two"):
        pass
    one, two = tracer.spans()
    assert one.start <= one.end <= two.start <= two.end


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    handle = tracer.span("x", args={"ignored": 1})
    assert handle is _NULL_SPAN          # shared singleton, no alloc
    with handle:
        pass
    assert tracer.spans() == []


def test_thread_safety_parallel_subtrees():
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def work(i: int) -> None:
        barrier.wait()
        with tracer.rank_context(i), tracer.span("rank-root", rank=i):
            for _ in range(5):
                with tracer.span("leaf"):
                    pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tracer.spans()
    assert len(spans) == 4 * 6
    roots = [s for s in spans if s.name == "rank-root"]
    assert sorted(r.rank for r in roots) == [0, 1, 2, 3]
    # Every leaf is parented to the root of its own thread, and tagged
    # with that thread's rank via rank_context.
    by_id = {s.span_id: s for s in spans}
    for leaf in (s for s in spans if s.name == "leaf"):
        assert by_id[leaf.parent_id].rank == leaf.rank


def test_activate_is_thread_local():
    tracer = Tracer()
    seen = {}

    def other() -> None:
        seen["other"] = get_tracer()

    with tracer.activate():
        seen["here"] = get_tracer()
        t = threading.Thread(target=other)
        t.start()
        t.join()
    assert seen["here"] is tracer
    assert seen["other"] is not tracer


def test_activate_is_task_local():
    """Two tasks on one loop each activate their own tracer and await
    in between: each still sees its own and records its spans there."""
    tracers = {name: Tracer() for name in ("a", "b")}
    seen: dict[str, list[Tracer]] = {"a": [], "b": []}

    async def attempt(name: str) -> None:
        with tracers[name].activate():
            for step in range(3):
                with get_tracer().span(f"{name}.{step}"):
                    await asyncio.sleep(0.001)
                seen[name].append(get_tracer())

    async def both() -> None:
        await asyncio.gather(attempt("a"), attempt("b"))

    asyncio.run(both())
    for name, tracer in tracers.items():
        assert seen[name] == [tracer] * 3
        assert [span.name for span in tracer.spans()] == \
            [f"{name}.{step}" for step in range(3)]
    assert get_tracer() not in tracers.values()


def test_install_returns_previous():
    tracer = Tracer()
    prev = install(tracer)
    try:
        assert get_tracer() is tracer
    finally:
        assert install(prev) is tracer
    assert get_tracer() is prev


def test_ingest_remaps_ids_and_attaches_parent():
    parent = Tracer()
    with parent.span("launch") as launch:
        pass
    child = Tracer(epoch=parent.epoch)
    with child.span("rank-root"):
        with child.span("leaf"):
            pass
    merged = parent.ingest([s.to_dict() for s in child.spans()],
                           rank=2, parent_id=launch.span_id)
    assert merged == 2
    spans = {s.name: s for s in parent.spans()}
    assert spans["rank-root"].parent_id == spans["launch"].span_id
    assert spans["rank-root"].rank == 2
    assert spans["leaf"].parent_id == spans["rank-root"].span_id
    ids = [s.span_id for s in parent.spans()]
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------
# exporters


def _sample_spans() -> list[Span]:
    tracer = Tracer()
    with tracer.span("outer", "cat", args={"n": 1}):
        with tracer.span("inner", rank=1):
            pass
    return tracer.spans()


def test_jsonl_round_trip(tmp_path):
    spans = _sample_spans()
    path = tmp_path / "t.trace"
    assert write_jsonl(spans, path) == 2
    back = read_jsonl(path)
    assert [s.to_dict() for s in back] == [s.to_dict() for s in spans]


def test_read_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text('{"span_id": 1}\nnot json\n')
    with pytest.raises(RuntimeLayerError):
        read_jsonl(path)


def test_chrome_events_shape():
    spans = _sample_spans()
    events = to_chrome_events(spans)
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"outer", "inner"}
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["pid"] == 0
    # Rank 1 gets its own named track.
    assert any(e["args"]["name"] == "rank 1" for e in meta)


def test_jsonl_to_chrome_pipeline(tmp_path):
    """JSON-lines traces convert losslessly into the Chrome format."""
    spans = _sample_spans()
    jsonl = tmp_path / "t.trace"
    write_jsonl(spans, jsonl)
    chrome = tmp_path / "t.json"
    assert write_chrome(read_jsonl(jsonl), chrome) > 0
    doc = json.loads(chrome.read_text())
    assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} \
        == {"outer", "inner"}
    assert doc["displayTimeUnit"] == "ms"


def test_write_trace_dispatches_on_extension(tmp_path):
    spans = _sample_spans()
    write_trace(spans, tmp_path / "a.json")
    write_trace(spans, tmp_path / "a.trace")
    assert "traceEvents" in json.loads((tmp_path / "a.json").read_text())
    assert len(read_jsonl(tmp_path / "a.trace")) == len(spans)


def test_format_tree_and_summary():
    spans = _sample_spans()
    tree = format_tree(spans)
    assert "outer" in tree and "inner" in tree and "rank=1" in tree
    summary = format_summary(spans)
    assert "outer" in summary and "wall" in summary
    assert format_tree([]) == "(no spans recorded)"


def test_format_tree_collapses_sibling_bursts():
    tracer = Tracer()
    with tracer.span("root"):
        for _ in range(10):
            with tracer.span("block"):
                pass
    tree = format_tree(tracer.spans())
    assert "block x10" in tree
    assert tree.count("block") == 1


def test_spans_from_dicts_round_trip():
    spans = _sample_spans()
    rebuilt = spans_from_dicts(s.to_dict() for s in spans)
    assert [s.to_dict() for s in rebuilt] == [s.to_dict() for s in spans]


# ---------------------------------------------------------------------
# instrumented converter / runtime paths


@pytest.fixture()
def installed_tracer():
    tracer = Tracer()
    prev = install(tracer)
    yield tracer
    install(prev)


def _span_names(tracer: Tracer) -> set[str]:
    return {s.name for s in tracer.spans()}


def test_bam_pipeline_spans(installed_tracer, bam_file, tmp_path):
    from repro.core import BamConverter
    converter = BamConverter()
    with installed_tracer.span("cli.convert", "cli"):
        store, _, _ = converter.preprocess(bam_file, str(tmp_path / "w"))
        converter.convert(store, "bed", str(tmp_path / "out"), nprocs=2)
    names = _span_names(installed_tracer)
    assert {"cli.convert", "preprocess", "scan", "inflate", "walk", "write",
            "encode", "index", "convert", "rank", "decompress"} <= names
    spans = installed_tracer.spans()
    root = next(s for s in spans if s.name == "cli.convert")
    phases = [s for s in spans if s.parent_id == root.span_id]
    assert {p.name for p in phases} == {"preprocess", "convert"}
    # Acceptance: the phase spans account for the run's wall-clock.
    assert sum(p.duration for p in phases) <= root.duration * 1.001
    assert sum(p.duration for p in phases) >= root.duration * 0.7


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_rank_spans_nest_under_convert(installed_tracer, bam_file,
                                       tmp_path, executor):
    from repro.core import BamConverter
    converter = BamConverter()
    store, _, _ = converter.preprocess(bam_file, str(tmp_path / "w"))
    converter.convert(store, "bed", str(tmp_path / "out"), nprocs=3,
                      executor=executor)
    spans = installed_tracer.spans()
    convert = next(s for s in spans if s.name == "convert")
    ranks = [s for s in spans if s.name == "rank"]
    assert sorted(r.rank for r in ranks) == [0, 1, 2]
    for rank_span in ranks:
        assert rank_span.parent_id == convert.span_id
    # Per-rank write spans nest under their rank span and carry its rank.
    by_id = {s.span_id: s for s in spans}
    writes = [s for s in spans if s.name == "write" and s.rank is not None]
    assert len(writes) == 3
    for write in writes:
        assert by_id[write.parent_id].rank == write.rank


def test_sam_converter_spans(installed_tracer, sam_file, tmp_path):
    from repro.core import SamConverter
    SamConverter().convert(sam_file, "bed", str(tmp_path / "out"),
                           nprocs=2)
    names = _span_names(installed_tracer)
    assert {"convert", "partition"} <= names
    convert = next(s for s in installed_tracer.spans()
                   if s.name == "convert")
    assert convert.category == "sam"


def test_samp_preprocess_spans(installed_tracer, sam_file, tmp_path):
    from repro.core import PreprocSamConverter
    PreprocSamConverter().preprocess(sam_file, str(tmp_path / "w"),
                                     nprocs=2)
    names = _span_names(installed_tracer)
    assert {"preprocess", "partition", "rank", "parse", "write",
            "index"} <= names


def test_region_conversion_spans(installed_tracer, bam_file, tmp_path):
    from repro.core import BamConverter
    converter = BamConverter()
    store, baix, _ = converter.preprocess(bam_file, str(tmp_path / "w"))
    converter.convert_region(store, baix, "chr1:1-30000", "bed",
                             str(tmp_path / "out"), nprocs=2)
    names = _span_names(installed_tracer)
    assert {"convert.region", "locate"} <= names


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_stats_ranks_are_rank_spans_under_the_caller(installed_tracer,
                                                     sam_file, executor):
    import numpy as np

    from repro.stats import fdr_parallel, histogram_parallel, \
        nlmeans_parallel
    values = np.arange(60, dtype=float) % 9
    sims = np.arange(240, dtype=float).reshape(4, 60) % 11
    with installed_tracer.span("launch") as launch:
        nlmeans_parallel(values, 3, 4, 2, 5.0, executor=executor)
        fdr_parallel(values, sims, 2.0, 3, executor=executor)
        histogram_parallel(sam_file, 25, 3, executor)
    spans = installed_tracer.spans()
    for task in ("nlmeans_rank_work", "fdr_rank_work", "fold_rank"):
        ranks = [s for s in spans
                 if s.name == "rank" and s.args["task"] == task]
        assert sorted(s.rank for s in ranks) == [0, 1, 2], task
        for span in ranks:
            assert span.parent_id == launch.span_id


def test_partition_spans(installed_tracer, sam_file):
    from repro.runtime.partition import partition_text_file
    partition_text_file(sam_file, 4)
    assert "partition.algorithm1" in _span_names(installed_tracer)


def test_bgzf_block_spans_parent_to_the_caller(installed_tracer, tmp_path):
    from repro.formats.bgzf import BgzfReader, BgzfWriter
    data = bytes(range(256)) * 1024       # 4 full blocks
    with installed_tracer.span("emit") as emit:
        with BgzfWriter(tmp_path / "t.bgzf") as writer:
            writer.write(data)
    with installed_tracer.span("load") as load:
        with BgzfReader(tmp_path / "t.bgzf") as reader:
            assert reader.read(-1) == data
    for name, caller in (("compress", emit), ("decompress", load)):
        blocks = [s for s in installed_tracer.spans() if s.name == name]
        assert len(blocks) >= 4, name
        assert all(s.parent_id == caller.span_id for s in blocks), name


# ---------------------------------------------------------------------
# disabled-tracer overhead: byte-identical outputs


def _convert_once(bam_file, out_root, trace: bool):
    from repro.core import BamConverter
    converter = BamConverter()
    tracer = Tracer(enabled=trace)
    prev = install(tracer)
    try:
        store, _, _ = converter.preprocess(bam_file, f"{out_root}/w")
        result = converter.convert(store, "bed", f"{out_root}/out",
                                   nprocs=2)
    finally:
        install(prev)
    return result, tracer


def test_outputs_byte_identical_with_and_without_trace(bam_file,
                                                       tmp_path):
    plain, off_tracer = _convert_once(bam_file, str(tmp_path / "a"),
                                      trace=False)
    traced_run, on_tracer = _convert_once(bam_file, str(tmp_path / "b"),
                                          trace=True)
    assert off_tracer.spans() == []
    assert on_tracer.spans() != []
    assert len(plain.outputs) == len(traced_run.outputs)
    for left, right in zip(plain.outputs, traced_run.outputs):
        with open(left, "rb") as fl, open(right, "rb") as fr:
            assert fl.read() == fr.read()


# ---------------------------------------------------------------------
# CLI integration


def test_cli_trace_flag_writes_chrome_trace(tmp_path):
    from repro.cli import main
    bam = tmp_path / "s.bam"
    assert main(["simulate", str(bam), "--templates", "40"]) == 0
    trace_path = tmp_path / "run.json"
    assert main(["convert", str(bam), "--target", "bed",
                 "--out-dir", str(tmp_path / "out"),
                 "--work-dir", str(tmp_path / "w"),
                 "--nprocs", "2", "--trace", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"cli.convert", "preprocess", "convert", "rank"} <= names


def test_cli_trace_env_var_writes_jsonl(tmp_path, monkeypatch):
    from repro.cli import main
    sam = tmp_path / "s.sam"
    assert main(["simulate", str(sam), "--templates", "30"]) == 0
    trace_path = tmp_path / "run.trace"
    monkeypatch.setenv("REPRO_TRACE", str(trace_path))
    assert main(["convert", str(sam), "--target", "bed",
                 "--out-dir", str(tmp_path / "out")]) == 0
    spans = read_jsonl(trace_path)
    assert {"cli.convert", "convert", "partition"} <= \
        {s.name for s in spans}


def test_cli_without_trace_installs_nothing(tmp_path):
    from repro.cli import main
    sam = tmp_path / "s.sam"
    assert main(["simulate", str(sam), "--templates", "10"]) == 0
    assert not get_tracer().enabled
