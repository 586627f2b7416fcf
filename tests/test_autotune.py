"""Tests for the self-tuning scheduler (:mod:`repro.runtime.autotune`):
the persistent cost model (and what a damaged or older file does to
it), ``shards_per_rank="auto"`` resolution and provenance spans in the
library, and the CLI and the service refusing ``auto`` shard counts."""

from __future__ import annotations

import json
import os

import pytest

from repro.core import SamConverter
from repro.errors import ConversionError, ServiceError
from repro.runtime import faults
from repro.runtime.autotune import (
    AUTO,
    AutoTuner,
    CostModel,
    make_key,
    size_bucket,
)
from repro.runtime.tracing import Tracer, install


def read_parts(result):
    return {os.path.basename(p): open(p, "rb").read()
            for p in result.outputs}


@pytest.fixture(autouse=True)
def _no_faults():
    faults.disarm()
    yield
    faults.disarm()


# ---------------------------------------------------------------------
# CostModel


def test_observe_then_lookup_rates(tmp_path):
    model = CostModel(tmp_path / "m.json")
    key = make_key("bed", "sam", "batch", 4000)
    model.observe(key, [(100.0, 1.0), (100.0, 1.0)])
    entry = model.lookup(key)
    assert entry is not None
    assert entry["rate"] == pytest.approx(0.01)
    assert entry["rate_max"] == pytest.approx(0.01)
    assert entry["count"] == 1


def test_ewma_folds_new_observations(tmp_path):
    model = CostModel(tmp_path / "m.json", alpha=0.5)
    key = make_key("bed", "sam", "batch", 4000)
    model.observe(key, [(100.0, 1.0)])      # rate 0.01
    model.observe(key, [(100.0, 3.0)])      # rate 0.03
    entry = model.lookup(key)
    assert entry["rate"] == pytest.approx(0.02)  # halfway at alpha=0.5
    assert entry["count"] == 2


def test_skew_statistics_capture_hot_fraction(tmp_path):
    model = CostModel(tmp_path / "m.json")
    key = make_key("bed", "sam", "batch", 4000)
    # Equal unit counts, one shard 9x the cost of the other three.
    model.observe(key, [(100.0, 0.9), (100.0, 0.1), (100.0, 0.1),
                        (100.0, 0.1)])
    entry = model.lookup(key)
    assert entry["rate_max"] == pytest.approx(0.009)
    assert entry["hot_frac"] == pytest.approx(0.25)


def test_persistence_round_trip_is_atomic(tmp_path):
    path = tmp_path / "m.json"
    model = CostModel(path)
    key = make_key("bed", "sam", "batch", 4000)
    model.observe(key, [(100.0, 1.0)])
    model.save()
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"], \
        "temp file left behind by the atomic replace"
    reloaded = CostModel(path)
    assert reloaded.load_error is None
    assert reloaded.lookup(key)["rate"] == pytest.approx(0.01)


def _observe_and_save(job):
    """What one tuned conversion does to its model file."""
    path, key, rounds = job
    for _ in range(rounds):
        model = CostModel(path)
        assert model.load_error is None, model.load_error
        model.observe(key, [(100.0, 1.0)])
        model.save()
    return os.getpid()


def test_concurrent_processes_never_tear_the_model_file(tmp_path):
    """Processes given one model path share it as a file: four
    writers replacing it at once may lose each other's observations
    (last save wins) but no reader — here the writers themselves and
    this process — ever loads a torn or half-written document."""
    from repro.runtime.executor import SharedExecutor
    path = str(tmp_path / "svc" / "cost_model.json")
    keys = [make_key("bed", "sam", "batch", 4 ** (i + 2)) for i in range(4)]
    executor = SharedExecutor(max_workers=4)
    done = []

    def writers():
        done.extend(executor.map_tasks(
            _observe_and_save, [(path, key, 60) for key in keys],
            "process"))

    import threading
    thread = threading.Thread(target=writers)
    thread.start()
    try:
        reads = 0
        while thread.is_alive():
            assert CostModel(path).load_error is None
            reads += 1
    finally:
        thread.join(60)
        executor.shutdown()
    assert not thread.is_alive() and len(done) == 4 and reads > 0
    final = CostModel(path)
    assert final.load_error is None and 1 <= len(final) <= 4
    assert os.listdir(tmp_path / "svc") == ["cost_model.json"]


def test_corrupt_model_file_reads_as_empty(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json", encoding="utf-8")
    model = CostModel(path)
    assert model.load_error is not None
    assert len(model) == 0
    # ... and is still usable: observe + save overwrites the damage.
    model.observe(make_key("bed", "sam", "batch", 10), [(1.0, 1.0)])
    model.save()
    assert CostModel(path).load_error is None


GOOD_ENTRY = {"rate": 2.4e-08, "rate_max": 2.5e-08, "hot_frac": 0.5,
              "count": 2, "updated": 2}


def write_model(path, keys):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"version": 1, "alpha": 0.3,
                                "keys": keys}), encoding="utf-8")
    return path


@pytest.mark.parametrize("bad", [
    {"count": 3},
    {**GOOD_ENTRY, "rate": "fast"},
    {**GOOD_ENTRY, "rate_max": float("nan")},
    {**GOOD_ENTRY, "hot_frac": True},
    7,
], ids=["no-statistics", "text-rate", "nan-rate-max", "bool-hot-frac",
        "not-an-object"])
def test_entries_without_statistics_are_dropped_at_load(tmp_path, bad):
    """Valid JSON, but one entry lacks a finite numeric
    rate/rate_max/hot_frac: it goes (named in ``load_error``), its
    neighbours stay, and every reader of the model keeps working."""
    path = write_model(tmp_path / "m.json", {
        "bed|sam|batch|b12": bad, "bed|sam|batch|b5": GOOD_ENTRY})
    model = CostModel(path)
    assert "bed|sam|batch|b12" in model.load_error
    assert "bed|sam|batch|b5" not in model.load_error
    assert model.snapshot() == {"bed|sam|batch|b5": GOOD_ENTRY}
    tuner = AutoTuner(model, workers=2)
    for bucket in (12, 11, 5):      # exact key, its neighbour, a good key
        tuner.begin_job("bed", "sam", "batch", 4 ** bucket, nprocs=2,
                        shards=AUTO)
    model.observe("bed|sam|batch|b12", [(1.0, 1.0)])
    model.save()
    assert CostModel(path).load_error is None


def test_model_file_of_the_previous_format_loads(tmp_path):
    """A file as the commit before ``--batch-size auto`` went wrote it
    (per-batch-size rates under ``batches``) loads without complaint;
    the block is ignored and gone after the next save."""
    key = "bed|sam|batch|b8"
    path = write_model(tmp_path / "m.json", {key: {
        "batches": {"4096": 2.363739825780166e-08}, "count": 2,
        "hot_frac": 0.5010016330254606, "rate": 2.363739825780166e-08,
        "rate_max": 2.466252342692987e-08, "updated": 2}})
    model = CostModel(path)
    assert model.load_error is None
    assert model.lookup(key) == {
        "count": 2, "hot_frac": 0.5010016330254606,
        "rate": 2.363739825780166e-08,
        "rate_max": 2.466252342692987e-08, "updated": 2}
    model.observe(key, [(100.0, 1.0)])
    model.save()
    assert "batches" not in path.read_text(encoding="utf-8")


def test_bounded_history_evicts_least_recently_updated(tmp_path):
    model = CostModel(tmp_path / "m.json", max_keys=3)
    for i in range(6):
        model.observe(f"t{i}|sam|batch|b0", [(1.0, 1.0)])
    model.save()
    reloaded = CostModel(tmp_path / "m.json", max_keys=3)
    assert len(reloaded) == 3
    for i in (3, 4, 5):                      # newest keys survive
        assert reloaded.lookup(f"t{i}|sam|batch|b0") is not None


def test_size_buckets_group_similar_inputs():
    assert size_bucket(1) == 0
    assert size_bucket(3) == 0
    assert size_bucket(4) == 1
    assert size_bucket(4 ** 5) == 5
    assert make_key("bed", "sam", "batch", 4 ** 5) == \
        "bed|sam|batch|b5"


def test_nearest_borrows_adjacent_bucket_only(tmp_path):
    model = CostModel(tmp_path / "m.json")
    model.observe(make_key("bed", "sam", "batch", 4 ** 5),
                  [(1.0, 1.0)])
    assert model.nearest(make_key("bed", "sam", "batch",
                                  4 ** 6)) is not None
    assert model.nearest(make_key("bed", "sam", "batch",
                                  4 ** 8)) is None
    assert model.nearest(make_key("fasta", "sam", "batch",
                                  4 ** 5)) is None


# ---------------------------------------------------------------------
# AutoTuner decisions


def test_cold_model_falls_back_to_defaults(tmp_path):
    tuner = AutoTuner(CostModel(tmp_path / "m.json"), workers=4)
    tuning = tuner.begin_job("bed", "sam", "batch", 4000, nprocs=4,
                             shards=AUTO, batch_size=4096)
    assert tuning.decision.hit is False
    assert tuning.shards_per_rank == 1
    assert tuning.provenance()["batch_size"] == 4096


def test_warm_skewed_model_chooses_extra_shards(tmp_path):
    model = CostModel(tmp_path / "m.json")
    key = make_key("bed", "sam", "batch", 4000)
    # One rank 10x the others: LPT over finer shards must win.
    model.observe(key, [(1000.0, 10.0), (1000.0, 1.0),
                        (1000.0, 1.0), (1000.0, 1.0)])
    tuner = AutoTuner(model, workers=4)
    tuning = tuner.begin_job("bed", "sam", "batch", 4000, nprocs=4,
                             shards=AUTO)
    assert tuning.decision.hit is True
    assert tuning.shards_per_rank > 1
    assert tuning.decision.predicted_makespan < \
        tuning.decision.predicted_static


def test_finish_persists_observations(tmp_path):
    path = tmp_path / "m.json"
    tuner = AutoTuner(CostModel(path), workers=2)
    tuning = tuner.begin_job("bed", "sam", "batch", 4000, nprocs=2)
    tuning.observe([(2000.0, 1.0), (2000.0, 1.0)])
    tuning.finish()
    assert CostModel(path).lookup(tuning.decision.key) is not None


def test_finish_survives_unwritable_model_dir(tmp_path):
    target = tmp_path / "ro" / "sub" / "m.json"
    tuner = AutoTuner(CostModel(target), workers=2)
    tuning = tuner.begin_job("bed", "sam", "batch", 100, nprocs=1)
    tuning.observe([(100.0, 1.0)])
    (tmp_path / "ro").mkdir()
    (tmp_path / "ro").chmod(0o555)
    try:
        tuning.finish()                      # must not raise
    finally:
        (tmp_path / "ro").chmod(0o755)


# ---------------------------------------------------------------------
# converter knob validation (satellite: friendly errors)


def test_converter_rejects_bad_shards_naming_value():
    with pytest.raises(ConversionError,
                       match=r"shards_per_rank value 'bogus'"):
        SamConverter(shards_per_rank="bogus")
    with pytest.raises(ConversionError, match=r"value 0.*>= 1"):
        SamConverter(shards_per_rank=0)
    with pytest.raises(ConversionError,
                       match=r"batch_size value -3"):
        SamConverter(batch_size="-3")


@pytest.mark.parametrize("converter", ["SamConverter", "BamConverter",
                                       "PreprocSamConverter"])
def test_converters_refuse_batch_size_auto(converter):
    import repro.core
    with pytest.raises(ConversionError,
                       match=r"batch_size value 'auto'.*positive integer$"):
        getattr(repro.core, converter)(batch_size="auto")


def test_converter_accepts_auto_and_numeric_strings():
    converter = SamConverter(shards_per_rank="AUTO", batch_size="512")
    assert converter.shards_per_rank == AUTO
    assert converter.batch_size == 512
    assert converter.tuner is not None      # private in-memory tuner


# ---------------------------------------------------------------------
# end-to-end: shards_per_rank="auto"


def _convert(sam_file, out_dir, tuner=None, shards=1,
             executor="simulate"):
    return SamConverter(shards_per_rank=shards, tuner=tuner).convert(
        sam_file, "bed", out_dir, nprocs=2, executor=executor)


def test_auto_shards_warm_run_is_byte_identical(sam_file, tmp_path):
    """Run 1 (cold) trains the model; run 2 (fresh tuner, same file)
    resolves ``auto`` from it.  Both must match the static bytes."""
    static = _convert(sam_file, tmp_path / "static")
    path = tmp_path / "m.json"
    cold = _convert(sam_file, tmp_path / "cold",
                    tuner=AutoTuner(CostModel(path), workers=2),
                    shards="auto")
    warm = _convert(sam_file, tmp_path / "warm",
                    tuner=AutoTuner(CostModel(path), workers=2),
                    shards="auto", executor="thread")
    assert read_parts(cold) == read_parts(static)
    assert read_parts(warm) == read_parts(static)
    assert CostModel(path).lookup(
        make_key("bed", "sam", "batch",
                 os.path.getsize(sam_file))) is not None


def test_auto_shards_over_a_previous_format_model(sam_file, tmp_path):
    """``--shards auto`` warmed by a model file of the previous format
    (skewed, so it really shards) still writes the static bytes, and
    so does the run after it, which reads what this code saved."""
    static = _convert(sam_file, tmp_path / "static")
    key = make_key("bed", "sam", "batch", os.path.getsize(sam_file))
    path = write_model(tmp_path / "m.json", {key: {
        "batches": {"4096": 1e-06}, "count": 3, "hot_frac": 0.25,
        "rate": 1e-06, "rate_max": 3e-06, "updated": 3}})
    for run, executor in (("first", "simulate"), ("second", "thread")):
        tuner = AutoTuner(CostModel(path), workers=2)
        assert tuner.model.load_error is None
        auto = _convert(sam_file, tmp_path / run, tuner=tuner,
                        shards="auto", executor=executor)
        assert read_parts(auto) == read_parts(static), run
    assert CostModel(path).lookup(key)["count"] == 5


# ---------------------------------------------------------------------
# provenance span


def test_autotune_span_explains_the_decision(sam_file, tmp_path):
    path = tmp_path / "m.json"
    blocks = []
    for run in ("cold", "warm"):
        tracer = Tracer(enabled=True)
        prev = install(tracer)
        try:
            _convert(sam_file, tmp_path / run,
                     tuner=AutoTuner(CostModel(path), workers=2),
                     shards="auto")
        finally:
            install(prev)
        spans = [s for s in tracer.spans() if s.name == "autotune"]
        assert len(spans) == 1
        blocks.append(spans[0].args["cost_model"])
    cold, warm = blocks
    assert cold["hit"] is False and warm["hit"] is True
    assert cold["key"] == warm["key"]
    assert cold["key"].startswith("bed|sam|batch|b")
    assert cold["auto_shards"] is True
    assert "resplits" not in cold and "auto_batch" not in cold
    assert warm["path"] == str(path)


def test_format_tree_renders_cost_model_inline(sam_file, tmp_path):
    from repro.runtime.tracing import format_tree
    tracer = Tracer(enabled=True)
    prev = install(tracer)
    try:
        _convert(sam_file, tmp_path / "out",
                 tuner=AutoTuner(CostModel(tmp_path / "m.json"),
                                 workers=2), shards="auto")
    finally:
        install(prev)
    tree = format_tree(tracer.spans())
    assert "autotune" in tree
    assert "key=bed|sam|batch" in tree
    assert "shards_per_rank=" in tree


# ---------------------------------------------------------------------
# service integration


def test_service_rejects_bad_knobs_at_submit(sam_file, tmp_path):
    from repro.service.server import ConversionService
    service = ConversionService(tmp_path / "svc", workers=1)
    try:
        for bad in ("turbo", "auto"):
            with pytest.raises(ServiceError, match=rf"shards value {bad!r}: "
                               r"expected a positive integer$"):
                service.submit("convert", {
                    "input": str(sam_file), "target": "bed",
                    "out_dir": str(tmp_path / "out"), "shards": bad})
        for bad in (0, "auto"):
            with pytest.raises(ServiceError,
                               match=rf"batch_size value {bad!r}"):
                service.submit("convert", {
                    "input": str(sam_file), "target": "bed",
                    "out_dir": str(tmp_path / "out"), "batch_size": bad})
    finally:
        service.close()


def test_service_ctor_rejects_bad_default_shards(tmp_path):
    from repro.service.server import ConversionService
    for bad in ("warp", "auto"):
        with pytest.raises(ServiceError,
                           match=rf"shards_per_rank value {bad!r}: "
                                 r"expected a positive integer$"):
            ConversionService(tmp_path / "svc", workers=1,
                              shards_per_rank=bad)


# ---------------------------------------------------------------------
# CLI surface


def test_cli_rejects_bad_shards_naming_value(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["convert", "x.sam", "--target", "bed", "--out-dir", "o",
              "--shards", "many"])
    assert "invalid shards value 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["convert", "region", "submit"])
def test_cli_refuses_batch_size_auto_at_parse_time(verb, capsys):
    from repro.cli import main
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "x.sam", "--batch-size", "auto"])
    assert exit_info.value.code == 2
    assert "argument --batch-size: invalid batch_size value 'auto': " \
        "expected a positive integer\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["preprocess", "x.sam"], ["serve"]],
                         ids=lambda argv: argv[0])
def test_cli_refuses_shards_auto_at_parse_time(argv, capsys):
    """A shard count on the command line is an integer: the cost model
    behind ``auto`` is the library's alone.  (``convert``, ``region``
    and ``submit`` are rows of ``test_cli.CROSS_SURFACE``.)"""
    from repro.cli import main
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--shards", "auto"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"{argv[0]}: error: argument --shards: invalid "
                        f"shards value 'auto': expected a positive "
                        f"integer\n")
    assert "Traceback" not in err
