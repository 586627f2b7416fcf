"""One planner, every verb on every input: each verb cuts its input
through ``plan_sources`` and runs ``convert_rank`` into a sink, so
every cell of verb x input kind x nprocs x executor either equals the
verb's one-rank record-path answer on the same records or is a
one-line typed refusal."""

import gzip
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core import BamConverter
from repro.core.sort import sort_file, sort_key
from repro.core.targets import get_target
from repro.formats.bam import read_bam, write_bam
from repro.formats.batch import convert_records
from repro.formats.sam import write_sam
from repro.formats.store import open_record_store
from repro.stats.histogram import histogram_from_records, \
    histogram_parallel
from repro.tools.flagstat import flagstat_records
from repro.tools.validate import validate_records

KINDS = ("sam", "bam", "bamx", "bamc", "bamz")
VERBS = ("convert-bed", "convert-bam", "preprocess", "flagstat",
         "histogram", "sort", "validate")
#: The cells a verb refuses: preprocessing writes a store, from SAM or BAM.
REFUSED = {("preprocess", kind): "repro preprocess reads .sam, .bam"
           for kind in ("bamx", "bamc", "bamz")}


@pytest.fixture(scope="module")
def inputs(unsorted_workload, tmp_path_factory):
    """The same records as a SAM, a BAM and the three stores of it."""
    _, header, records = unsorted_workload
    root = tmp_path_factory.mktemp("matrix")
    paths = {"sam": str(root / "in.sam"), "bam": str(root / "in.bam")}
    write_sam(paths["sam"], header, records)
    write_bam(paths["bam"], header, records)
    for kind, fmt, compress in (("bamx", "bamx", False),
                                ("bamc", "bamc", False),
                                ("bamz", "bamx", True)):
        paths[kind] = BamConverter(store_format=fmt).preprocess(
            paths["bam"], root / kind, compress=compress)[0]
    return header, records, paths


def _oracle(verb, header, records, tmp_path):
    """The verb's answer from the records alone, on one rank."""
    if verb.startswith("convert"):
        if verb == "convert-bam":     # what a BAM of the records reads as
            return header.to_text(), records
        lines = []
        convert_records(records, get_target("bed"), None, lines)
        return "".join(line + "\n" for line in lines)
    if verb == "preprocess":
        return records
    if verb == "flagstat":
        return flagstat_records(records).format_report()
    if verb == "histogram":
        histos = histogram_from_records(records, header, 25)
        return (np.concatenate(list(histos.values())).tolist(),
                {chrom: bins.tolist() for chrom, bins in histos.items()})
    if verb == "sort":
        path = tmp_path / "oracle.sam"
        write_sam(path, header.with_sort_order("coordinate"),
                  sorted(records, key=lambda r: sort_key(r, header)))
        return path.read_text()
    return validate_records(records, header).format_report()


def _run(verb, path, nprocs, executor, tmp_path, capsys):
    """The verb on *path*: what it answered, in the oracle's terms."""
    ranks = ["--nprocs", str(nprocs), "--executor", executor]
    out, work = tmp_path / "out", str(tmp_path / "work")
    if verb.startswith("convert"):
        target = verb.split("-")[1]
        assert main(["convert", path, "--target", target, "--out-dir",
                     str(out), "--work-dir", work, *ranks]) == 0
        parts = sorted(out.iterdir())
        if target == "bam":
            got = [read_bam(part) for part in parts]
            assert all(gzip.open(p).read() for p in parts)
            return got[0][0].to_text(), [r for _, rs in got for r in rs]
        return "".join(part.read_text() for part in parts)
    if verb == "preprocess":
        if main(["preprocess", path, "--work-dir", work, *ranks]) != 0:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return err
        stores = sorted(p for p in os.listdir(work)
                        if p.endswith((".bamx", ".bamc", ".bamz")))
        got = []
        for name in stores:
            with open_record_store(os.path.join(work, name)) as store:
                got += list(store)
        return got
    if verb == "flagstat":
        capsys.readouterr()
        assert main(["flagstat", path, *ranks]) == 0
        return capsys.readouterr().out.rstrip("\n")
    if verb == "histogram":     # the verb takes no ranks; its API does
        assert main(["histogram", path, "--output", str(tmp_path / "h.bdg"),
                     "--npy", str(tmp_path / "h.npy")]) == 0
        histos, _ = histogram_parallel(path, 25, nprocs, executor)
        return (np.load(tmp_path / "h.npy").tolist(),
                {chrom: bins.tolist() for chrom, bins in histos.items()})
    if verb == "sort":
        out = tmp_path / "sorted.sam"
        assert main(["sort", path, "--output", str(out), "--work-dir", work,
                     "--chunk-records", "50", *ranks]) == 0
        assert os.listdir(work) == []
        return out.read_text()
    capsys.readouterr()
    main(["validate", path])
    return capsys.readouterr().out.rstrip("\n")


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("verb", VERBS)
def test_every_verb_reads_every_input(inputs, verb, kind, nprocs,
                                      executor, tmp_path, capsys):
    header, records, paths = inputs
    got = _run(verb, paths[kind], nprocs, executor, tmp_path, capsys)
    refusal = REFUSED.get((verb.split("-")[0], kind))
    if refusal is not None:
        assert refusal in got
    else:
        assert got == _oracle(verb, header, records, tmp_path)


def test_sort_of_a_store_writes_no_scratch_store(inputs, tmp_path,
                                                 monkeypatch):
    """A store is sorted by gathering its own BAIX order: the scratch
    directory never holds a store, and the output is the sort of the
    BAM the store was made from."""
    import repro.core.sort as sort_mod
    _, _, paths = inputs
    seen = []
    join = sort_mod.merge_shard_outputs

    def merge(out_path, specs, metrics):
        seen.append(os.listdir(os.path.dirname(specs[-1].out_path)))
        return join(out_path, specs, metrics)
    monkeypatch.setattr(sort_mod, "merge_shard_outputs", merge)
    monkeypatch.setattr(sort_mod, "join_store_parts", None)
    work = tmp_path / "w"
    for kind in ("bamx", "bamc", "bamz"):
        for nprocs in (1, 3):
            sort_file(paths[kind], tmp_path / f"{kind}.bam", nprocs,
                      work_dir=work, chunk_records=40)
    assert len(seen) == 6
    assert all(name.startswith("part") and name.endswith(".bam")
               for names in seen for name in names), seen
    monkeypatch.undo()
    sort_file(paths["bam"], tmp_path / "bam.bam", work_dir=work)
    want = read_bam(tmp_path / "bam.bam")
    for kind in ("bamx", "bamc", "bamz"):
        header, got = read_bam(tmp_path / f"{kind}.bam")
        assert (header.to_text(), got) == (want[0].to_text(), want[1])
