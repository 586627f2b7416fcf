"""Tests for the repro command-line interface."""

import numpy as np
import pytest

from repro.cli import main


def run(args):
    return main(args)


@pytest.fixture()
def sim_sam(tmp_path):
    path = tmp_path / "s.sam"
    assert run(["simulate", str(path), "--templates", "60",
                "--chromosomes", "chrA:20000", "--seed", "3"]) == 0
    return path


def test_simulate_writes_sam(sim_sam):
    from repro.formats.sam import read_sam
    header, records = read_sam(sim_sam)
    assert len(records) == 120
    assert header.has_reference("chrA")


def test_simulate_bam(tmp_path):
    path = tmp_path / "s.bam"
    assert run(["simulate", str(path), "--templates", "20"]) == 0
    from repro.formats.bam import read_bam
    _, records = read_bam(path)
    assert len(records) == 40


def test_simulate_bad_chromosome_spec(tmp_path):
    assert run(["simulate", str(tmp_path / "x.sam"),
                "--chromosomes", "nolength"]) == 1


def test_simulate_zero_length_chromosome_rejected(tmp_path, capsys):
    # "chr1:0" passes isdigit() but must not produce a degenerate
    # zero-length genome downstream.
    assert run(["simulate", str(tmp_path / "x.sam"),
                "--chromosomes", "chr1:0"]) == 1
    assert "bad chromosome spec 'chr1:0'" in capsys.readouterr().err


def test_parse_chroms_zero_length_raises():
    from repro.cli import _parse_chroms
    from repro.errors import ReproError
    assert _parse_chroms("chr1:10,chr2:5") == [("chr1", 10),
                                               ("chr2", 5)]
    with pytest.raises(ReproError, match="chr2:0"):
        _parse_chroms("chr1:10,chr2:0")


def test_convert_sam(sim_sam, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["convert", str(sim_sam), "--target", "bed",
                "--out-dir", str(out), "--nprocs", "3"]) == 0
    captured = capsys.readouterr().out
    assert "3 part files" in captured
    assert len(list(out.glob("*.bed"))) == 3


def test_convert_bam_preprocesses_first(tmp_path, capsys):
    bam = tmp_path / "s.bam"
    run(["simulate", str(bam), "--templates", "30"])
    out = tmp_path / "out"
    assert run(["convert", str(bam), "--target", "sam",
                "--out-dir", str(out), "--nprocs", "2"]) == 0
    assert "preprocessed" in capsys.readouterr().out


def test_convert_unknown_source(tmp_path):
    path = tmp_path / "x.vcf"
    path.write_text("")
    assert run(["convert", str(path), "--target", "bed",
                "--out-dir", str(tmp_path / "o")]) == 1


def test_preprocess_and_region(sim_sam, tmp_path, capsys):
    work = tmp_path / "work"
    assert run(["preprocess", str(sim_sam), "--work-dir", str(work),
                "--nprocs", "2"]) == 0
    bamx_files = sorted(work.glob("*.bamx"))
    assert len(bamx_files) == 2
    out = tmp_path / "region"
    assert run(["region", str(bamx_files[0]), "--region", "chrA:1-10000",
                "--target", "bed", "--out-dir", str(out),
                "--nprocs", "2"]) == 0
    assert "partial conversion" in capsys.readouterr().out


def test_histogram_nlmeans_fdr_chain(sim_sam, tmp_path, capsys):
    bedgraph = tmp_path / "h.bedgraph"
    npy = tmp_path / "h.npy"
    assert run(["histogram", str(sim_sam), "--output", str(bedgraph),
                "--npy", str(npy)]) == 0
    denoised = tmp_path / "d.npy"
    assert run(["nlmeans", str(npy), "--output", str(denoised),
                "-r", "5", "-l", "2", "--nprocs", "2"]) == 0
    assert np.load(denoised).shape == np.load(npy).shape
    assert run(["fdr", str(npy), "-t", "2.5", "--n-simulations", "10",
                "--nprocs", "2"]) == 0
    assert "FDR(p_t=2.5)" in capsys.readouterr().out


def test_nlmeans_accepts_bedgraph_input(sim_sam, tmp_path):
    bedgraph = tmp_path / "h.bedgraph"
    run(["histogram", str(sim_sam), "--output", str(bedgraph)])
    out = tmp_path / "d.npy"
    assert run(["nlmeans", str(bedgraph), "--output", str(out),
                "-r", "4", "-l", "2"]) == 0


def test_formats_listing(capsys):
    assert run(["formats"]) == 0
    out = capsys.readouterr().out
    assert "bamx" in out and "bamz" in out and "bedgraph" in out


def test_sort_subcommand(tmp_path, capsys):
    src = tmp_path / "u.sam"
    run(["simulate", str(src), "--templates", "40", "--unsorted"])
    out = tmp_path / "s.sam"
    assert run(["sort", str(src), "--output", str(out),
                "--chunk-records", "25"]) == 0
    assert "sorted 80 records" in capsys.readouterr().out
    from repro.formats.sam import read_sam
    header, records = read_sam(out)
    assert header.sort_order == "coordinate"
    keys = [(header.ref_id(r.rname), r.pos) for r in records
            if r.is_mapped]
    assert keys == sorted(keys)


def test_sort_parallel_subcommand(tmp_path, capsys):
    src = tmp_path / "u.sam"
    run(["simulate", str(src), "--templates", "30", "--unsorted"])
    out = tmp_path / "s.sam"
    assert run(["sort", str(src), "--output", str(out),
                "--nprocs", "3", "--work-dir",
                str(tmp_path / "w")]) == 0
    assert "3 run-generation ranks" in capsys.readouterr().out


def test_flagstat_subcommand(sim_sam, capsys):
    assert run(["flagstat", str(sim_sam), "--nprocs", "2"]) == 0
    out = capsys.readouterr().out
    assert "in total" in out and "properly paired" in out


def test_validate_subcommand_clean(sim_sam, capsys):
    assert run(["validate", str(sim_sam)]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_validate_subcommand_dirty(tmp_path, capsys):
    path = tmp_path / "bad.sam"
    path.write_text("@SQ\tSN:chr1\tLN:100\n"
                    "r\t0\tchrX\t10\t60\t4M\t*\t0\t0\tACGT\tIIII\n")
    assert run(["validate", str(path)]) == 1
    assert "UNKNOWN_REFERENCE" in capsys.readouterr().out


def test_convert_with_filter(sim_sam, tmp_path, capsys):
    out = tmp_path / "filtered"
    assert run(["convert", str(sim_sam), "--target", "bed",
                "--out-dir", str(out), "--filter", "q=60"]) == 0
    # Only MAPQ-60 records survive; all emitted BED scores must be 60.
    for bed in out.glob("*.bed"):
        for line in open(bed):
            assert line.split("\t")[4] == "60"


def test_region_overlap_mode(sim_sam, tmp_path, capsys):
    work = tmp_path / "w"
    run(["preprocess", str(sim_sam), "--work-dir", str(work)])
    (bamx,) = sorted(work.glob("*.bamx"))
    out = tmp_path / "o"
    assert run(["region", str(bamx), "--region", "chrA:1-5000",
                "--target", "bed", "--out-dir", str(out),
                "--mode", "overlap"]) == 0
    assert "partial conversion" in capsys.readouterr().out


def test_peaks_subcommand(sim_sam, tmp_path, capsys):
    npy = tmp_path / "h.npy"
    run(["histogram", str(sim_sam), "--output",
         str(tmp_path / "h.bedgraph"), "--npy", str(npy)])
    capsys.readouterr()
    bed = tmp_path / "peaks.bed"
    assert run(["peaks", str(npy), "--n-simulations", "15",
                "--target-fdr", "0.25", "--nprocs", "2",
                "--bed", str(bed), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "enriched regions" in out
    assert "selected p_t=" in out
    from repro.formats.bed import read_bed
    read_bed(bed)  # parses cleanly


#: Required arguments after the input path ({tmp} = the test's tmp_path).
VERB_ARGS = {
    "convert": ["--target", "bed", "--out-dir", "{tmp}/o"],
    "preprocess": ["--work-dir", "{tmp}/w"],
    "sort": ["--output", "{tmp}/y.sam"],
    "flagstat": [],
    "validate": [],
    "region": ["--region", "chr1:1-9", "--target", "bed", "--out-dir",
               "{tmp}/o"],
    "histogram": ["--output", "{tmp}/h.bedgraph"],
    "nlmeans": ["--output", "{tmp}/y.npy"],
    "fdr": ["-t", "2"],
    "peaks": [],
    "submit": ["--socket", "{tmp}/s", "--target", "bed", "--out-dir",
               "{tmp}/o"],
}
RANK_VERBS = sorted(set(VERB_ARGS) - {"validate", "histogram"})


def _verb(verb, path, tmp_path):
    return [verb, str(path),
            *(a.format(tmp=tmp_path) for a in VERB_ARGS[verb])]


def test_every_nprocs_verb_is_a_rank_verb():
    """RANK_VERBS is the whole set: every verb with --nprocs also takes
    --executor with the runtime's choices, from the shared helper."""
    from repro.cli import build_parser
    from repro.core import EXECUTORS
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    with_nprocs = []
    for verb, parser in sub.choices.items():
        options = {a.dest: a for a in parser._actions}
        if "nprocs" in options:
            with_nprocs.append(verb)
            assert tuple(options["executor"].choices) == EXECUTORS
    assert sorted(with_nprocs) == RANK_VERBS


@pytest.mark.parametrize("verb", RANK_VERBS)
@pytest.mark.parametrize("bad", ["0", "-2", "two"])
def test_bad_nprocs_refused_at_parse_time(verb, bad, tmp_path, capsys):
    """`flagstat --nprocs 0` and `sort --nprocs 0` used to exit 0 after
    silently running sequentially; no verb touches its input now."""
    with pytest.raises(SystemExit) as exit_info:
        run([*_verb(verb, "x.sam", tmp_path), "--nprocs", bad])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --nprocs" in err and bad in err


@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_executor_reaches_sort_flagstat_and_stats_verbs(
        sim_sam, tmp_path, capsys, executor):
    """The five verbs that used to ignore the pool give the same
    answers on every executor."""
    def out_of(args):
        capsys.readouterr()
        assert run(args) == 0
        return capsys.readouterr().out

    ranks = ["--nprocs", "2", "--executor", executor]
    assert out_of(["flagstat", str(sim_sam), *ranks]) == \
        out_of(["flagstat", str(sim_sam)])
    run(["sort", str(sim_sam), "--output", str(tmp_path / "seq.sam")])
    assert run(["sort", str(sim_sam), "--output", str(tmp_path / "par.sam"),
                "--work-dir", str(tmp_path / "w"), *ranks]) == 0
    assert (tmp_path / "par.sam").read_bytes() == \
        (tmp_path / "seq.sam").read_bytes()
    npy = tmp_path / "h.npy"
    run(["histogram", str(sim_sam), "--output", str(tmp_path / "h.bg"),
         "--npy", str(npy)])
    for name, extra in (("seq", []), ("par", ranks)):
        assert run(["nlmeans", str(npy), "--output",
                    str(tmp_path / f"{name}.npy"), "-r", "5", "-l", "2",
                    *extra]) == 0
    assert np.array_equal(np.load(tmp_path / "par.npy"),
                          np.load(tmp_path / "seq.npy"))
    fdr = ["fdr", str(npy), "-t", "2.5", "--n-simulations", "10"]
    assert out_of(fdr + ranks) == out_of(fdr)
    peaks = ["peaks", str(npy), "--n-simulations", "15",
             "--target-fdr", "0.25"]
    assert out_of(peaks + ranks) == out_of(peaks)


def _one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


@pytest.mark.parametrize("verb, ext", [
    ("convert", "sam"), ("convert", "bam"), ("convert", "bamx"),
    ("preprocess", "sam"), ("preprocess", "bam"), ("sort", "sam"),
    ("sort", "bam"), ("flagstat", "sam"), ("flagstat", "bam"),
    ("flagstat", "bamx"), ("validate", "sam"), ("region", "bamx"),
    ("histogram", "sam"), ("histogram", "bamx"), ("nlmeans", "npy"),
    ("nlmeans", "bedgraph"), ("fdr", "npy"), ("peaks", "npy")])
def test_missing_input_is_a_one_line_error(verb, ext, tmp_path, capsys):
    """Every verb used to end in a raw FileNotFoundError traceback; the
    extension picks the reader that meets the missing file.  Nothing is
    left behind: `convert`/`region` used to create --out-dir (and
    `preprocess` --work-dir) before looking at the input."""
    missing = tmp_path / f"absent.{ext}"
    assert run(_verb(verb, missing, tmp_path)) == 1
    _one_line_error(capsys, "No such file or directory", str(missing))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb, ext, reads", [
    ("convert", "vcf", ".sam, .bam, .bamx, .bamz, .bamc"),
    ("preprocess", "bamx", ".sam, .bam"),
    ("histogram", "vcf", ".sam, .bam, .bamx, .bamz, .bamc"),
    ("sort", "vcf", ".sam, .bam, .bamx, .bamz, .bamc"),
    ("flagstat", "bed", ".sam, .bam, .bamx, .bamz, .bamc"),
    ("validate", "fastq", ".sam, .bam, .bamx, .bamz, .bamc")])
def test_wrong_kind_of_input_is_a_one_line_error(verb, ext, reads,
                                                 tmp_path, capsys):
    """Each verb used to spell its own extension ladder and hand what it
    did not know to the SAM reader (`histogram x.bam`: "non-ASCII byte
    0x8b after line 0"); the kind is resolved once, by the registry, and
    a verb says what it reads before it opens or creates anything."""
    wrong = tmp_path / f"x.{ext}"
    wrong.write_bytes(b"\x1f\x8b\x08\x04")
    assert run(_verb(verb, wrong, tmp_path)) == 1
    _one_line_error(capsys, f"repro {verb} reads {reads}; got '{wrong}'")
    assert list(tmp_path.iterdir()) == [wrong]


@pytest.mark.parametrize("args", [
    ["convert"], ["convert", "--target", "sam", "--pipeline", "record"],
    ["convert", "--target", "bam", "--nprocs", "2"],
    ["flagstat"], ["flagstat", "--nprocs", "2"], ["sort", "--nprocs", "2"],
    ["sort"], ["histogram"]])
def test_non_ascii_input_is_a_one_line_error(args, sim_sam, tmp_path,
                                             capsys):
    """A stray UTF-8 read name used to end in a raw UnicodeDecodeError
    traceback from whichever reader met it."""
    with open(sim_sam, "ab") as fh:
        fh.write(b"r\xc3\xa9ad\t0\tchrA\t5\t60\t4M\t*\t0\t0\tACGT\tIIII\n")
    capsys.readouterr()
    verb, *extra = args
    assert run([*_verb(verb, sim_sam, tmp_path), *extra]) == 1
    _one_line_error(capsys, str(sim_sam), "non-ASCII byte 0xc3")


@pytest.mark.parametrize("args", [
    ["convert"], ["sort", "--nprocs", "2"], ["flagstat", "--nprocs", "2"],
    ["histogram"]])
def test_malformed_line_is_a_located_one_line_error(args, sim_sam, tmp_path,
                                                    capsys):
    """`sort --nprocs 2`, `flagstat --nprocs 2` and `histogram` used to
    say only "malformed CIGAR string 'ZZ'"; every verb reads SAM through
    the same source now, which names the file and the line's offset."""
    offset = sim_sam.stat().st_size
    with open(sim_sam, "ab") as fh:
        fh.write(b"bad\t0\tchrA\t5\t60\tZZ\t*\t0\t0\tACGT\tIIII\n")
    capsys.readouterr()
    verb, *extra = args
    assert run([*_verb(verb, sim_sam, tmp_path), *extra]) == 1
    _one_line_error(capsys, f"error: {sim_sam}: line at byte offset "
                            f"{offset}: malformed CIGAR string 'ZZ'\n")


@pytest.mark.parametrize("ext", ["sam", "bamx"])
def test_histogram_without_sq_is_a_one_line_error(ext, tmp_path, capsys):
    """A SAM without @SQ used to write an empty bedgraph and then die in
    np.concatenate; a store without one, the same.  One rule now."""
    sam = tmp_path / "nosq.sam"
    sam.write_text("@HD\tVN:1.6\n"
                   "r1\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII\n")
    path = sam
    if ext == "bamx":
        assert run(["preprocess", str(sam), "--work-dir",
                    str(tmp_path / "w")]) == 0
        (path,) = (tmp_path / "w").glob("*.bamx")
    capsys.readouterr()
    bedgraph, npy = tmp_path / "h.bedgraph", tmp_path / "h.npy"
    assert run(["histogram", str(path), "--output", str(bedgraph),
                "--npy", str(npy)]) == 1
    _one_line_error(capsys, "needs an @SQ reference dictionary")
    assert not bedgraph.exists() and not npy.exists()


def test_unparsable_region_is_a_one_line_error(sim_sam, tmp_path, capsys):
    """`--region 'chrA:,'` used to end in int('')'s ValueError traceback."""
    work = tmp_path / "work"
    assert run(["preprocess", str(sim_sam), "--work-dir", str(work)]) == 0
    capsys.readouterr()
    assert run(["region", str(next(work.glob("*.bamx"))), "--region",
                "chrA:,", "--target", "bed",
                "--out-dir", str(tmp_path / "o")]) == 1
    _one_line_error(capsys, "cannot parse region 'chrA:,'")
    assert not (tmp_path / "o").exists()


def test_unknown_target_leaves_no_out_dir(sim_sam, tmp_path, capsys):
    capsys.readouterr()
    assert run(["convert", str(sim_sam), "--target", "nope", "--out-dir",
                str(tmp_path / "o")]) == 1
    _one_line_error(capsys, "nope")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["convert", "flagstat", "histogram",
                                  "nlmeans", "fdr"])
def test_directory_as_input_is_a_one_line_error(verb, tmp_path, capsys):
    """An OSError even when the suite runs as root."""
    folder = tmp_path / "folder.sam"
    folder.mkdir()
    assert run(_verb(verb, folder, tmp_path)) == 1
    _one_line_error(capsys, "Is a directory", str(folder))


def test_out_dir_under_a_regular_file_is_a_one_line_error(sim_sam,
                                                          tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    capsys.readouterr()
    assert run(["convert", str(sim_sam), "--target", "bed", "--out-dir",
                str(blocker / "out")]) == 1
    _one_line_error(capsys, str(blocker))


def test_convert_reuses_supplied_artifacts(tmp_path, capsys):
    bam = tmp_path / "s.bam"
    run(["simulate", str(bam), "--templates", "25"])
    work = tmp_path / "w"
    assert run(["preprocess", str(bam), "--work-dir", str(work)]) == 0
    (bamx,) = sorted(work.glob("*.bamx"))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["convert", str(bam), "--target", "bed",
                "--out-dir", str(out), "--bamx", str(bamx)]) == 0
    captured = capsys.readouterr().out
    assert "reusing preprocessing artifacts" in captured
    assert "preprocessed to" not in captured


@pytest.fixture()
def service_socket(tmp_path):
    from repro.service import ConversionService, GatewayServer
    service = ConversionService(tmp_path / "svc", workers=1)
    daemon = GatewayServer(service, tmp_path / "repro.sock")
    daemon.start()
    yield str(daemon.unix_path)
    daemon.stop()


def test_service_cli_flow(service_socket, sim_sam, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["submit", str(sim_sam), "--socket", service_socket,
                "--target", "bed", "--out-dir", str(out),
                "--wait"]) == 0
    captured = capsys.readouterr().out
    assert "submitted job-" in captured
    assert "done" in captured
    assert list(out.glob("*.bed"))

    assert run(["status", "--socket", service_socket]) == 0
    assert "done" in capsys.readouterr().out
    assert run(["status", "--socket", service_socket,
                "--metrics"]) == 0
    metrics_out = capsys.readouterr().out
    assert "jobs_submitted" in metrics_out and "jobs_done" in metrics_out


def test_service_cli_cancel_finished_job(service_socket, sim_sam,
                                         tmp_path, capsys):
    assert run(["submit", str(sim_sam), "--socket", service_socket,
                "--target", "sam", "--out-dir", str(tmp_path / "o"),
                "--wait"]) == 0
    job_id = capsys.readouterr().out.split()[1]
    assert run(["cancel", job_id, "--socket", service_socket]) == 1
    assert "had already finished" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["0", "-3"])
def test_serve_refuses_a_pending_cap_below_one(bad, tmp_path, capsys):
    """`--max-pending-jobs 0` used to start a daemon that refused every
    submit as overloaded."""
    from repro.cli import build_parser
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([
            "serve", "--socket", str(tmp_path / "s.sock"), "--work-dir",
            str(tmp_path / "w"), "--max-pending-jobs", bad])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-pending-jobs" in err and bad in err


def test_preprocess_refuses_compress_on_sam_input(sim_sam, tmp_path,
                                                  capsys):
    """It used to exit 0 and write uncompressed .bamx parts."""
    work = tmp_path / "w"
    assert run(["preprocess", str(sim_sam), "--work-dir", str(work),
                "--compress"]) == 1
    _one_line_error(capsys, "--compress", str(sim_sam))
    assert not work.exists()


def test_convert_refuses_bam_only_flags_on_sam_and_store_input(
        sim_sam, tmp_path, capsys):
    """``--bamx``, ``--baix`` and ``--store-format`` steer a BAM's
    preprocessing; on other input they used to be ignored (exit 0,
    even with a ``--bamx`` that does not exist)."""
    bam = tmp_path / "s.bam"
    assert run(["simulate", str(bam), "--templates", "25"]) == 0
    assert run(["preprocess", str(bam), "--work-dir",
                str(tmp_path / "w")]) == 0
    (store,) = sorted((tmp_path / "w").glob("*.bamx"))
    capsys.readouterr()
    out = tmp_path / "out"
    for source in (sim_sam, store):
        for flag in (["--bamx", "nope.bamx"], ["--baix", "nope.baix"],
                     ["--store-format", "bamc"]):
            assert run(["convert", str(source), "--target", "bed",
                        "--out-dir", str(out), *flag]) == 1
            _one_line_error(capsys, flag[0], "BAM input only",
                            str(source))
            assert not out.exists()
    # The default store format, and a work dir, are no refusal.
    assert run(["convert", str(sim_sam), "--target", "bed", "--out-dir",
                str(out), "--store-format", "bamx", "--work-dir",
                str(tmp_path / "w2")]) == 0


def test_submit_refuses_mode_without_region(service_socket, sim_sam,
                                            tmp_path, capsys):
    """``--mode`` belongs to region jobs: without ``--region`` it used
    to be dropped from a convert job without a word."""
    assert run(["submit", str(sim_sam), "--socket", service_socket,
                "--target", "bed", "--out-dir", str(tmp_path / "o"),
                "--mode", "overlap", "--wait"]) == 2
    _one_line_error(capsys, "--mode", "region jobs only")
    assert run(["status", "--socket", service_socket]) == 0
    assert capsys.readouterr().out == "no jobs\n"
    assert not (tmp_path / "o").exists()


#: Bad values of each knob both the CLI and a service job take, and the
#: verb (and job kind) they are given to.
CROSS_SURFACE = [
    ("nprocs", ["0", "-2", "two"], "convert"),
    ("executor", ["gpu"], "convert"),
    ("shards", ["0", "many", "auto"], "convert"),
    ("batch_size", ["0", "auto"], "convert"),
    ("store_format", ["zip"], "convert"),
    ("mode", ["sideways"], "region"),
    ("target", ["bogus"], "convert"),
    ("filter", ["((("], "convert"),
    ("region", ["chr1:,,", "chr1:5-2"], "region"),
]


def test_cli_and_service_refuse_a_bad_knob_in_one_sentence(
        sam_file, bam_file, service_socket, tmp_path, capsys):
    """Every knob is checked by its one row of the knob table: ``repro
    convert|region`` (at parse time, exit 2, or where the value is
    used, exit 1), ``repro submit`` and ``ConversionService.submit``
    give the same sentence, and nothing is journaled or written."""
    import os

    from repro.core import BamConverter
    from repro.defaults import KNOBS
    from repro.errors import ServiceError
    from repro.service import ConversionService
    from repro.service.journal import replay
    store, _, _ = BamConverter().preprocess(bam_file, tmp_path / "store")
    out = str(tmp_path / "out")
    batch = {"convert": ["convert", sam_file],
             "region": ["region", store, "--region", "chr1:1-100"]}
    client = {"convert": ["submit", sam_file],
              "region": ["submit", store, "--region", "chr1:1-100"]}
    jobs = {"convert": {"input": sam_file},
            "region": {"input": store, "region": "chr1:1-100"}}
    service = ConversionService(tmp_path / "svc", workers=1,
                                journal_path=tmp_path / "j.log")
    try:
        for name, values, verb in CROSS_SURFACE:
            for value in values:
                with pytest.raises(ServiceError) as refused:
                    service.submit(verb, {**jobs[verb], "target": "bed",
                                          "out_dir": out, name: value})
                for argv in batch[verb], [*client[verb], "--socket",
                                          service_socket]:
                    try:
                        code = main([*argv, "--target", "bed", "--out-dir",
                                     out, f"--{name.replace('_', '-')}",
                                     value])
                    except SystemExit as exc:
                        code = exc.code
                    err = capsys.readouterr().err
                    assert code == (1 if KNOBS[name].lazy else 2), \
                        (argv, name, value, err)
                    assert str(refused.value) in err, (argv, name, value)
        assert service.status() == []
    finally:
        service.close()
    assert replay(tmp_path / "j.log")[0] == {}
    assert not os.path.exists(out)


def test_submit_unreachable_socket(tmp_path, sim_sam):
    assert run(["submit", str(sim_sam), "--socket",
                str(tmp_path / "no.sock"), "--target", "bed",
                "--out-dir", str(tmp_path / "o")]) == 1


def test_preprocess_compress_flag(tmp_path, capsys):
    bam = tmp_path / "s.bam"
    run(["simulate", str(bam), "--templates", "20"])
    work = tmp_path / "w"
    assert run(["preprocess", str(bam), "--work-dir", str(work),
                "--compress"]) == 0
    assert list(work.glob("*.bamz"))
    assert list(work.glob("*.bamz.bzi"))


def test_client_verbs_do_not_import_the_converter_stack():
    """``repro submit|status|cancel`` and the client module must start
    without numpy or ``repro.core`` (checked in a fresh interpreter)."""
    import os
    import subprocess
    import sys

    import repro
    probe = (
        "import sys\n"
        "import repro.service.client\n"
        "from repro.service import ServiceClient, protocol\n"
        "from repro.cli import build_parser, main\n"
        "try:\n"
        "    main(['status', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "build_parser().parse_args([\n"
        "    'submit', 'x.bam', '--socket', 's', '--target', 'bed',\n"
        "    '--out-dir', 'o', '--shards', '2', '--batch-size', '8',\n"
        "    '--filter', 'q=30', '--region', 'chr1:1-100'])\n"
        "heavy = [m for m in ('numpy', 'repro.core', 'repro.formats')\n"
        "         if m in sys.modules]\n"
        "print('HEAVY', heavy)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("HEAVY []"), done.stdout


def test_package_exports_resolve_lazily_and_completely():
    import repro
    import repro.core
    import repro.formats
    import repro.runtime
    import repro.service
    for package in (repro, repro.service, repro.core, repro.formats,
                    repro.runtime):
        assert len(set(package.__all__)) == len(package.__all__)
        for name in package.__all__:
            assert getattr(package, name) is not None
    assert repro.formats.BamReader.__module__ == "repro.formats.bam"
    with pytest.raises(AttributeError):
        repro.core.no_such_export
    assert repro.service.ServiceClient.__module__ == \
        "repro.service.client"
    with pytest.raises(AttributeError):
        repro.service.no_such_export


_BAM_STACK = tuple(f"repro.formats.{name}" for name in (
    "bam", "bamc", "bamx", "bamz", "bgzf", "baix", "baix2", "store"))
_NOT_ONE_SHOT = ("numpy.ma", "repro.core.sort", "repro.core.samp_converter",
                 "repro.core.dataset", "repro.formats.fasta")
_NO_POOL = ("repro.runtime.executor", "multiprocessing", "concurrent.futures")


def _loaded_by(argv: list[str], importtime: bool = False,
               ) -> tuple[set[str], list[str]]:
    """The modules ``repro <argv>`` leaves loaded, run in a fresh
    interpreter, and (under ``-X importtime``) every ``repro`` module
    an import statement loaded in it or in a process forked from it."""
    import json
    import os
    import subprocess
    import sys

    import repro
    code = ("import json, sys\nfrom repro.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, *(["-X", "importtime"] if importtime else []),
         "-c", code, *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    return set(json.loads(done.stdout.splitlines()[-1])), \
        [name for name in imported if name.startswith("repro")]


def test_bam_convert_and_region_leave_cold_path_modules_out(tmp_path,
                                                            sam_file,
                                                            bam_file):
    """A one-shot call loads only the code its plan runs (``DESIGN.md``,
    "What a call loads"), each case in a fresh interpreter: a SAM
    conversion on process ranks none of the BAM, store, record-tier or
    tuner stack — and no rank imports a module its parent had not (a
    forked rank would compile it once more); a cold BAM conversion no
    pool, no SAM converter, no region parser and no JSON/YAML renderer;
    and none of them ``numpy.ma`` (the first ``np.unique`` would import
    it) or a verb they do not run.  Positive controls show each module
    does load where it is used."""
    from repro.core import BamConverter
    store, _, _ = BamConverter().preprocess(bam_file, tmp_path / "store")
    floats = tmp_path / "floats.sam"
    with open(sam_file, encoding="ascii") as fh:
        floats.write_text(fh.read() + "f\t0\tchr1\t5\t60\t4M\t*\t0\t0"
                          "\tACGT\tIIII\tXX:f:1.5\n")
    out = str(tmp_path / "out")
    cases = [   # (argv, modules left out, modules loaded)
        (["convert", sam_file, "--target", "bed", "--nprocs", "2",
          "--executor", "process"],
         (*_BAM_STACK, "repro.formats.batch", "repro.runtime.autotune",
          "repro.core.bam_converter", "repro.formats.json_fmt",
          *_NOT_ONE_SHOT), ("repro.runtime.executor",)),
        (["convert", bam_file, "--target", "bed", "--work-dir",
          str(tmp_path / "w")],
         ("repro.runtime.autotune", "repro.formats.batch",
          "repro.formats.json_fmt", "repro.formats.yaml_fmt",
          "repro.core.sam_converter", "repro.core.region", *_NO_POOL,
          *_NOT_ONE_SHOT), ("repro.formats.store",)),
        (["region", store, "--region", "chr1:1-30000", "--target", "bed",
          "--mode", "overlap"],
         ("repro.formats.batch", "repro.core.sam_converter", *_NO_POOL,
          *_NOT_ONE_SHOT),
         ("repro.core.region",)),
        (["convert", sam_file, "--target", "json"], (),
         ("repro.formats.json_fmt",)),
        (["convert", str(floats), "--target", "bed"], (),
         ("repro.formats.batch",)),
        (["convert", sam_file, "--target", "gff", "--nprocs", "2",
          "--executor", "process"], _NOT_ONE_SHOT,
         ("repro.formats.gff", "repro.formats.batch")),
    ]
    for argv, left_out, loaded in cases:
        modules, _ = _loaded_by([*argv, "--out-dir", out])
        assert not modules & set(left_out), (argv, modules & set(left_out))
        assert set(loaded) <= modules, (argv, set(loaded) - modules)
    for argv in (cases[0][0], cases[-1][0]):    # the process-rank rows
        modules, imported = _loaded_by([*argv, "--out-dir", out],
                                       importtime=True)
        assert not {name for name in imported if imported.count(name) > 1}
        assert set(imported) <= modules, (argv, set(imported) - modules)
