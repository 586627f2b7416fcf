"""Knob choices and defaults, and the knob table (:data:`KNOBS`): every
CLI flag and service job parameter, declared once, by which the CLI
parser, the service's door and the converters check them.  Kept apart
from the layers that own the knobs (the codecs, the store) and free of
numpy, so that neither the parser nor a converter's checks load a
layer just for a name (``DESIGN.md``, "What a call loads")."""

from __future__ import annotations

import os
from collections.abc import Callable
from contextlib import suppress
from functools import partial
from importlib import import_module
from operator import attrgetter
from typing import Any, NamedTuple

from .errors import ConversionError, ReproError

#: Pipeline names accepted by the converters.
PIPELINES = ("batch", "record")

#: The sentinel value of an auto-tuned knob: the library's
#: ``shards_per_rank="auto"`` (``core.base.converter_options``).
AUTO = "auto"

#: Default records per batch through the converter hot loops.
DEFAULT_BATCH_SIZE = 4096

#: Record-store formats a converter can write.
STORE_FORMATS = ("bamx", "bamc")

#: Executors a rank-parallel call can run its ranks on.
EXECUTORS = ("simulate", "thread", "process")

#: Region selection modes of partial conversion: a record's start in the
#: region (the paper's), or its alignment span overlapping it.
REGION_MODES = ("start", "overlap")

#: Durability policies of the service's job journal.
FSYNC_POLICIES = ("always", "interval", "never")

#: Job kinds the conversion service runs.
JOB_KINDS = ("convert", "region", "preprocess")


def validate_knob(value: Any, name: str,
                  error: type[Exception] = ConversionError,
                  auto: bool = True) -> int | str:
    """Validate a tuning knob: a positive int, or — where *auto* allows
    it (a converter's ``shards_per_rank``) — ``"auto"``.

    Returns the int or the canonical :data:`AUTO` sentinel; anything
    else raises *error* naming the bad value (no raw ``int()``
    tracebacks).  Without *auto*, the rule of the ``nprocs``,
    ``shards`` and ``batch_size`` rows of :data:`KNOBS`.
    """
    or_auto = " or 'auto'" if auto else ""
    if isinstance(value, str):
        if auto and value.strip().lower() == AUTO:
            return AUTO
        with suppress(ValueError):
            value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(
            f"invalid {name} value {value!r}: expected a positive "
            f"integer{or_auto}")
    if value < 1:
        raise error(
            f"invalid {name} value {value}: must be >= 1{or_auto}")
    return value


# -- rules: (value, name, error) -> the canonical value, or raise error

_count = partial(validate_knob, auto=False)


def _one_of(known: tuple) -> Callable:
    def rule(value: Any, name: str, error: type[Exception]) -> Any:
        if not isinstance(value, str) or value not in known:
            raise error(f"invalid {name} value {value!r}; choose one of "
                        f"{known}")
        return value
    return rule


def _number(kind: type) -> Callable:
    """argparse's ``type=int`` / ``type=float``, with its own message."""
    def rule(value: Any, name: str, error: type[Exception]) -> Any:
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise error(f"invalid {kind.__name__} value: "
                        f"{value!r}") from None
    return rule


def _path(value: Any, name: str, error: type[Exception]) -> str:
    if not isinstance(value, (str, os.PathLike)):
        raise error(f"invalid {name} value {value!r}: expected a path")
    return os.fspath(value)


def _boolean(value: Any, name: str, error: type[Exception]) -> bool:
    if not isinstance(value, bool):
        raise error(f"invalid {name} value {value!r}: expected true or "
                    f"false")
    return value


def _parsed_by(module: str, parser: str) -> Callable:
    """A rule that parses a string with the converters' own *parser*
    from *module*, imported when the rule first runs (which no client
    verb does)."""
    def rule(value: Any, name: str, error: type[Exception]) -> Any:
        if not isinstance(value, str):
            raise error(f"invalid {name} value {value!r}: expected a "
                        f"string")
        try:
            attrgetter(parser)(import_module(module))(value)
        except ReproError as exc:
            raise error(str(exc)) from None
        return value
    return rule


class Knob(NamedTuple):
    """One row of :data:`KNOBS`: a CLI flag and/or a job parameter."""

    #: argparse dest, and the job parameter's name; the flag is
    #: ``--name-with-dashes``, unless the knob is a positional.
    name: str
    help: str | None = None
    positional: bool = False
    #: A one-letter alias of the flag (``-t``).
    short: str | None = None
    #: ``(value, name, error) -> value`` (see :meth:`check`).
    rule: Callable | None = None
    default: Any = None
    choices: tuple | None = None
    metavar: str | None = None
    #: Required on the CLI, and by every job kind that takes it.
    required: bool = False
    action: str | None = None
    nargs: str | None = None
    #: CLI verbs that take it, and the service job kinds.
    verbs: str = ""
    jobs: str = ""
    #: The rule loads a converter module: the parser leaves the value
    #: to the code that uses it (the converter, or the service's door).
    lazy: bool = False
    #: Required mutually exclusive argparse group it belongs to.
    group: str | None = None
    #: ``verb -> {field: value}`` where one verb differs.
    per_verb: dict[str, dict[str, Any]] | None = None

    def check(self, value: Any, error: type[Exception],
              name: str | None = None) -> Any:
        """The canonical *value*, or *error* naming it (as *name*, by
        default this knob's own)."""
        if self.rule is None:
            return value
        return self.rule(value, name or self.name, error)


_INT, _FLOAT = _number(int), _number(float)
# Region syntax only: the chromosome needs the store's header.
_REGION = _parsed_by("repro.core.region", "GenomicRegion.parse")
_TARGET = _parsed_by("repro.core.targets", "get_target")
_FILTER = _parsed_by("repro.core.filters", "parse_filter_expr")
_RANKS = "convert preprocess sort flagstat region nlmeans fdr peaks submit"
_CLIENT = "submit status cancel"

#: Every CLI flag and service job parameter, declared once; a verb's
#: flags come in table order.  ``cli.build_parser`` builds each verb
#: from :func:`verb_knobs`, ``server._check_job`` checks a job against
#: :func:`job_knobs`, and ``core.base.converter_options`` runs the
#: ``pipeline``, ``store_format``, ``batch_size`` and ``shards`` rules.
KNOBS = {knob.name: knob for knob in (
    Knob("input", positional=True, rule=_path, required=True,
         help=".sam, .bam, .bamx, .bamz or .bamc input",
         verbs="convert preprocess sort flagstat validate histogram "
               "nlmeans submit", jobs="convert region preprocess",
         per_verb={"preprocess": {"help": ".sam or .bam input"},
                   "nlmeans": {"help": ".npy or .bedgraph histogram"}}),
    Knob("histogram", positional=True, help=".npy or .bedgraph histogram",
         verbs="fdr peaks"),
    Knob("bamx", verbs="convert region",
         help="reuse this BAMX instead of preprocessing (BAM input only)",
         per_verb={"region": {"positional": True,
                              "help": "preprocessed .bamx file"}}),
    Knob("output", required=True, verbs="simulate sort histogram nlmeans",
         per_verb={"simulate": {"positional": True,
                                "help": "output path (.sam or .bam)"},
                   "sort": {"help": ".sam or .bam output"},
                   "histogram": {"help": ".bedgraph output"},
                   "nlmeans": {"help": ".npy output"}}),
    Knob("job", positional=True, help="job id", verbs="status cancel",
         per_verb={"status": {"nargs": "?",
                              "help": "job id (all jobs when omitted)"}}),
    Knob("templates", rule=_INT, default=1000, verbs="simulate",
         help="number of read pairs (default 1000)"),
    Knob("chromosomes", default="chr1:60000,chr2:40000", verbs="simulate",
         help="comma-separated name:length list"),
    Knob("unsorted", action="store_true", verbs="simulate",
         help="keep template order instead of coordinate sort"),
    Knob("socket", help="unix socket path to listen on",
         verbs=f"serve {_CLIENT}", per_verb=dict.fromkeys(
             _CLIENT.split(), {"help": "service unix socket path",
                               "group": "endpoint"})),
    Knob("connect", metavar="HOST:PORT", group="endpoint", verbs=_CLIENT,
         help="service TCP address"),
    Knob("listen", metavar="HOST:PORT", verbs="serve",
         help="also (or only) listen on TCP; port 0 binds an ephemeral "
              "port and reports it"),
    Knob("region", rule=_REGION, lazy=True, required=True,
         verbs="region submit", jobs="region",
         help="samtools-style region, e.g. chr1:1000-2000",
         per_verb={"submit": {
             "required": False,
             "help": "submit a partial conversion of this region"}}),
    Knob("target", rule=_TARGET, lazy=True, required=True,
         verbs="convert region submit", jobs="convert region",
         help="target format (see 'repro formats')"),
    Knob("out_dir", rule=_path, required=True,
         verbs="convert region submit", jobs="convert region"),
    Knob("work_dir", verbs="convert preprocess sort serve",
         help="where preprocessing writes the record store and its "
              "indexes",
         per_verb={"preprocess": {"required": True},
                   "sort": {"help": "where the scratch store and parts "
                                    "are written"},
                   "serve": {"required": True,
                             "help": "service state root (cache lives "
                                     "below it)"}}),
    Knob("threshold", short="-t", rule=_FLOAT, required=True, verbs="fdr",
         help="candidate threshold p_t"),
    Knob("chunk_records", rule=_INT, default=250_000, verbs="sort",
         help="records per part of the sorted output"),
    Knob("nprocs", rule=_count, default=1, verbs=_RANKS,
         jobs="convert region",
         help="ranks the work is partitioned over (default 1)",
         per_verb={"sort": {"help": "ranks writing the scratch store and "
                                    "the sorted parts (default 1)"},
                   "flagstat": {"help": "parallel counting ranks (a BAM's "
                                        "ranks take runs of whole slabs "
                                        "of its spool) (default 1)"}}),
    Knob("executor", rule=_one_of(EXECUTORS), default="simulate",
         choices=EXECUTORS, verbs=_RANKS, jobs="convert region",
         help="how the ranks run: 'simulate' (default) one after another "
              "in this process, 'thread' or 'process' concurrently on "
              "the shared worker pool (results are identical)"),
    Knob("mode", rule=_one_of(REGION_MODES), default="start",
         choices=REGION_MODES, verbs="region submit", jobs="region",
         help="select records starting in (paper semantics) or "
              "overlapping the region"),
    Knob("filter", rule=_FILTER, lazy=True, verbs="convert region submit",
         jobs="convert region",
         help="record filter, e.g. 'q=30,F=0x400,primary'"),
    Knob("baix", rule=_path, verbs="convert region", jobs="region",
         help="index path (default <bamx>.baix)"),
    Knob("compress", action="store_true", rule=_boolean, default=False,
         verbs="preprocess", jobs="convert region preprocess",
         help="write BGZF-compressed BAMZ instead of BAMX (BAM input "
              "only)"),
    Knob("store_format", rule=_one_of(STORE_FORMATS), default="bamx",
         choices=STORE_FORMATS, verbs="convert preprocess submit",
         jobs="convert region preprocess",
         help="record store written by preprocessing: 'bamx' (default; "
              "row-major fixed records) or 'bamc' (slab-columnar, "
              "converted through vectorized kernels; outputs are "
              "byte-identical)"),
    Knob("batch_size", rule=_count, default=DEFAULT_BATCH_SIZE,
         verbs="convert region submit", jobs="convert region",
         help=f"records per batch through the chunk-level codecs, an "
              f"integer >= 1 (default {DEFAULT_BATCH_SIZE})",
         per_verb={"submit": {
             "default": None,
             "help": "records per batch, an integer >= 1 (default: the "
                     "service's own default)"}}),
    Knob("pipeline", rule=_one_of(PIPELINES), default="batch",
         choices=PIPELINES, verbs="convert region",
         help="'batch' (default) uses the chunk-level codecs and "
              "per-target fastpaths; 'record' keeps the "
              "record-at-a-time path (outputs are byte-identical)"),
    Knob("shards", rule=_count, default=1, jobs="convert region",
         verbs="convert region preprocess serve submit",
         help="shards per rank for dynamic load balancing on the shared "
              "worker pool; 1 (default) keeps the paper-faithful static "
              "one-task-per-rank schedule (outputs are byte-identical)"),
    Knob("no_mates", action="store_true", verbs="validate",
         help="skip mate cross-checks"),
    Knob("bin_size", rule=_INT, default=25, verbs="histogram peaks",
         help="histogram bin size in bases"),
    Knob("npy", verbs="histogram",
         help="also save the dense array as .npy"),
    Knob("simulations", verbs="fdr peaks",
         help=".npy (B, M) simulation array; generated by permutation "
              "when omitted"),
    Knob("n_simulations", rule=_INT, default=80, verbs="fdr peaks",
         per_verb={"peaks": {"default": 60}}),
    Knob("target_fdr", rule=_FLOAT, default=0.05, verbs="peaks"),
    Knob("no_denoise", action="store_true", verbs="peaks"),
    Knob("search_radius", short="-r", rule=_INT, default=20,
         verbs="nlmeans peaks"),
    Knob("half_patch", short="-l", rule=_INT, default=15,
         verbs="nlmeans peaks"),
    Knob("sigma", rule=_FLOAT, default=10.0, verbs="nlmeans"),
    Knob("min_width", rule=_INT, default=1, verbs="peaks"),
    Knob("merge_gap", rule=_INT, default=0, verbs="peaks"),
    Knob("seed", rule=_INT, default=0, verbs="simulate fdr peaks"),
    Knob("limit", rule=_INT, default=20, verbs="peaks",
         help="max regions printed"),
    Knob("bed", verbs="peaks",
         help="also write regions as BED to this path"),
    Knob("chrom", default="chr1", verbs="peaks",
         help="chromosome name used in the BED output"),
    Knob("workers", rule=_INT, default=2, verbs="serve",
         help="jobs run at once, one body worker process each"),
    Knob("cache_dir", verbs="serve",
         help="artifact cache dir (default <work-dir>/cache)"),
    Knob("cache_max_bytes", rule=_INT, verbs="serve",
         help="LRU size cap for the artifact cache"),
    Knob("max_pending_jobs", rule=_count, default=1024, verbs="serve",
         help="admission-control cap on queued jobs; submits beyond it "
              "get explicit 'overloaded' errors (default 1024)"),
    Knob("journal", metavar="PATH", verbs="serve",
         help="write-ahead job journal; an existing journal is replayed "
              "on startup, re-queueing jobs the previous daemon lost to "
              "a crash"),
    Knob("journal_fsync", default="interval", choices=FSYNC_POLICIES,
         verbs="serve",
         help="journal durability: fsync every append, at a bounded "
              "interval (default), or never"),
    Knob("priority", rule=_INT, default=0, verbs="submit",
         help="higher runs first (default 0)"),
    Knob("timeout", rule=_FLOAT, verbs="submit",
         help="per-attempt wall-clock limit in seconds"),
    Knob("max_retries", rule=_INT, default=0, verbs="submit"),
    Knob("wait", action="store_true", verbs="submit",
         help="block until the job finishes"),
    Knob("metrics", action="store_true", verbs="status",
         help="print the service metrics snapshot instead"),
    Knob("trace", metavar="FILE",
         verbs="simulate convert preprocess sort flagstat validate "
               "region histogram nlmeans fdr peaks serve submit status "
               "cancel formats",
         help="write a span trace of this run (.json = Chrome trace "
              "format, anything else = JSON lines); REPRO_TRACE=FILE "
              "does the same",
         # status's --trace queries a *service job's* trace instead.
         per_verb={"status": {
             "metavar": "JOB",
             "help": "print the span tree recorded for this job"}}),
)}


def verb_knobs(verb: str) -> list[Knob]:
    """The rows CLI *verb* takes, in table order, as that verb has
    them."""
    return [knob._replace(**(knob.per_verb or {}).get(verb, {}))
            for knob in KNOBS.values() if verb in knob.verbs.split()]


def job_knobs(kind: str) -> list[Knob]:
    """The parameters a service job of *kind* takes."""
    return [knob for knob in KNOBS.values() if kind in knob.jobs.split()]
