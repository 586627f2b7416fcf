"""Knob choices and defaults that the CLI parser and the converters
check: apart from the layers that own them (the codecs, the store, the
tuner), so neither the parser nor a converter's checks load a layer
just for a name (``DESIGN.md``, "What a call loads")."""

#: Pipeline names accepted by the converters.
PIPELINES = ("batch", "record")

#: The sentinel value of an auto-tuned knob (``--shards auto``).
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
