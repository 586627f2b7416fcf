"""Knob choices and defaults that the CLI parser shows.

They live apart from :mod:`repro.formats` (which re-exports them) so
building the parser does not import numpy and every codec.
"""

#: Pipeline names accepted by the converters.
PIPELINES = ("batch", "record")

#: Default records per batch through the converter hot loops.
DEFAULT_BATCH_SIZE = 4096

#: Record-store formats a converter can write.
STORE_FORMATS = ("bamx", "bamc")

#: Executors a rank-parallel call can run its ranks on.
EXECUTORS = ("simulate", "thread", "process")
