"""spidey_ray — a Ray-Data-native data-processing engine with the query and
data-processing capabilities of danielzelfo/spidey (crawler + filter/indexer +
query), re-expressed as ``ray.data.Dataset`` pipelines:

- ``map_batches`` over zero-copy Arrow batches for all per-record transforms,
- actor pools for stateful stages (URL-seen cuckoo shards, per-host
  politeness/robots schedulers, fetchers),
- ``groupby`` / ``sort`` shuffles for the wide steps (postings build, dedup,
  reports),
- Lance (or Parquet fallback) tables for every persistent artifact, with
  per-round checkpoint/resume.

Nothing in this package is a port of the reference's execution engine; the
reference (cited throughout as ``backend/...:<line>``) defines *what* is
computed, not *how*.
"""

__version__ = "0.2.0"

import logging as _logging


class _SchemaHashNoise(_logging.Filter):
    """Ray Data's `unify_schemas` early-exit tries `set(schemas)` and warns
    when a schema is unhashable (e.g. extension metadata); unification itself
    still succeeds, so the warning is pure log noise that floods bench/driver
    output.  Suppress just that one message."""

    def filter(self, record: _logging.LogRecord) -> bool:
        return "Failed to hash the schemas" not in record.getMessage()


_logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow").addFilter(_SchemaHashNoise())
