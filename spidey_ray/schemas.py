"""Explicit pyarrow schemas of persisted crawl state (SURVEY.md §1.5).

The reference keeps these shapes implicit (JSON field conventions, shelve
tuples, positional arrays).  ``HOSTS`` is the per-host state snapshot row;
``LINEAGE`` is the per-round lineage row, not yet enforced on the
``lineage`` entry of the crawl checkpoint's per-round ``manifest.json``.
"""

from __future__ import annotations

import pyarrow as pa

# Per-host state snapshot (reference SubdomainEntry, scraper.py:52-56).
HOSTS = pa.schema(
    [
        ("host", pa.string()),
        ("robots_txt", pa.string()),
        ("crawl_delay", pa.float64()),
        ("n_urls", pa.int64()),
    ]
)

# Per-round, per-partition lineage / metrics rows (north_rule checkpointing).
LINEAGE = pa.schema(
    [
        ("round", pa.int32()),
        ("partition", pa.int32()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        ("urls_fetched", pa.int64()),
        ("bytes", pa.int64()),
    ]
)
