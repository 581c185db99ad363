"""Persistent-table IO: Lance when available, Parquet directory fallback.

BASELINE.json's ``input_hint`` calls for Lance tables of interleaved
documents.  The sandbox image does not ship ``lance``/``lancedb``, so this
module gates the Lance path behind an import-try and falls back to a Parquet
directory with identical semantics (a directory per table, atomic
write-to-temp-then-rename, resumable layout).  All call sites go through
``read_table`` / ``write_table`` so swapping the format is a no-op for the
engine.
"""

from __future__ import annotations

import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - lance not present in this sandbox
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False

import ray.data


def table_format() -> str:
    return "lance" if HAVE_LANCE else "parquet"


def strip_schema_metadata(t: pa.Table) -> pa.Table:
    """Metadata-only (zero-copy) strip of pandas schema metadata: unhashable
    on pyarrow 16, it floods shuffle logs with Ray's schema-hash warning.
    A named module-level function on purpose — workers deserialize it by
    reference, importing ``spidey_ray`` (whose ``__init__`` installs the
    worker-side log-noise filter)."""
    return t.replace_schema_metadata(None)


_BROADCAST_CACHE: dict = {}


def get_broadcast(ref):
    """Per-worker one-slot memo around ``ray.get`` of a broadcast object:
    Python payloads (dicts of arrays, models) are re-DESERIALIZED on every
    ``ray.get`` — unlike numpy buffers, which map zero-copy — so a map
    task fetching per batch pays the full unpickle each time.  Workers are
    reused across tasks; keying on the ref keeps one live object per
    worker process."""
    import ray as _ray

    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    if _BROADCAST_CACHE.get("key") != key:
        _BROADCAST_CACHE["key"] = key
        _BROADCAST_CACHE["val"] = _ray.get(ref)
    return _BROADCAST_CACHE["val"]


def block_partials(ds: "ray.data.Dataset", fn):
    """Run the Arrow UDF ``fn`` once over ``ds``; yield each non-empty
    per-block partial on the driver as soon as its block exists — the one
    loop behind every bounded-key driver merge.  Not
    ``Dataset.to_arrow_refs``: in Ray 2.49 that runs the plan, then
    ``self.schema(fetch_if_missing=True)`` (``ray/data/dataset.py:5840``)
    runs it again as a ``limit(1)`` copy, cancelling what it does not need."""
    mapped = ds.map_batches(fn, batch_format="pyarrow")
    for bundle in mapped.iter_internal_ref_bundles():
        for ref in bundle.block_refs:
            part = ray.get(ref)
            if len(part):
                yield part


def pd_to_arrow(df) -> "pa.Table":
    """pandas → Arrow with the pandas schema metadata stripped.

    Stages that return DataFrames into a downstream shuffle otherwise
    hand Ray blocks whose schema carries the pandas metadata dict —
    unhashable on pyarrow 16, which floods the shuffle merge/reduce
    tasks with Ray's schema-hash warning and defeats ``unify_schemas``'
    set() fast path.  Empty frames are returned unchanged: their object
    columns would convert to null-type columns, which is worse than the
    metadata (Ray's own conversion handles them as today)."""
    if not len(df):
        return df
    return pa.Table.from_pandas(
        df, preserve_index=False).replace_schema_metadata(None)


def write_table(ds: "ray.data.Dataset | pa.Table", path: str) -> None:
    """Write a Dataset (streaming, one file per block) or small pa.Table
    atomically to ``path`` (a directory). Existing data is replaced."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    try:
        if isinstance(ds, pa.Table):
            if HAVE_LANCE:  # pragma: no cover
                lance.write_dataset(ds, tmp, mode="overwrite")
            else:
                pq.write_table(ds, os.path.join(tmp, "part-0.parquet"))
        else:
            if HAVE_LANCE:  # pragma: no cover
                ds.write_lance(tmp)
            else:
                ds.write_parquet(tmp)
        if os.path.exists(path):
            shutil.rmtree(path)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


def read_table(path: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Streaming read of a persisted table; pass ``columns`` to prune at the
    read (scraper-scale inputs must never load unused columns)."""
    if HAVE_LANCE:  # pragma: no cover
        return ray.data.read_lance(path, columns=columns)
    return ray.data.read_parquet(path, columns=columns).map_batches(
        strip_schema_metadata, batch_format="pyarrow")


def read_table_arrow(path: str, columns: list[str] | None = None) -> pa.Table:
    """Driver-side read of a SMALL table (checkpoint metadata, blacklist...)."""
    if HAVE_LANCE:  # pragma: no cover
        return lance.dataset(path).to_table(columns=columns)
    files = sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )
    tabs = [pq.read_table(f, columns=columns) for f in files]
    return pa.concat_tables(tabs) if tabs else pa.table({})
