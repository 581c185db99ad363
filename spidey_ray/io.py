"""Persistent-table IO: Lance when available, Parquet directory fallback.

BASELINE.json's ``input_hint`` calls for Lance tables of interleaved
documents.  The sandbox image does not ship ``lance``/``lancedb``, so this
module gates the Lance path behind an import-try and falls back to a Parquet
directory with identical semantics (a directory per table, atomic
write-to-temp-then-rename, resumable layout).  All call sites go through
``read_table`` / ``write_table`` so swapping the format is a no-op for the
engine.

It also holds the engine's Ray Data settings and plan helpers: the
per-block driver merge (``block_partials``) and the one exchange
(``exchange``, routed by ``hash_bucket``).
"""

from __future__ import annotations

import os
import shutil
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - lance not present in this sandbox
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False

import ray.data
from ray.data.context import ShuffleStrategy


def _configure_data_context() -> None:
    """Engine-wide Ray Data execution settings, applied when this module is
    imported; every module that builds a Ray Data plan imports it.  Only
    the process that builds a plan reads them: Ray 2.49 copies the current
    DataContext into each Dataset it creates, reads both settings while
    planning, and ships that copy to every task it runs.  So the state
    actors, which build no plan, need not import Ray Data at all.

    ``shuffle_strategy = SORT_SHUFFLE_PUSH_BASED``: Ray's default
    sort/groupby shuffle returns one object PER (map block × reduce
    partition); sub-100 KB returns are stored in the OWNER'S in-process
    store — i.e. the driver's heap.
    Measured on this repo's own top-tokens aggregation (20.5 M rows,
    47 MB on disk): driver RSS 1.74 GB with the default shuffle vs 0.26 GB
    with push-based shuffle for the identical job — at corpus scale the
    default would OOM the driver on fragment ownership alone.  Push-based
    (magnet-style) shuffle merges map outputs node-side instead."""
    ctx = ray.data.DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    # Ray's default forces EVERY read to >= 200 blocks regardless of
    # size: a 76 MB documents table becomes 314 tiny blocks, and every
    # downstream map/groupby pays ~314 task launches + a 314-partition
    # sort (measured: a 13k-row groupby chain at 23.7 s that is 4.9 s
    # at 2x-CPU blocks). Cap the floor at 2x the machine's cores —
    # block count for big data is still driven by target_max_block_size,
    # so the 100 TB path (thousands of size-driven blocks) is unchanged.
    ctx.read_op_min_num_blocks = min(
        ctx.read_op_min_num_blocks, max(2 * (os.cpu_count() or 16), 16))


_configure_data_context()


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



def hash_bucket(values, n: int, salt: str) -> np.ndarray:
    """The engine's one bucket-routing hash: int32 ids in ``[0, n)``.

    ``values`` is one key column (a pandas Series or an Arrow array) or
    several (a DataFrame or ``pa.Table``, joined per row as their string
    forms separated by ``"\x1f"``).  ``salt`` is the site's 16-byte
    ``hash_key``, so every site keeps its own routing.  ``categorize=False``:
    factorize's C hashtable truncates strings at NUL and would collide
    distinct composite keys."""
    if isinstance(values, (pa.Table, pa.Array, pa.ChunkedArray)):
        values = values.to_pandas()
    if isinstance(values, pd.DataFrame):
        key = values.iloc[:, 0]
        if values.shape[1] > 1:
            # vectorized concat: .agg("\x1f".join, axis=1) is a per-row
            # Python loop over the same strings
            key = key.astype(str)
            for c in values.columns[1:]:
                key = key + "\x1f" + values[c].astype(str)
        values = key
    h = pd.util.hash_pandas_object(values, index=False, hash_key=salt,
                                   categorize=False)
    return (h % n).astype(np.int32).to_numpy()


def exchange(ds: "ray.data.Dataset", by, fn,
             batch_format: str = "pandas") -> "ray.data.Dataset":
    """``ds.groupby(by).map_groups(fn)``, the engine's one exchange.

    ``by`` is a column of ``ds``, or a function from an Arrow batch to its
    int32 bucket ids (usually :func:`hash_bucket`), appended as
    ``_bucket`` in one map.  ``fn`` gets each group in ``batch_format``
    without the ``_bucket`` column; a DataFrame it returns leaves as Arrow
    (:func:`pd_to_arrow`).

    The input is materialized before the shuffle: Ray 2.49 reserves a CPU
    for every operator of a plan, so a map chained into an exchange runs
    about one task at a time, while an exchange buffers its whole input
    anyway.  Materializing ends the plan there and gives the map side the
    whole cluster (a warm filter+index build of 1,739 documents went from
    about 20.5 s to 11.6 s in a local 4-CPU Ray session)."""
    key = by
    if callable(by):
        key = "_bucket"

        def tag(t: pa.Table) -> pa.Table:
            return t.append_column("_bucket",
                                   pa.array(by(t), type=pa.int32()))

        ds = ds.map_batches(tag, batch_format="pyarrow")

    def run(g):
        if isinstance(g, pa.Table):
            if "_bucket" in g.column_names:
                g = g.drop_columns(["_bucket"])
        elif "_bucket" in g.columns:
            g = g.drop(columns=["_bucket"])
        out = fn(g)
        return pd_to_arrow(out) if isinstance(out, pd.DataFrame) else out

    run.__name__ = getattr(fn, "__name__", "exchange")
    return ds.materialize().groupby(key).map_groups(
        run, batch_format=batch_format)

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
