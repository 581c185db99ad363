"""Resumable sharded export — the "Resumable output" contract for
training-data delivery: a content-deterministic shuffle
(:func:`spidey_ray.stages.sampling.shuffle_to_shards`) feeds one
directory per shard (``shard=NNNNN/part.parquet`` + ``_SUCCESS``), so

- a re-run COMPLETES missing shards and never rewrites finished ones
  (the marker is the authority; data lands via tmp-file + atomic rename
  BEFORE the marker, so a crash mid-write leaves no finished-looking
  partial);
- what a re-run writes is byte-for-byte the same rows in the same order
  (the shuffle is deterministic at any block layout or cluster size),
  so resumed and fresh exports are indistinguishable.

The write happens INSIDE the per-shard ``io.exchange`` task — shards
write in parallel across the cluster against shared storage, the driver
sees only the n_shards-row summary.  This generalizes the crawl
checkpoint's discipline (a round directory that counts only once its
marker, the manifest, is in place: ``CrawlEngine._checkpoint``) to corpus
export.

Exchanges: two, the shuffle's and the per-shard write (``io.exchange`` on
``shard_id``).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq

import ray.data

from ..io import exchange, pd_to_arrow
from ..stages.sampling import shuffle_to_shards


def export_shards(ds: "ray.data.Dataset", out_dir: str, id_col: str,
                  n_shards: int, seed: str = "42") -> pd.DataFrame:
    """Shuffle ``ds`` deterministically and write ``n_shards`` parquet
    shards under ``out_dir``; returns the per-shard summary frame
    (shard_id, n_rows, skipped).  Shards whose ``_SUCCESS`` marker
    already exists are skipped (resume); shards with no rows are simply
    absent (possible when n_shards exceeds the row count)."""
    os.makedirs(out_dir, exist_ok=True)
    sharded = shuffle_to_shards(ds, id_col, n_shards, seed=seed)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        sid = int(g["shard_id"].iloc[0])
        d = os.path.join(out_dir, f"shard={sid:05d}")
        marker = os.path.join(d, "_SUCCESS")

        def summary(skipped: bool) -> pd.DataFrame:
            return pd.DataFrame({
                "shard_id": pd.Series([sid], dtype="int64"),
                "n_rows": pd.Series([len(g)], dtype="int64"),
                "skipped": pd.Series([skipped], dtype="bool"),
            })

        if os.path.exists(marker):
            return summary(True)
        os.makedirs(d, exist_ok=True)
        g = g.sort_values("shard_pos", kind="mergesort")
        tmp = os.path.join(d, ".part.parquet.tmp")
        pq.write_table(pd_to_arrow(g), tmp)
        os.replace(tmp, os.path.join(d, "part.parquet"))
        with open(marker, "w"):
            pass
        return summary(False)

    return (exchange(sharded, "shard_id", write_shard)
            .to_pandas().sort_values("shard_id").reset_index(drop=True))


def read_shards(out_dir: str) -> "ray.data.Dataset":
    """Read back an export, FINISHED shards only (unfinished directories
    hold at most a tmp file and no marker)."""
    paths = sorted(
        os.path.join(out_dir, d, "part.parquet")
        for d in os.listdir(out_dir)
        if os.path.exists(os.path.join(out_dir, d, "_SUCCESS")))
    if not paths:       # nothing finished yet — read_parquet([]) raises
        return ray.data.from_items([])
    return ray.data.read_parquet(paths)
