"""Ordered/stream-shaped operators Ray Data lacks natively: as-of join and
session windows (SURVEY.md §2 "custom operators" note; ray_guide.md
"Streaming-shaped workloads").

Both follow the documented partitioning assumption: all rows for one key are
co-located by ONE hash-bucket shuffle, and ordering within the key is
established inside the bucket (sort by key, timestamp) — the engine never
relies on global order.  The shuffle key is a FAT bucket (``hash(key) %
num_buckets``), not the raw key: grouping on the raw key makes one group per
user/entity — millions of near-singleton groups at corpus scale, the slow
path of a sort-based shuffle (same reasoning as the stem-hash buckets in
``pipelines/filter_index.py``).  Skewed keys can be salted upstream.

Exchanges: one per operator (``io.exchange``), four in this module.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ..io import exchange, hash_bucket

_HASH_KEY = "spidey-wind-0000"  # fixed: deterministic across workers


def _by(cols: list[str], num_buckets: int):
    """Bucket-id function over the key columns of an Arrow batch."""
    return lambda t: hash_bucket(t.select(cols), num_buckets, _HASH_KEY)


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    ts_col: str,
    right_ts_col: str | None = None,
    suffix: str = "_right",
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """For each left row, the latest right row of the same key with
    right.ts <= left.ts (inner: left rows with no match are dropped).

    Implementation: tag both sides, co-partition with one hash-bucket
    ``groupby`` shuffle, and walk each key inside the bucket with numpy
    ``searchsorted`` over the sorted right timestamps — the per-key
    ``merge_asof`` pattern."""
    rts = right_ts_col or ts_col

    # each side tagged and materialized: its column names come from the
    # executed blocks, never from a lazy plan's limit(1) schema probe
    l_tag = left.map_batches(lambda df: df.assign(_side=np.int8(0)),
                             batch_format="pandas").materialize()
    r_tag = right.map_batches(
        lambda df: df.rename(columns={rts: ts_col}).assign(_side=np.int8(1)),
        batch_format="pandas").materialize()
    l_schema, r_schema = l_tag.schema(), r_tag.schema()
    if l_schema is None or r_schema is None:
        return left.limit(0)            # a side with no rows: no matches
    left_cols = l_schema.names[:-1]     # the tags append _side
    right_cols = [c for c in r_schema.names[:-1] if c not in (key, ts_col)]
    out_cols = left_cols + [c + suffix for c in right_cols]

    def per_key(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        if lg.empty or rg.empty:
            return pd.DataFrame(columns=out_cols)
        r_ts = rg[ts_col].to_numpy()
        idx = np.searchsorted(r_ts, lg[ts_col].to_numpy(), side="right") - 1
        ok = idx >= 0
        lg = lg[ok]
        matched = rg.iloc[idx[ok]]
        out = lg[left_cols].reset_index(drop=True)
        for c in right_cols:
            out[c + suffix] = matched[c].to_numpy()
        return out

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col, kind="mergesort")
        outs = []
        for _k, sub in g.groupby(key, sort=False):
            outs.append(per_key(sub[sub["_side"] == 0],
                                sub[sub["_side"] == 1]))
        if not outs:
            return pd.DataFrame(columns=out_cols)
        return pd.concat(outs, ignore_index=True)

    return exchange(l_tag.union(r_tag), _by([key], num_buckets), per_bucket)


def _bucketed_merge(partials: "ray.data.Dataset", keys: list[str],
                    final_fn, num_buckets: int = 64) -> "ray.data.Dataset":
    """Final merge of per-block partials over a FAT bucket shuffle (one
    group per window key would be window-count-many tiny groups)."""
    return exchange(partials, _by(keys, num_buckets), final_fn)


def tumbling_window_agg(
    ds: "ray.data.Dataset",
    ts_col: str,
    value_col: str,
    width_seconds: int,
    group_cols: list[str] | None = None,
) -> "ray.data.Dataset":
    """Fixed (tumbling) windows of ``width_seconds``: one output row per
    (group, window_start) with n / sum / min / max / mean over the value.

    Combiner shape: each block pre-aggregates its rows into per-window
    partials (n, sum, min, max) — only window-count-bound partial rows enter
    the final ``groupby`` shuffle, never the events."""
    group_cols = group_cols or []
    width_us = width_seconds * 1_000_000
    keys = group_cols + ["window_start_us"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        us = ((df[ts_col] - pd.Timestamp(0)) //
              pd.Timedelta(microseconds=1)).astype("int64")
        df["window_start_us"] = (us // width_us) * width_us
        g = df.groupby(keys, as_index=False).agg(
            n=(value_col, "size"), sum_v=(value_col, "sum"),
            min_v=(value_col, "min"), max_v=(value_col, "max"))
        return g

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(keys, as_index=False).agg(
            n=("n", "sum"), sum_v=("sum_v", "sum"),
            min_v=("min_v", "min"), max_v=("max_v", "max"))
        out["n"] = out["n"].astype("int64")
        out["mean_v"] = out["sum_v"] / out["n"]
        return out

    return _bucketed_merge(
        ds.map_batches(partial, batch_format="pandas"), keys, final)


def hopping_window_agg(
    ds: "ray.data.Dataset",
    ts_col: str,
    value_col: str,
    width_seconds: int,
    hop_seconds: int,
    group_cols: list[str] | None = None,
) -> "ray.data.Dataset":
    """Hopping (sliding) windows: width W, advancing by hop H (W must be a
    multiple of H).  Each event lands in W/H windows — the per-block fan-out
    replicates only the (window_start, value) pair, then the tumbling
    combiner shape applies."""
    assert width_seconds % hop_seconds == 0, "width must be a multiple of hop"
    k = width_seconds // hop_seconds
    hop_us = hop_seconds * 1_000_000
    group_cols = group_cols or []
    keys = group_cols + ["window_start_us"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = ((df[ts_col] - pd.Timedelta(0) - pd.Timestamp(0)) //
              pd.Timedelta(microseconds=1)).astype("int64").to_numpy()
        base = (us // hop_us) * hop_us
        frames = []
        for i in range(k):
            f = pd.DataFrame({
                "window_start_us": base - i * hop_us,
                value_col: df[value_col].to_numpy(),
            })
            for c in group_cols:
                f[c] = df[c].to_numpy()
            frames.append(f)
        allf = pd.concat(frames, ignore_index=True)
        return allf.groupby(keys, as_index=False).agg(
            n=(value_col, "size"), sum_v=(value_col, "sum"),
            min_v=(value_col, "min"), max_v=(value_col, "max"))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(keys, as_index=False).agg(
            n=("n", "sum"), sum_v=("sum_v", "sum"),
            min_v=("min_v", "min"), max_v=("max_v", "max"))
        out["n"] = out["n"].astype("int64")
        return out

    return _bucketed_merge(
        ds.map_batches(partial, batch_format="pandas"), keys, final)


def sessionize(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    gap_seconds: float = 1800.0,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Session windows per key: a new session starts when the gap to the
    previous event exceeds ``gap_seconds``.  Emits one row per session:
    (key, session_id (1-based per key in time order), session_start_epoch,
    n_events).

    Fully vectorized inside each fat bucket: one sort by (key, ts), one
    break vector (gap OR key change), one cumsum, one grouped aggregate."""

    gap_us = int(gap_seconds * 1_000_000)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col], kind="mergesort")
        us = (
            (g[ts_col] - pd.Timestamp(0)) // pd.Timedelta(microseconds=1)
        ).astype("int64").to_numpy()
        k = g[key].to_numpy()
        brk = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            brk[1:] = ((us[1:] - us[:-1] > gap_us) | (k[1:] != k[:-1])
                       ).astype(np.int64)
        gid = np.cumsum(brk)
        tmp = pd.DataFrame({key: k, "_gid": gid, "us": us})
        agg = tmp.groupby("_gid", as_index=False).agg(
            **{key: (key, "first")},
            session_start_us=("us", "min"), n_events=("us", "size"))
        agg["session_id"] = (agg.groupby(key).cumcount() + 1).astype("int64")
        agg["n_events"] = agg["n_events"].astype("int64")
        return agg[[key, "session_id", "session_start_us", "n_events"]]

    return exchange(ds, _by([key], num_buckets), per_bucket)


def lag_delta(
    ds: "ray.data.Dataset",
    key: str,
    ts_col: str,
    id_col: str,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Per-key LAG delta: for every event, microseconds since the same
    key's previous event (first event per key → -1).  One output row per
    input event: (key, id_col, ts_us, delta_us).

    Same fat-bucket shape as :func:`sessionize`: ``hash(key) %
    num_buckets`` is the only shuffle key; inside a bucket one mergesort +
    one vectorized diff computes every key's lags at once (key-change
    boundaries masked) — never one group per key.  Ties on the timestamp
    break by ``id_col`` so the lag order is total and oracle-comparable."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, id_col], kind="mergesort")
        us = (
            (g[ts_col] - pd.Timestamp(0)) // pd.Timedelta(microseconds=1)
        ).astype("int64").to_numpy()
        k = g[key].to_numpy()
        delta = np.full(len(g), -1, dtype=np.int64)
        if len(g) > 1:
            delta[1:] = np.where(k[1:] == k[:-1], us[1:] - us[:-1], -1)
        return pd.DataFrame({
            key: k,
            id_col: g[id_col].to_numpy(),
            "ts_us": us,
            "delta_us": delta,
        })

    return exchange(ds, _by([key], num_buckets), per_bucket)
