"""Deterministic sampling operators for training-data curation.

Random samplers (``ds.random_sample``) change with block layout, seed
plumbing and cluster size; curation pipelines want CONTENT-DETERMINISTIC
sampling — the same document is always in or out, on any cluster, so
reruns and incremental refreshes agree.  Both operators rank rows by
``md5(str(id))`` (first 8 hex chars), a rank any engine can reproduce
(the SQL oracles compute the identical hex strings in DuckDB):

- :func:`hash_sample`: Bernoulli keep-iff-rank-below-threshold, optionally
  stratified (per-key fractions — the per-language / per-source quota
  step of an LLM data mix).
- :func:`cap_per_key`: keep at most ``cap`` rows per key, smallest
  (rank, id) first — the "max N docs per domain" rule. Fat-bucketed on
  ``hash(key) % num_buckets`` (one group per key would be the raw-key
  groupby slow path at corpus scale).

Exchanges: two ``io.exchange`` sites, :func:`cap_per_key` and
:func:`shuffle_to_shards`; the samplers themselves run none.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..io import block_partials, exchange, hash_bucket


def _md5_rank(vals, prefix: str = "") -> np.ndarray:
    """``int(md5(prefix + str(v)).hexdigest()[:8], 16)`` per value, as
    uint64: the first 4 digest bytes, big-endian."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(f"{prefix}{v}".encode("utf-8"))
                        .digest()[:4], "big") for v in vals),
        dtype=np.uint64, count=len(vals))


def _thresh(fraction: float) -> int:
    """fraction → integer rank threshold; rank < threshold keeps
    ~fraction of rows (uniform md5 rank), and 2³² keeps every row."""
    return min(int(fraction * 0x1_0000_0000), 0x1_0000_0000)


def hash_sample(ds: "ray.data.Dataset", id_col: str,
                fraction: float | None = None,
                key_col: str | None = None,
                fraction_by_key: dict | None = None,
                default_fraction: float = 0.0) -> "ray.data.Dataset":
    """Content-deterministic Bernoulli sample: keep a row iff
    ``md5(str(id))[:8] < hex(fraction·2³²)``.  With ``key_col`` +
    ``fraction_by_key``, each stratum gets its own threshold
    (``default_fraction`` for unlisted keys).  No shuffle — one
    vectorizable filter per batch."""
    if fraction is not None and fraction >= 1.0:
        return ds
    thr = _thresh(fraction) if fraction is not None else None
    thr_by_key = {k: _thresh(v) for k, v in (fraction_by_key or {}).items()}
    thr_default = _thresh(default_fraction)

    def keep(t: pa.Table) -> pa.Table:
        ranks = _md5_rank(t[id_col].to_pylist())
        if thr is None:
            keys = t[key_col].to_pylist()
            limit = np.fromiter((thr_by_key.get(k, thr_default)
                                 for k in keys),
                                dtype=np.uint64, count=len(keys))
        else:
            limit = np.uint64(thr)
        return t.filter(pa.array(ranks < limit))

    return ds.map_batches(keep, batch_format="pyarrow")


def mix_to_proportions(ds: "ray.data.Dataset", key_col: str, id_col: str,
                       shares: dict) -> "ray.data.Dataset":
    """Downsample each group so the OUTPUT matches target proportions —
    the data-mixing step of an LLM training recipe (the Pile / FineWeb
    style "x% of tokens from source A" rebalancing), without upsampling:
    the largest achievable output is picked by the binding group.

    Two passes, both cheap: (1) per-key counts via per-batch partials of
    at most ``len(shares)`` rows (rows whose key is not in ``shares`` are
    dropped), summed into one counter per *named* group on the driver as
    ``io.block_partials`` hands them over — no exchange, and never a
    counter per domain; (2) a content-deterministic :func:`hash_sample`
    with per-key fractions.  Derivation, mirrored literally by the SQL
    oracle (same op order, so the IEEE doubles — and hence the md5-rank
    thresholds — agree bit-for-bit):

    - ``n_out = min over groups(count_g / share_g)`` (groups present);
    - ``rate_g = share_g * n_out / count_g`` (≥1 → keep the whole group).
    """
    keys = list(shares)

    def partial(t: pa.Table) -> pa.Table:
        vc = pd.Series(t[key_col].to_pylist()).value_counts()
        vc = vc[vc.index.isin(keys)]
        return pa.table({
            "key": pa.array(vc.index.astype(str), type=pa.string()),
            "n": pa.array(vc.values, type=pa.int64()),
        })

    counts: dict[str, int] = {}
    for part in block_partials(ds.select_columns([key_col]), partial):
        for k, n in zip(part["key"].to_pylist(), part["n"].to_pylist()):
            counts[k] = counts.get(k, 0) + n
    present = [k for k in keys if counts.get(k) and shares[k] > 0]
    if not present:
        return hash_sample(ds, id_col, key_col=key_col,
                           fraction_by_key={}, default_fraction=0.0)
    n_out = min(int(counts[k]) / shares[k] for k in present)
    frac = {k: shares[k] * n_out / int(counts[k]) for k in present}
    return hash_sample(ds, id_col, key_col=key_col,
                       fraction_by_key=frac, default_fraction=0.0)


def cap_per_key(ds: "ray.data.Dataset", key_col: str, id_col: str,
                cap: int, num_buckets: int = 256) -> "ray.data.Dataset":
    """Keep at most ``cap`` rows per key — deterministic winners: smallest
    (md5-rank, id) per key.  Keys are folded into ``num_buckets`` fat
    shuffle groups; inside a bucket one sort + cumcount takes the head of
    every key at C speed."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_rank=_md5_rank(g[id_col].tolist())).sort_values(
            [key_col, "_rank", id_col], kind="mergesort")
        pos = g.groupby(key_col, sort=False).cumcount()
        return g[pos < cap].drop(columns=["_rank"])

    return exchange(
        ds, lambda t: hash_bucket(t[key_col], num_buckets, "spidey-capkey-00"),
        per_bucket)


def shuffle_to_shards(ds: "ray.data.Dataset", id_col: str,
                      n_shards: int, seed: str = "42"
                      ) -> "ray.data.Dataset":
    """Content-deterministic global shuffle + shard assignment — the
    training-data EXPORT step (shuffle the curated corpus, write N
    shards): ``rank = md5(f"{seed}:{id}")[:8]``,
    ``shard_id = int(rank, 16) % n_shards``, within-shard order
    ``shard_pos`` by ``(rank, id)``.  The same row lands in the same
    shard at the same position on ANY cluster size or block layout —
    reruns and resumed exports agree — and a different ``seed`` is a
    fresh permutation.  (``ds.random_shuffle`` gives none of that: its
    order changes with seed plumbing, block layout and cluster size.)

    One exchange over exactly ``n_shards`` groups; md5 uniformity makes
    the groups even-sized, which IS the export partitioning (at scale,
    follow with ``write_parquet(partition_cols=["shard_id"])`` so a
    failed export skips finished shards).  Output carries every input
    column plus (shard_id, shard_pos)."""

    def shard_of(t: pa.Table) -> np.ndarray:
        return (_md5_rank(t[id_col].to_pylist(), f"{seed}:")
                % np.uint64(n_shards)).astype(np.int32)

    def order(g: pd.DataFrame) -> pd.DataFrame:
        rank = _md5_rank(g[id_col].tolist(), f"{seed}:")
        g = g.assign(_rank=rank, shard_id=(rank % np.uint64(n_shards))
                     .astype(np.int64)).sort_values(
            ["_rank", id_col], kind="mergesort").drop(columns=["_rank"])
        g["shard_pos"] = np.arange(len(g), dtype=np.int64)
        return g

    return exchange(ds, shard_of, order)
