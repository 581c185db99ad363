"""Sketch operators for corpus-scale aggregation: HyperLogLog distinct
counting (Flajolet et al. '07, with the small-range linear-counting
correction).

Shape: each batch folds its values into one 2^p-byte register array
(``map_batches`` emitting ONE packed row per block); register arrays merge
associatively by elementwise max, so the driver-side merge is O(blocks ×
16 KB) regardless of cardinality — the exact-distinct ``groupby`` this
replaces is an all-to-all shuffle of every distinct value.

Exchanges: one ``io.exchange`` site, the candidate merge of
:func:`heavy_hitters`; every other sketch merges on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..io import exchange, hash_bucket

_HASH_KEY = "spidey-hll-00000"  # fixed: deterministic across workers


def _hll_hash(values: pd.Series) -> np.ndarray:
    h = pd.util.hash_pandas_object(values, index=False, hash_key=_HASH_KEY,
                                   categorize=False)
    return h.to_numpy(dtype=np.uint64)


def hll_partial_batch(batch: pa.Table, col: str, p: int = 14) -> pa.Table:
    """One packed register row per block: registers[j] = max rank of the
    hashes landing in bucket j (rank = leading-zeros-of-suffix + 1)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(batch):
        h = _hll_hash(batch.select([col]).to_pandas()[col])
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h << np.uint64(p)          # suffix shifted to the top
        # rank: position of the first 1-bit in w (1-based), 64-p+1 if w==0
        rank = np.zeros(len(h), dtype=np.uint8)
        nz = w != 0
        # count leading zeros via float trick is lossy; do it in integer steps
        ww = w[nz]
        lz = np.full(len(ww), 0, dtype=np.uint8)
        for shift in (32, 16, 8, 4, 2, 1):
            mask = ww < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            ww = np.where(mask, ww << np.uint64(shift), ww)
        rank[nz] = lz + 1
        rank[~nz] = 64 - p + 1
        np.maximum.at(regs, idx, rank)
    return pa.table({
        "p": pa.array([p], type=pa.int32()),
        "registers": pa.array([regs.tolist()], type=pa.list_(pa.uint8())),
    })


def merge_registers(parts: list[np.ndarray]) -> np.ndarray:
    out = parts[0].copy()
    for r in parts[1:]:
        np.maximum(out, r, out=out)
    return out


def hll_estimate(regs: np.ndarray, p: int) -> float:
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)        # linear counting, small range
    return float(est)


def exact_quantiles(ds: "ray.data.Dataset", value_col: str,
                    qs: list[float], tiebreak_cols: list[str] | None = None,
                    ) -> list[tuple[float, float]]:
    """EXACT order statistics at corpus scale: one distributed sort, then
    each requested rank k = floor(q·(n−1)) is located by a prefix sum over
    the sorted blocks' row counts and fetched by a targeted task that
    slices ONE row from ONE block — nothing but the k results reach the
    driver.  (The same sorted-block-offset machinery as the indexer's
    doc-number assignment.)"""
    import ray

    tiebreak_cols = tiebreak_cols or []
    n = ds.count()
    if n == 0:
        return []
    wanted = {q: min(n - 1, int(q * (n - 1))) for q in qs}
    mat = ds.sort([value_col] + tiebreak_cols).materialize()

    @ray.remote
    def _pick(block, local_idx: int):
        if hasattr(block, "iloc"):               # pandas block
            return float(block.iloc[local_idx][value_col])
        return float(block[value_col][local_idx].as_py())

    refs, off = {}, 0
    blocks = [
        (block_ref, meta.num_rows)
        for b in mat.iter_internal_ref_bundles()
        for block_ref, meta in zip(b.block_refs, b.metadata)
    ]
    for block_ref, rows in blocks:
        for q, k in wanted.items():
            if off <= k < off + rows:
                refs[q] = _pick.remote(block_ref, k - off)
        off += rows
    return sorted((q, ray.get(r)) for q, r in refs.items())


def approx_distinct(ds: "ray.data.Dataset", col: str, p: int = 14) -> int:
    """Approximate COUNT(DISTINCT col): ±~0.8% at p=14 (16 KB state)."""
    parts = ds.map_batches(
        hll_partial_batch, fn_kwargs={"col": col, "p": p},
        batch_format="pyarrow",
    ).to_pandas()
    if not len(parts):
        return 0
    regs = merge_registers(
        [np.asarray(r, dtype=np.uint8) for r in parts["registers"]])
    return round(hll_estimate(regs, p))


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters: mergeable frequent-items summaries
# ---------------------------------------------------------------------------
# Misra & Gries '82; mergeability per Agarwal et al., "Mergeable
# Summaries" (PODS'12): an MG summary of size k admits merge-by-sum
# followed by subtracting the (k+1)-th largest counter, preserving the
# undercount bound Σ subs ≤ N/(k+1).  Scale shape: each block emits at
# most k summary rows (bounded regardless of vocabulary — the property
# exact token counting lacks), candidates merge in ONE fat-bucket
# exchange of ≤ blocks·k tiny rows, and only items that can possibly
# clear the requested frequency threshold reach the driver.


def mg_summary_from_counts(vc: pd.Series, k: int = 256) -> pa.Table:
    """EXACT per-block counts (``value_counts``-shaped, sorted desc) →
    Misra-Gries summary: the top k with the (k+1)-th count subtracted
    (the MG decrement applied in one shot).  Emits (item, est) rows plus
    block_n / block_sub carried on the first row only — their global
    sums give N and the exact total undercount bound E ≤ N/(k+1).
    Exposed so pipelines can FUSE counting into their own batch fn (e.g.
    tokenize-and-count) instead of exploding values to rows first."""
    if not len(vc):
        return pa.table({
            "item": pa.array([], type=pa.string()),
            "est": pa.array([], type=pa.int64()),
            "block_n": pa.array([], type=pa.int64()),
            "block_sub": pa.array([], type=pa.int64()),
        })
    n = int(vc.sum())
    sub = 0
    if len(vc) > k:
        sub = int(vc.iloc[k])
        vc = vc.iloc[:k] - sub
        vc = vc[vc > 0]
    aux_n = np.zeros(len(vc), dtype=np.int64)
    aux_sub = aux_n.copy()
    aux_n[0], aux_sub[0] = n, sub
    return pa.table({
        "item": pa.array(vc.index.to_numpy(dtype=object), type=pa.string()),
        "est": pa.array(vc.to_numpy(np.int64)),
        "block_n": pa.array(aux_n),
        "block_sub": pa.array(aux_sub),
    })


def mg_partial_batch(batch: pa.Table, col: str, k: int = 256) -> pa.Table:
    """Per-block Misra-Gries summary over a value column."""
    if not len(batch):
        return mg_summary_from_counts(pd.Series([], dtype=object), k)
    return mg_summary_from_counts(
        batch.select([col]).to_pandas()[col].astype(str).value_counts(), k)


def heavy_hitters(ds: "ray.data.Dataset", col: str = "item", k: int = 256,
                  threshold_frac: float | None = None,
                  num_buckets: int = 64, *,
                  partials: "ray.data.Dataset | None" = None) -> pd.DataFrame:
    """Approximate frequent items of ``col``: returns (item, est, err)
    sorted by est desc, where the TRUE count lies in [est, est + err]
    and err = Σ per-block subtractions ≤ N/(k+1).  Every item with true
    frequency > threshold_frac·N is guaranteed present when
    ``threshold_frac`` > 1/(k+1) (est ≥ φN − E is kept).  With
    ``threshold_frac=None`` all surviving candidates are returned.
    Pass ``partials`` (rows from ``mg_summary_from_counts``) to fuse the
    counting into an upstream batch fn and skip the value explode."""
    parts = partials if partials is not None else ds.map_batches(
        mg_partial_batch, fn_kwargs={"col": col, "k": k},
        batch_format="pyarrow",
    )
    parts = parts.materialize()      # summary rows only: ≤ k per block
    n_total = int(parts.sum("block_n") or 0)
    err = int(parts.sum("block_sub") or 0)
    if n_total == 0:
        return pd.DataFrame({"item": [], "est": [], "err": []})
    keep_min = 1
    if threshold_frac is not None:
        keep_min = max(1, int(np.ceil(threshold_frac * n_total)) - err)

    def merge_bucket(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("item", sort=False)["est"].sum().reset_index()
        out = out[out["est"] >= keep_min]
        # explicit Arrow types: an empty pandas object column would make
        # Ray's block-size estimator warn (np.vectorize on size 0) and
        # unify as null-type
        return pa.table({
            "item": pa.array(out["item"].to_numpy(dtype=object),
                             type=pa.string()),
            "est": pa.array(out["est"].to_numpy(), type=pa.int64()),
        })

    cand = exchange(
        parts, lambda t: hash_bucket(t["item"], num_buckets, _HASH_KEY),
        merge_bucket,
    ).to_pandas()                    # ≤ N/keep_min candidates — small
    cand["err"] = err
    return (cand.sort_values(["est", "item"], ascending=[False, True])
            .reset_index(drop=True))


# ---------------------------------------------------------------------------
# t-digest: mergeable approximate quantiles
# ---------------------------------------------------------------------------
# Dunning & Ertl, "Computing Extremely Accurate Quantiles Using t-Digests"
# (2019 preprint / original 2013 paper) — the merging-digest variant with
# the k1 scale bound (per-centroid weight ≤ 4·W·q·(1−q)/δ), which keeps
# tail quantiles tight while the center compresses.  Exact quantiles need
# a full corpus sort; the digest is one small mergeable row per block.


class TDigest:
    """Fixed-δ merging t-digest over float64 values (means/weights arrays,
    centroids kept sorted by mean)."""

    def __init__(self, delta: int = 200,
                 means: np.ndarray | None = None,
                 weights: np.ndarray | None = None):
        self.delta = delta
        self.means = (means if means is not None
                      else np.empty(0, dtype=np.float64))
        self.weights = (weights if weights is not None
                        else np.empty(0, dtype=np.float64))

    @classmethod
    def of(cls, values: np.ndarray, delta: int = 200) -> "TDigest":
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        d = cls(delta, np.sort(values), np.ones(len(values)))
        d._compress()
        return d

    def merge(self, other: "TDigest") -> "TDigest":
        means = np.concatenate([self.means, other.means])
        weights = np.concatenate([self.weights, other.weights])
        order = np.argsort(means, kind="mergesort")
        out = TDigest(self.delta, means[order], weights[order])
        out._compress()
        return out

    def _compress(self) -> None:
        n = len(self.means)
        if n == 0:
            return
        W = float(self.weights.sum())
        out_m: list[float] = []
        out_w: list[float] = []
        cur_m, cur_w = self.means[0], self.weights[0]
        acc = 0.0                        # weight fully to the left of cur
        for i in range(1, n):
            w = self.weights[i]
            q = (acc + cur_w / 2.0) / W  # centroid's quantile midpoint
            cap = max(1.0, 4.0 * W * q * (1.0 - q) / self.delta)
            if cur_w + w <= cap:
                cur_m += (self.means[i] - cur_m) * (w / (cur_w + w))
                cur_w += w
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                acc += cur_w
                cur_m, cur_w = self.means[i], w
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.asarray(out_m)
        self.weights = np.asarray(out_w)

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        W = float(self.weights.sum())
        target = q * W
        # cumulative weight at centroid midpoints; linear interpolation
        cum = np.cumsum(self.weights) - self.weights / 2.0
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        j = int(np.searchsorted(cum, target) - 1)
        frac = (target - cum[j]) / (cum[j + 1] - cum[j])
        return float(self.means[j] + frac * (self.means[j + 1] - self.means[j]))

    # -- serialization (one packed row per block) --------------------------
    def to_row(self) -> dict:
        return {"delta": self.delta,
                "means": self.means.tolist(),
                "weights": self.weights.tolist()}

    @classmethod
    def from_row(cls, row) -> "TDigest":
        return cls(int(row["delta"]),
                   np.asarray(row["means"], dtype=np.float64),
                   np.asarray(row["weights"], dtype=np.float64))


def approx_quantiles(ds: "ray.data.Dataset", value_col: str,
                     qs: list[float], delta: int = 200) -> list[tuple[float, float]]:
    """Mergeable-sketch quantiles: one t-digest row per block, driver
    merges O(blocks × δ) centroids — no corpus sort, no shuffle (contrast
    :func:`exact_quantiles`, which pays one full sort)."""

    def partial(batch: pa.Table) -> pa.Table:
        d = TDigest.of(
            np.asarray(batch[value_col].to_pylist(), dtype=np.float64),
            delta)
        r = d.to_row()
        return pa.table({
            "delta": pa.array([r["delta"]], type=pa.int32()),
            "means": pa.array([r["means"]], type=pa.list_(pa.float64())),
            "weights": pa.array([r["weights"]], type=pa.list_(pa.float64())),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    digest = TDigest(delta)
    for _, row in parts.iterrows():
        digest = digest.merge(TDigest.from_row(row))
    return [(q, digest.quantile(q)) for q in qs]
