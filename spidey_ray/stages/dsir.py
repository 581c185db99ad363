"""DSIR-style data selection: hashed n-gram importance weights.

The shape of Xie et al., "Data Selection for Language Models via
Importance Resampling" (NeurIPS'23): featurize every document as a bag
of unigrams + bigrams hashed into ``NUM_BUCKETS`` buckets, fit two
bag-of-hashed-ngram categorical models — one on a small *target*
(trusted / in-domain) slice, one on the *raw* pool — and weight each raw
document by its log importance ratio under the two models.  Selection
(top-k or Gumbel resampling) is then a trivial filter on the weight.

Scale shape, Ray-Data-first:

- counts are per-batch ``np.bincount`` partials (≤ ``NUM_BUCKETS``
  nonzero rows, not per-gram rows), summed into an int64 array on the
  driver as each block's partial arrives (``io.block_partials``) → the
  driver holds exactly two 4096-entry arrays, never corpus-sized state;
- the per-bucket log-ratio table is computed ONCE, broadcast via
  ``ray.put``, and scoring is a pure map over the corpus.

Exactness contract (same trick as ``stages/lm.py``): the per-bucket
log-ratio is rounded to INTEGER micro-log10 units first, and a document
weight is the int64 sum of its occurrences' micros — invariant to float
summation order and byte-comparable with a DuckDB oracle that mirrors
the arithmetic (identical literals and op order; the bucket function is
``md5(gram)[:3]``, which any engine reproduces).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..io import block_partials
from .textstats import tokens_of

NUM_BUCKETS = 4096          # md5 first 3 hex chars
ALPHA = 0.5                 # add-α smoothing, literal mirrored in SQL


def _grams(toks: list[str]):
    yield from toks
    for i in range(len(toks) - 1):
        yield toks[i] + " " + toks[i + 1]


def gram_bucket_stream(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Flat md5-bucket stream of every doc's uni+bigrams, block-level.

    Returns ``(buckets int64[G], lens int64[len(texts)])`` where doc i's
    grams occupy the contiguous slice of length ``lens[i]`` (0 for
    token-less docs) in ``_grams`` order.  The per-gram Python of a
    doc-at-a-time loop (dict probe + generator step per gram) is the
    hottest cost of the hashed-ngram stages, so this does ONE
    ``pd.factorize`` C-hash pass over the batch's gram stream, one md5
    per DISTINCT gram (grams repeat heavily across a corpus), then a
    pure gather.  The bucket of a gram is, definitionally,
    ``int(md5(gram)[:3], 16)`` — the expression the SQL oracles mirror."""
    import pandas as pd

    grams: list = []
    lens = np.zeros(len(texts), dtype=np.int64)
    for i, txt in enumerate(texts):
        toks = tokens_of(txt or "")
        if not toks:
            continue
        grams.extend(toks)
        grams.extend(map(" ".join, zip(toks, toks[1:])))
        lens[i] = 2 * len(toks) - 1
    if not grams:
        return np.empty(0, dtype=np.int64), lens
    codes, uniq = pd.factorize(np.asarray(grams, dtype=object), sort=False)
    lut = np.fromiter(
        (int(hashlib.md5(u.encode("utf-8")).hexdigest()[:3], 16)
         for u in uniq), dtype=np.int64, count=len(uniq))
    return lut[codes], lens


def hashed_ngram_bucket_counts(ds: "ray.data.Dataset",
                               text_col: str = "text") -> np.ndarray:
    """int64[NUM_BUCKETS] occurrence counts of hashed uni+bigrams."""

    def emit(batch: pa.Table) -> pa.Table:
        buckets, _ = gram_bucket_stream(batch[text_col].to_pylist())
        counts = np.bincount(buckets, minlength=NUM_BUCKETS)
        nz = np.flatnonzero(counts)
        return pa.table({
            "bucket": pa.array(nz.astype(np.int32)),
            "n": pa.array(counts[nz]),
        })

    # bounded key space (≤ NUM_BUCKETS rows per block partial): summed on
    # the driver as ``io.block_partials`` hands each one over — no
    # sort-based all-to-all; driver memory stays O(NUM_BUCKETS)
    out = np.zeros(NUM_BUCKETS, dtype=np.int64)
    for part in block_partials(ds, emit):
        np.add.at(out, part["bucket"].to_numpy().astype(np.int64),
                  part["n"].to_numpy())
    return out


def bucket_log_ratio_micro(target_counts: np.ndarray,
                           raw_counts: np.ndarray) -> np.ndarray:
    """Per-bucket floor(log10(p_target/p_raw)·1e6 + 0.5) as int64.

    p_x[b] = (c_x[b] + ALPHA) / (T_x + ALPHA·NUM_BUCKETS); the division
    cascade is ((ct+α)/dt) / ((cr+α)/dr) — the SQL oracle repeats this
    exact expression so both sides round the identical double.
    """
    dt = float(target_counts.sum()) + ALPHA * NUM_BUCKETS
    dr = float(raw_counts.sum()) + ALPHA * NUM_BUCKETS
    ratio = ((target_counts + ALPHA) / dt) / ((raw_counts + ALPHA) / dr)
    return np.floor(np.log10(ratio) * 1e6 + 0.5).astype(np.int64)


def dsir_weights(raw_ds: "ray.data.Dataset",
                 target_ds: "ray.data.Dataset",
                 text_col: str = "text",
                 id_col: str = "doc_id") -> "ray.data.Dataset":
    """(doc_id, n_grams, dsir_weight_micro) for every raw doc with ≥ 1
    token.  Positive weights ≈ looks like the target distribution."""
    micro = bucket_log_ratio_micro(
        hashed_ngram_bucket_counts(target_ds, text_col=text_col),
        hashed_ngram_bucket_counts(raw_ds, text_col=text_col))
    micro_ref = ray.put(micro)

    def score(batch: pa.Table) -> pa.Table:
        m = ray.get(micro_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        buckets, lens = gram_bucket_stream(batch[text_col].to_pylist())
        kept = lens > 0
        ws = np.zeros(len(ids), dtype=np.int64)
        if buckets.size:
            seg = lens[kept]
            starts = np.concatenate(([0], np.cumsum(seg)[:-1]))
            ws[kept] = np.add.reduceat(m[buckets], starts)
        return pa.table({
            id_col: pa.array(ids[kept], type=pa.int64()),
            "n_grams": pa.array(lens[kept], type=pa.int64()),
            "dsir_weight_micro": pa.array(ws[kept], type=pa.int64()),
        })

    return raw_ds.map_batches(score, batch_format="pyarrow")
