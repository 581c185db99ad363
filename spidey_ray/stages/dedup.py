"""Deduplication operators for training-data pipelines (SURVEY.md §2.7 +
the large-scale extensions): exact, MinHash+LSH, SimHash-banded, n-gram
Jaccard, embedding-cosine near-dup.

All follow the same scale shape: a vectorized signature stage
(``map_batches``), a bucket ``groupby`` that only ever co-locates CANDIDATE
rows (never all-pairs over the corpus), pair verification inside the group,
and a final min-label resolution.  Broadcast joins are used for the
survivor filter.  Public algorithm references: Broder '97 (minhash),
Indyk-Gionis-Motwani '99 (LSH banding), Charikar '02 (simhash),
Schleimer '03 (winnowing).

Exchanges: seven ``io.exchange`` sites, one each in ``exact_dedup``,
``line_dedup``, ``duplicate_gram_hits``, ``duplicate_spans``,
``strip_duplicate_spans`` (scale branch), ``banded_pairs`` and
``dedup_pairs``; ``minhash_dedup`` runs the last two, and its hash joins,
when pairs verify at scale.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..io import exchange, hash_bucket

from ..functions.simhash import (hamming_popcount, simhash64,
                                 simhash64_block, token_hash64,
                                 token_hash64_cached)
from .textstats import tokens_of

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def content_hash_batch(batch: pa.Table, text_col: str = "text",
                       num_buckets: int | None = None) -> pa.Table:
    """md5 content hash per row; with ``num_buckets`` also a ``_bucket``
    column (the hash's first 16 bits mod buckets — computed here, in the
    same pass, rather than re-parsing hex in a second Python loop)."""
    hs, bs = [], []
    for t in batch[text_col].to_pylist():
        d = hashlib.md5(t.encode("utf-8")).digest()
        hs.append(d.hex())
        if num_buckets is not None:
            bs.append(int.from_bytes(d[:2], "big") % num_buckets)
    out = batch.append_column("content_hash", pa.array(hs, type=pa.string()))
    if num_buckets is not None:
        out = out.append_column("_bucket", pa.array(bs, type=pa.int32()))
    return out


def exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                id_col: str = "doc_id", num_buckets: int = 256) -> "ray.data.Dataset":
    """Hash-partition by content hash, keep min(id) per hash (the
    distributed form of Filter.py:49-51's first-wins set).

    Scale shape: grouping on the raw content_hash makes one group per
    DISTINCT document — at corpus scale that is millions of near-singleton
    groups, the slow path of a sort-based shuffle.  Instead the hash is
    folded into ``num_buckets`` fat buckets (one shuffle key), and min-id
    per hash is a vectorized idxmin inside each bucket."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.loc[g.groupby("content_hash")[id_col].idxmin()]

    return exchange(
        ds.map_batches(content_hash_batch,
                       fn_kwargs={"text_col": text_col,
                                  "num_buckets": num_buckets},
                       batch_format="pyarrow"),
        "_bucket", per_bucket)


def line_dedup(ds: "ray.data.Dataset", text_col: str = "text",
               id_col: str = "doc_id", sep: str = "\n",
               num_buckets: int = 256) -> "ray.data.Dataset":
    """CCNet-style line-level exact dedup: across the WHOLE corpus, each
    distinct line survives only at its first occurrence (min (doc_id,
    line_idx)); every later occurrence is dropped.  Output rows:
    (doc_id, line_idx, line) of the surviving lines.

    Scale shape: docs explode to line rows in the map stage, then ONE
    hash-partitioned exchange on ``hash(line) % num_buckets`` fat buckets;
    first-occurrence per line is a vectorized idxmin on the exact line
    string inside each bucket (bucketing is by hash, the tie-break is by
    value — hash collisions cannot merge distinct lines).  The line text
    rides the shuffle once, which is what emitting surviving text costs
    anyway (the hash-only variant would need a second join-back exchange
    of the same text).  No driver state, no join."""

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        parts = _pc.split_pattern(
            batch[text_col].combine_chunks(), pattern=sep)
        flat = _pc.list_flatten(parts)
        parent = _pc.list_parent_indices(parts)
        lens = _pc.list_value_length(parts).to_numpy().astype(np.int64)
        # per-list 0..n ordinals without a Python loop
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        idxs = np.arange(int(lens.sum()), dtype=np.int64) - starts
        return pa.table({
            id_col: _pc.take(batch[id_col], parent),
            "line_idx": pa.array(idxs),
            "line": flat,
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        order = g.sort_values([id_col, "line_idx"], kind="mergesort")
        return order.drop_duplicates("line", keep="first")

    return exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        lambda t: hash_bucket(t["line"], num_buckets, "spidey-line-0000"),
        per_bucket)


# ---------------------------------------------------------------------------
# substring-level exact dedup (ExactSubstr)
# ---------------------------------------------------------------------------
#
# Lee et al., "Deduplicating Training Data Makes Language Models Better"
# (ACL'22) define span-level exact dedup: any run of >= k consecutive
# tokens that occurs more than once in the corpus is a duplicated span.
# Their tool builds a corpus-wide suffix array; that structure is global
# and does not shard.  The Ray-native equivalence used here: a position
# is covered by a duplicated span of length >= k  IFF  some k-gram
# window containing it occurs >= 2 times in the corpus, so the union of
# duplicated-k-gram extents [pos, pos+k) equals the union of all
# maximal duplicated spans.  That turns the problem into the same
# fat-bucket exchange shape as ``line_dedup``.


def _gram_fingerprints(toks: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit polynomial rolls over the token-hash stream
    → a 128-bit fingerprint per k-gram window (positions 0..n-k).  Docs
    with < k tokens yield no grams (they cannot contain a >=k span)."""
    n = len(toks) - k + 1
    if n <= 0:
        e = np.empty(0, dtype=np.uint64)
        return e, e
    h = np.fromiter((token_hash64_cached(t) for t in toks),
                    dtype=np.uint64, count=len(toks))
    with np.errstate(over="ignore"):
        a1 = h[0:n].copy()
        a2 = (h[0:n] ^ np.uint64(0xA5A5A5A5A5A5A5A5)).copy()
        for i in range(1, k):
            a1 = a1 * np.uint64(0x9E3779B97F4A7C15) + h[i:n + i]
            a2 = a2 * np.uint64(0xC2B2AE3D27D4EB4F) + h[i:n + i]
    return _mix64(a1), _mix64(a2)


def duplicate_gram_hits(ds: "ray.data.Dataset", k: int = 8,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_buckets: int = 256) -> "ray.data.Dataset":
    """(doc_id, pos) of every k-token window whose 128-bit fingerprint
    occurs >= 2 times corpus-wide (incl. within one doc).  One exchange:
    grams ride the shuffle as 16-byte fingerprints (not k-token strings);
    duplicate detection is a vectorized group-size filter per fat bucket.
    Exact up to 128-bit fingerprint collisions (~n²/2¹²⁸ — negligible at
    any feasible corpus size; the suffix-array original is what you build
    when even that is unacceptable)."""

    def emit(batch: pa.Table) -> pa.Table:
        ids, poss, h1s, h2s = [], [], [], []
        for did, txt in zip(batch[id_col].to_pylist(),
                            batch[text_col].to_pylist()):
            f1, f2 = _gram_fingerprints(tokens_of(txt or ""), k)
            if len(f1):
                ids.append(np.full(len(f1), did, dtype=np.int64))
                poss.append(np.arange(len(f1), dtype=np.int64))
                h1s.append(f1)
                h2s.append(f2)
        if not ids:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "h1": pa.array([], type=pa.uint64()),
                "h2": pa.array([], type=pa.uint64()),
            })
        return pa.table({
            id_col: pa.array(np.concatenate(ids)),
            "pos": pa.array(np.concatenate(poss)),
            "h1": pa.array(np.concatenate(h1s)),
            "h2": pa.array(np.concatenate(h2s)),
        })

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        dup = g.groupby(["h1", "h2"])[id_col].transform("size") >= 2
        return g.loc[dup, [id_col, "pos"]]

    return exchange(
        ds.map_batches(emit, batch_format="pyarrow"),
        lambda t: _mod_bucket(t["h1"], num_buckets), per_bucket)


def duplicate_spans(ds: "ray.data.Dataset", k: int = 8,
                    text_col: str = "text", id_col: str = "doc_id",
                    num_buckets: int = 256) -> "ray.data.Dataset":
    """Maximal duplicated spans per doc as token ranges
    (doc_id, span_start, span_end), end-exclusive: merged extents of the
    duplicated k-gram hits.  Hit extents [p, p+k) chain iff the position
    gap is <= k, so span merge is a vectorized gaps-and-islands pass per
    doc fat bucket — the second (and last) exchange, keyed on doc hash."""
    hits = duplicate_gram_hits(ds, k=k, text_col=text_col, id_col=id_col,
                               num_buckets=num_buckets)

    def spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        d = g[id_col].to_numpy()
        p = g["pos"].to_numpy()
        brk = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            brk[1:] = (d[1:] != d[:-1]) | (p[1:] - p[:-1] > k)
        isl = np.cumsum(brk) - 1
        out = pd.DataFrame({id_col: d, "pos": p, "_isl": isl})
        agg = out.groupby("_isl", sort=False).agg(
            **{id_col: (id_col, "first"),
               "span_start": ("pos", "min"),
               "span_end": ("pos", "max")})
        agg["span_end"] += k
        return agg.reset_index(drop=True)

    return exchange(hits, lambda t: _mod_bucket(t[id_col], num_buckets),
                    spans)


def _cut_tokens(txt: str, cuts) -> str:
    toks = tokens_of(txt or "")
    if cuts:
        keep = np.ones(len(toks), dtype=bool)
        for s, e in cuts:
            keep[s:e] = False
        toks = [t for t, kf in zip(toks, keep) if kf]
    return " ".join(toks)


def strip_duplicate_spans(ds: "ray.data.Dataset", k: int = 8,
                          text_col: str = "text", id_col: str = "doc_id",
                          num_buckets: int = 256,
                          broadcast_limit: int = 2_000_000,
                          ) -> "ray.data.Dataset":
    """ExactSubstr-style cleanup over the normalized token stream: drop
    every token covered by a duplicated span (both copies — the released
    deduplicate-text-datasets tool's cut semantics) and return
    (doc_id, clean_text) with the kept tokens space-joined.

    Adaptive attach (the broadcast-threshold pattern): the span table
    usually shrinks with corpus quality, so under ``broadcast_limit``
    rows the per-doc span lists are ``ray.put`` once and looked up per
    batch with no shuffle; beyond it, a doc-keyed hash-partitioned left
    join + per-doc-bucket cut — nothing corpus-sized ever reaches the
    driver on that branch."""
    import ray as _ray

    # materialize once: count() and the branch taken below otherwise each
    # re-run the full two-exchange duplicate_spans pipeline from lineage
    spans = duplicate_spans(ds, k=k, text_col=text_col, id_col=id_col,
                            num_buckets=num_buckets).materialize()
    n_spans = spans.count()

    if n_spans <= broadcast_limit:
        span_tbl = spans.to_pandas()
        by_doc: dict = {}
        for did, s, e in zip(span_tbl[id_col], span_tbl["span_start"],
                             span_tbl["span_end"]):
            by_doc.setdefault(int(did), []).append((int(s), int(e)))
        spans_ref = _ray.put(by_doc)

        def clean(batch: pa.Table) -> pa.Table:
            lookup = _ray.get(spans_ref)
            ids, outs = [], []
            for did, txt in zip(batch[id_col].to_pylist(),
                                batch[text_col].to_pylist()):
                ids.append(did)
                outs.append(_cut_tokens(txt, lookup.get(int(did))))
            return pa.table({
                id_col: pa.array(ids, type=pa.int64()),
                "clean_text": pa.array(outs, type=pa.string()),
            })

        return ds.map_batches(clean, batch_format="pyarrow")

    # scale branch: spans ⋈ docs co-partitioned on doc hash, then one
    # per-doc-bucket pass applies all of a doc's cuts
    from .joins import hash_join

    docs = ds.select_columns([id_col, text_col])
    joined = hash_join(docs, spans, on=id_col, how="left",
                       num_buckets=num_buckets)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ids, outs = [], []
        for did, rows in g.groupby(id_col, sort=False):
            cuts = [(int(s), int(e)) for s, e in
                    zip(rows["span_start"], rows["span_end"])
                    if pd.notna(s)]
            ids.append(did)
            outs.append(_cut_tokens(rows[text_col].iloc[0], cuts))
        return pd.DataFrame({id_col: np.asarray(ids, dtype=np.int64),
                             "clean_text": outs})

    return exchange(joined, lambda t: _mod_bucket(t[id_col], num_buckets),
                    per_bucket)


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (vectorized) — avalanches a combined hash."""
    with np.errstate(over="ignore"):
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Unique k-token shingle hashes. Per-token sha1-derived 64-bit hashes
    (cached) are combined per shingle by a degree-k polynomial in a fixed
    odd multiplier mod 2^64 — the old per-shingle ``" ".join`` + sha1 was
    the dominant cost of the whole minhash stage (measured 54% at sf0.1);
    the polynomial roll is vectorized over the token array and preserves
    the only property minhash needs (uniform, deterministic, set-equal for
    equal token sequences)."""
    toks = tokens_of(text)
    if len(toks) < k:
        s = " ".join(toks) if toks else ""
        return np.array([token_hash64(s)], dtype=np.uint64)
    h = np.fromiter((token_hash64_cached(t) for t in toks), dtype=np.uint64,
                    count=len(toks))
    n = len(toks) - k + 1
    with np.errstate(over="ignore"):
        acc = h[0:n].copy()
        for i in range(1, k):
            acc = acc * np.uint64(0x9E3779B97F4A7C15) + h[i:n + i]
    return np.unique(_mix64(acc))


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minimums of (a*h+b) mod p — vectorized (perm × shingle)."""
    with np.errstate(over="ignore"):
        vals = (sh[None, :] * a[:, None] + b[:, None]) % np.uint64(_MERSENNE)
    return vals.min(axis=1)


class MinHashStage:
    """doc rows → one row per doc: (doc_id, signature, per-band hashes).
    Signatures stay one-per-doc; only the tiny (band, hash, doc_id) rows
    enter the bucket shuffle."""

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_k: int = 3,
                 text_col: str = "text", seed: int = 42):
        assert num_perm % bands == 0
        self.a, self.b = _perm_params(num_perm, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k
        self.text_col = text_col

    # cap on concatenated shingles per matmul chunk: (num_perm × 100k) u64
    # ≈ 50 MB of intermediates, independent of batch size
    _SHINGLE_CHUNK = 100_000

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch[self.text_col].to_pylist()
        n = len(ids)
        num_perm = len(self.a)
        sig = np.empty((n, num_perm), dtype=np.uint64)
        pos = 0
        while pos < n:                      # chunked batch-level matmul:
            shs, tot, j = [], 0, pos        # one (perm × shingles) product
            while j < n and (tot == 0 or tot < self._SHINGLE_CHUNK):
                s = shingle_hashes(texts[j], self.k)
                shs.append(s)
                tot += len(s)
                j += 1
            lens = np.fromiter((len(s) for s in shs), dtype=np.int64,
                               count=len(shs))
            offs = np.concatenate(([0], lens[:-1].cumsum()))
            allsh = np.concatenate(shs)
            with np.errstate(over="ignore"):
                vals = (allsh[None, :] * self.a[:, None]
                        + self.b[:, None]) % np.uint64(_MERSENNE)
            sig[pos:j] = np.minimum.reduceat(vals, offs, axis=1).T
            pos = j
        # band hashes: polynomial combine of the band's rows + splitmix64
        # avalanche, vectorized over all docs (replaces 16 sha1 calls/doc);
        # 64-bit ints also halve the bytes entering the band shuffle vs the
        # old 16-char hex strings
        bh = np.empty((n, self.bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for b in range(self.bands):
                seg = sig[:, b * self.rows_per_band:(b + 1) * self.rows_per_band]
                acc = seg[:, 0].copy()
                for i in range(1, self.rows_per_band):
                    acc = acc * np.uint64(0x9E3779B97F4A7C15) + seg[:, i]
                bh[:, b] = _mix64(acc ^ np.uint64(b))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "signature": pa.array(sig.tolist(), type=pa.list_(pa.uint64())),
            "band_hashes": pa.array(bh.tolist(), type=pa.list_(pa.uint64())),
        })


_MINHASH_CACHE: dict = {}


def _minhash_batch(batch: pa.Table, num_perm: int, bands: int,
                   text_col: str) -> pa.Table:
    """Task-stage wrapper: permutation params are cheap to rebuild, so
    stateless tasks (full cluster width) beat a small actor pool."""
    key = (num_perm, bands, text_col)
    stage = _MINHASH_CACHE.get(key)
    if stage is None:
        stage = _MINHASH_CACHE[key] = MinHashStage(
            num_perm=num_perm, bands=bands, text_col=text_col)
    return stage(batch)


def _explode_bands(batch: pa.Table) -> pa.Table:
    n_bands = len(batch["band_hashes"][0].as_py()) if len(batch) else 0
    docs = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                     n_bands)
    import pyarrow.compute as _pc

    flat = _pc.list_flatten(batch["band_hashes"].combine_chunks())
    bands = np.tile(np.arange(n_bands, dtype=np.int32), len(batch))
    return pa.table({
        "doc_id": pa.array(docs),
        "band": pa.array(bands),
        "band_hash": flat,
    })


# LSH buckets above this size switch from all-pairs to an anchor star —
# one degenerate band hash (empty/boilerplate/identical docs) must not
# become an O(n²) straggler task
_MAX_PAIR_BUCKET = 512


def _bucket_pairs_ids(g: pd.DataFrame,
                      max_bucket: int = _MAX_PAIR_BUCKET) -> pd.DataFrame:
    """Candidate pairs within one LSH bucket (ids only; verified later).

    Oversized buckets (> ``max_bucket`` distinct ids) are overwhelmingly
    degenerate — near-identical or empty documents sharing one band hash.
    For those, emit the STAR around the min id (n-1 pairs) instead of all
    n(n-2)/2: members of a truly-duplicate cluster all verify against the
    anchor, so the connected component (and hence the dedup survivor set)
    is preserved, while a mixed oversized bucket loses only
    anchor-dissimilar pairings that its other, non-degenerate band buckets
    still propose.  Bounded output, no quadratic straggler."""
    ids = np.asarray(sorted(set(g["doc_id"].tolist())), dtype=np.int64)
    n = len(ids)
    if n > max_bucket:
        # no silent caps: star-capping drops anchor-dissimilar pairings of a
        # MIXED oversized bucket unless another band re-proposes them
        logging.getLogger(__name__).warning(
            "LSH bucket truncated: %d distinct ids > max_bucket=%d; "
            "emitting %d star pairs around anchor %d instead of %d all-pairs",
            n, max_bucket, n - 1, int(ids[0]), n * (n - 1) // 2)
        return pd.DataFrame({"doc_a": np.full(n - 1, ids[0]),
                             "doc_b": ids[1:]})
    # vectorized upper-triangle expansion (no Python pair loop)
    i, j = np.triu_indices(n, k=1)
    return pd.DataFrame({"doc_a": ids[i], "doc_b": ids[j]})


def banded_pairs(rows: "ray.data.Dataset", key_cols: list[str],
                 num_buckets: int = 256,
                 max_bucket: int = _MAX_PAIR_BUCKET,
                 group_fn=None, id_col: str = "doc_id") -> "ray.data.Dataset":
    """(doc_id, *key_cols, ...) band rows → candidate pairs, fat-bucketed.

    A naive ``groupby(key_cols)`` makes one near-singleton group per
    DISTINCT band hash — n_docs × bands groups at corpus scale, exactly
    the sort-shuffle slow path this file's docstrings warn about
    (measured: 11 s to produce 256 pairs from 80k band rows).  Here the
    shuffle key is ``mix(hash(key_cols)) % num_buckets`` (one fat group
    per bucket), and inside each bucket a vectorized size-transform
    discards singleton hashes BEFORE any per-group Python work — only
    true collision groups (the rare ones) are iterated.
    ``group_fn(sub_df) -> DataFrame`` handles one collision group
    (default: :func:`_bucket_pairs_ids` pair expansion)."""

    def bucket(t: pa.Table) -> np.ndarray:
        df = t.select(key_cols).to_pandas()
        h = np.zeros(len(df), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in key_cols:
                hc = pd.util.hash_pandas_object(
                    df[c], index=False, categorize=False
                ).to_numpy().astype(np.uint64)
                h = _mix64(h ^ hc)
        return (h % np.uint64(num_buckets)).astype(np.int32)

    fn = group_fn or (lambda sub: _bucket_pairs_ids(sub, max_bucket))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby(key_cols, sort=False)[id_col].transform("size")
        g = g[sizes >= 2]
        if g.empty:
            return fn(g)
        return pd.concat([fn(sub) for _, sub in g.groupby(key_cols,
                                                          sort=False)],
                         ignore_index=True)

    return exchange(rows, bucket, per_bucket)


def _mod_bucket(ids, num_buckets: int) -> np.ndarray:
    """Bucket ids of an integer column: ``id % num_buckets``."""
    return (ids.to_numpy(zero_copy_only=False) % num_buckets).astype(np.int32)


def _pair_bucket(t: pa.Table, num_buckets: int) -> np.ndarray:
    """Deterministic fat-bucket ids over the (doc_a, doc_b) pair."""
    a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
    b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (b + np.uint64(0x165667B1))
    return (h % np.uint64(num_buckets)).astype(np.int32)


def dedup_pairs(pairs: "ray.data.Dataset",
                num_buckets: int = 64) -> "ray.data.Dataset":
    """Drop duplicate (doc_a, doc_b) rows (the same pair proposed by several
    LSH bands) — fat-bucketed on a pair hash.  A raw
    ``groupby(["doc_a","doc_b"])`` makes one near-singleton group per pair
    (millions at corpus scale, the sort-shuffle slow path); here the shuffle
    key is ``hash(pair) % num_buckets`` and the dedup is a vectorized
    ``drop_duplicates`` inside each fat bucket.  Duplicate rows are
    identical in every column (same pair ⇒ same attrs), so first-wins is
    deterministic."""

    return exchange(pairs, lambda t: _pair_bucket(t, num_buckets),
                    lambda g: g.drop_duplicates(["doc_a", "doc_b"]))


def attach_pair_attrs_adaptive(
    pairs: "ray.data.Dataset", attrs: "ray.data.Dataset", attr_col: str,
    n_rows: int, broadcast_limit: int, num_buckets: int = 64,
) -> "ray.data.Dataset":
    """pairs + ``_attr_a``/``_attr_b``, choosing the attach strategy by the
    attribute-table size (the broadcast-join-threshold pattern): under
    ``broadcast_limit`` rows the doc_id→attr map is ``ray.put`` once and
    mapped per batch (fast, no shuffle); above it, the hash-partitioned
    pairs ⋈ attrs join (attach_pair_attrs) — nothing corpus-sized is ever
    broadcast at scale."""
    if n_rows <= broadcast_limit:
        df = attrs.to_pandas()
        ref = ray.put(dict(zip(df["doc_id"], df[attr_col])))

        def attach(pdf: pd.DataFrame) -> pd.DataFrame:
            m = ray.get(ref)
            pdf = pdf.copy()
            pdf["_attr_a"] = pdf["doc_a"].map(m)
            pdf["_attr_b"] = pdf["doc_b"].map(m)
            return pdf

        return pairs.map_batches(attach, batch_format="pandas")
    return attach_pair_attrs(pairs, attrs, attr_col, num_buckets)


def attach_pair_attrs(pairs: "ray.data.Dataset", attrs: "ray.data.Dataset",
                      attr_col: str, num_buckets: int = 64) -> "ray.data.Dataset":
    """Hash-partitioned join of candidate pairs with a per-doc attribute
    table on BOTH ids: pairs(doc_a, doc_b) ⋈ attrs(doc_id, attr) → pairs +
    ``_attr_a`` + ``_attr_b``.  This is the scale path for pair
    verification: nothing corpus-sized is ever broadcast — each attribute
    row travels through two bucket shuffles instead (Broder '97 dedup at
    cluster scale; the join operator is stages/joins.py)."""
    from .joins import hash_join

    def _ren(suffix):
        # Arrow-native rename: routing a list column through a pandas batch
        # would re-enter Arrow as a tensor-extension type, which Ray's
        # shuffle concat handles badly — keep it a plain list type
        def fn(t: pa.Table) -> pa.Table:
            m = {"doc_id": f"doc_{suffix}", attr_col: f"_attr_{suffix}"}
            return t.rename_columns([m.get(c, c) for c in t.column_names])
        return fn

    a_side = attrs.map_batches(_ren("a"), batch_format="pyarrow")
    b_side = attrs.map_batches(_ren("b"), batch_format="pyarrow")
    j = hash_join(pairs, a_side, on="doc_a", num_buckets=num_buckets)
    return hash_join(j, b_side, on="doc_b", num_buckets=num_buckets)


def minhash_lsh_pairs(ds: "ray.data.Dataset", threshold: float = 0.8,
                      num_perm: int = 64, bands: int = 16,
                      text_col: str = "text",
                      verify_broadcast_limit: int = 200_000,
                      max_bucket: int = _MAX_PAIR_BUCKET) -> "ray.data.Dataset":
    """Near-duplicate candidate pairs via banded minhash LSH.

    Shuffle discipline: signatures (num_perm × 8 bytes each) never enter the
    bucket shuffle — only (band, band_hash, doc_id) rows do.  Candidate-pair
    verification attaches signatures adaptively
    (attach_pair_attrs_adaptive): broadcast of the signature map while the
    corpus is small (≤ ``verify_broadcast_limit`` docs ≈ 100 MB of
    signatures), hash-partitioned pairs ⋈ signatures join beyond — nothing
    corpus-sized is ever broadcast or driver-resident at scale."""
    sigs = ds.map_batches(
        _minhash_batch,
        fn_kwargs=dict(num_perm=num_perm, bands=bands, text_col=text_col),
        batch_format="pyarrow",
    ).materialize()          # distributed (object store), reused 3×
    n_docs = sigs.count()

    cand = dedup_pairs(            # same pair from several bands
        banded_pairs(
            sigs.select_columns(["doc_id", "band_hashes"])
            .map_batches(_explode_bands, batch_format="pyarrow"),
            ["band", "band_hash"],
            max_bucket=max_bucket,
        )
    )
    if n_docs > verify_broadcast_limit:
        cand = cand.materialize()   # reused by both join passes

    withsigs = attach_pair_attrs_adaptive(
        cand, sigs.select_columns(["doc_id", "signature"]), "signature",
        n_docs, verify_broadcast_limit)

    def verify(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            return pa.table({
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "jaccard_est": pa.array([], type=pa.float64()),
            })
        sig_a = np.stack([np.asarray(s, dtype=np.uint64) for s in df["_attr_a"]])
        sig_b = np.stack([np.asarray(s, dtype=np.uint64) for s in df["_attr_b"]])
        est = (sig_a == sig_b).mean(axis=1)
        keep = est >= threshold
        return pa.table({
            "doc_a": pa.array(df["doc_a"].to_numpy()[keep], type=pa.int64()),
            "doc_b": pa.array(df["doc_b"].to_numpy()[keep], type=pa.int64()),
            "jaccard_est": pa.array(np.round(est[keep], 4), type=pa.float64()),
        })

    return withsigs.map_batches(verify, batch_format="pandas")


def resolve_duplicates(pairs_df: pd.DataFrame) -> dict[int, int]:
    """Union-find min-label resolution over verified pairs (driver-side: the
    candidate-pair set is orders of magnitude smaller than the corpus)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in list(parent)}


def connected_components(pairs: "ray.data.Dataset",
                         max_iters: int = 25) -> "ray.data.Dataset":
    """Distributed connected components over (doc_a, doc_b) edges →
    (node, label) with label = component min id.

    Min-label propagation: each round joins the (bidirectional) edge list
    with the current labels and takes the per-node min — labels only ever
    decrease, so an unchanged label SUM is a fixpoint proof.  Duplicate
    clusters are stars/cliques (tiny diameter), so this converges in a few
    rounds; every step is a hash-partitioned join + groupby, nothing
    driver-resident."""
    import pyarrow.compute as _pc

    from .joins import hash_join

    def bidir(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"node": t["doc_a"], "nbr": t["doc_b"]}),
            pa.table({"node": t["doc_b"], "nbr": t["doc_a"]}),
        ])

    edges = pairs.select_columns(["doc_a", "doc_b"]).map_batches(
        bidir, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "label": _pc.cast(t["node"], pa.int64())})

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node").min("label")
        .map_batches(lambda t: t.rename_columns(["node", "label"]),
                     batch_format="pyarrow")
    ).materialize()

    def _label_sum(ls) -> int:
        out = ls.map_batches(
            lambda t: pa.table({"s": pa.array(
                [_pc.sum(t["label"]).as_py() or 0], type=pa.int64())}),
            batch_format="pyarrow").to_pandas()
        return int(out["s"].sum())

    prev_sum = _label_sum(labels)
    for _ in range(max_iters):
        # 1. neighbor min: pull each neighbor's current label
        msgs = hash_join(
            edges,
            labels.map_batches(
                lambda t: t.rename_columns(["nbr", "label"]),
                batch_format="pyarrow"),
            on="nbr", num_buckets=16,
        ).map_batches(lambda t: t.select(["node", "label"]),
                      batch_format="pyarrow")
        labels = (
            msgs.union(labels)
            .groupby("node").min("label")
            .map_batches(lambda t: t.rename_columns(["node", "label"]),
                         batch_format="pyarrow")
        ).materialize()
        # 2. pointer jump (label ← label-of-label): collapses chains in
        #    O(log n) rounds instead of O(diameter)
        jumped = hash_join(
            labels,
            labels.map_batches(
                lambda t: t.rename_columns(["label", "label2"]),
                batch_format="pyarrow"),
            on="label", how="left", num_buckets=16,
        ).map_batches(
            lambda df: pd.DataFrame({
                "node": df["node"],
                "label": np.minimum(
                    df["label"].to_numpy(),
                    df["label2"].fillna(df["label"]).to_numpy()).astype("int64"),
            }),
            batch_format="pandas")
        labels = (
            jumped.groupby("node").min("label")
            .map_batches(lambda t: t.rename_columns(["node", "label"]),
                         batch_format="pyarrow")
        ).materialize()
        cur = _label_sum(labels)
        if cur == prev_sum:       # labels only decrease → fixpoint
            break
        prev_sum = cur
    return labels


# above this many dropped ids, filter by streaming anti-join instead of a
# broadcast id array (8 B/id: 2M ids ≈ 16 MB — comfortably broadcastable;
# a corpus-scale drop set is not)
_DROP_BROADCAST_LIMIT = 2_000_000


def minhash_dedup(ds: "ray.data.Dataset", threshold: float = 0.8,
                  text_col: str = "text",
                  broadcast_limit: int = _DROP_BROADCAST_LIMIT,
                  cc_driver_limit: int = 5_000_000,
                  ) -> "ray.data.Dataset":
    """Corpus minus minhash-LSH near-duplicates (component min-id survives).

    Label resolution: under ``cc_driver_limit`` pairs, verified pairs
    stream to the driver in chunks (union-find state is
    O(docs-appearing-in-pairs) ≪ corpus); beyond it, the fully distributed
    min-label propagation (:func:`connected_components`) runs — nothing
    pair- or label-sized touches the driver.  The survivor filter
    broadcasts a plain id array while small and switches to the streaming
    anti-join when the drop set is corpus-sized."""
    pairs = minhash_lsh_pairs(ds, threshold, text_col=text_col).materialize()

    if pairs.count() > cc_driver_limit:
        from .joins import anti_join

        import pyarrow.compute as _pc

        labels = connected_components(pairs)

        def _drops(t: pa.Table) -> pa.Table:
            keep = t.filter(_pc.invert(_pc.equal(t["node"], t["label"])))
            return pa.table({"doc_id": keep["node"]})

        drop_ds = labels.map_batches(_drops, batch_format="pyarrow")
        return anti_join(ds, drop_ds, on="doc_id")

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for batch in pairs.iter_batches(batch_format="pyarrow", batch_size=65536):
        for a, b in zip(batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist()):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    drop = sorted(x for x in parent if find(x) != x)

    if len(drop) <= broadcast_limit:
        drop_ref = ray.put(pa.array(drop, type=pa.int64()))

        def filt(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            d = ray.get(drop_ref)
            return t.filter(
                pc.invert(pc.is_in(pc.cast(t["doc_id"], pa.int64()),
                                   value_set=d)))

        return ds.map_batches(filt, batch_format="pyarrow")

    from .joins import anti_join

    drop_ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(
        drop, type=pa.int64())}))
    return anti_join(ds, drop_ds, on="doc_id")


# ---------------------------------------------------------------------------
# simhash near-dup
# ---------------------------------------------------------------------------


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Block-vectorized simhash signatures: tokenize per doc (C regex),
    then one factorize + hash-gather + segment-sum for the whole block
    (functions/simhash.py:simhash64_block) instead of a per-doc Counter."""
    hs = simhash64_block([tokens_of(t)
                          for t in batch[text_col].to_pylist()])
    return pa.table({
        "doc_id": batch["doc_id"],
        "simhash": pa.array(hs, type=pa.uint64()),
    })


def simhash_pairs(ds: "ray.data.Dataset", max_hamming: int = 3,
                  text_col: str = "text") -> "ray.data.Dataset":
    """Near-dup pairs with hamming distance <= k, banded on 4×16-bit chunks:
    any pair within distance 3 shares at least one exact chunk (pigeonhole)."""
    sigs = ds.map_batches(simhash_batch, fn_kwargs={"text_col": text_col},
                          batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        docs = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(docs)
        bands = np.tile(np.arange(4, dtype=np.int32), n)
        rep = np.repeat(hs, 4)
        chunks = ((rep >> (np.uint64(16) * bands.astype(np.uint64)))
                  & np.uint64(0xFFFF)).astype(np.int32)
        return pa.table({
            "doc_id": pa.array(np.repeat(docs, 4)),
            "band": pa.array(bands),
            "chunk": pa.array(chunks),
            "simhash": pa.array(rep),
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").drop_duplicates("doc_id")
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.uint64)
        if len(ids) > _MAX_PAIR_BUCKET:
            # degenerate chunk bucket: star around the min id (see
            # _bucket_pairs_ids) — hamming still filters non-dups
            d = hamming_popcount(hs[0] ^ hs[1:])
            hits = np.nonzero(d <= max_hamming)[0]
            return pd.DataFrame({"doc_a": np.full(len(hits), int(ids[0])),
                                 "doc_b": ids[1 + hits],
                                 "hamming": d[hits]})
        a_out, b_out, d_out = [], [], []
        for i in range(len(ids)):
            d = hamming_popcount(hs[i] ^ hs[i + 1:])
            hits = np.nonzero(d <= max_hamming)[0]
            for j in hits:
                a_out.append(int(ids[i]))
                b_out.append(int(ids[i + 1 + j]))
                d_out.append(int(d[j]))
        # explicit int64 dtypes: an all-singleton fat bucket yields empty
        # lists, and an object-dtype empty frame breaks heterogeneous
        # block concat downstream
        return pd.DataFrame({
            "doc_a": pd.Series(a_out, dtype="int64"),
            "doc_b": pd.Series(b_out, dtype="int64"),
            "hamming": pd.Series(d_out, dtype="int64"),
        })

    pairs = banded_pairs(
        sigs.map_batches(explode, batch_format="pyarrow"),
        ["band", "chunk"], group_fn=bucket_pairs,
    )
    return dedup_pairs(pairs)


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, within LSH candidate buckets)
# ---------------------------------------------------------------------------


class _NgramSigStage:
    """Per-doc shingle set + 8 banded minhash bucket hashes, ONE row per doc:
    the shingle set never rides into the bucket shuffle (it used to travel
    once per band = 8×); bucket rows are just (doc_id, band, band_hash)."""

    def __init__(self, ngram: int, text_col: str):
        self.a, self.b = _perm_params(32)
        self.ngram = ngram
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch[self.text_col].to_pylist()
        n = len(ids)
        shs = [shingle_hashes(t, self.ngram) for t in texts]
        sig = np.empty((n, len(self.a)), dtype=np.uint64)
        for i, sh in enumerate(shs):
            sig[i] = minhash_signature(sh, self.a, self.b)
        bh = np.empty((n, 8), dtype=np.uint64)
        with np.errstate(over="ignore"):  # vectorized band mix (see MinHashStage)
            for b in range(8):
                seg = sig[:, b * 4:(b + 1) * 4]
                acc = seg[:, 0].copy()
                for i in range(1, 4):
                    acc = acc * np.uint64(0x9E3779B97F4A7C15) + seg[:, i]
                bh[:, b] = _mix64(acc ^ np.uint64(b))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "shingles": pa.array([s.tolist() for s in shs],
                                 type=pa.list_(pa.uint64())),
            "band_hashes": pa.array(bh.tolist(), type=pa.list_(pa.uint64())),
        })


def ngram_jaccard_pairs(ds: "ray.data.Dataset", threshold: float = 0.6,
                        ngram: int = 3, text_col: str = "text",
                        verify_broadcast_limit: int = 50_000) -> "ray.data.Dataset":
    """Exact word-n-gram Jaccard over LSH-bucketed candidates: a cheap banded
    minhash proposes candidate id pairs (ids only in the bucket shuffle),
    then TRUE Jaccard is computed from the shingle sets attached adaptively
    (broadcast map under the limit, hash-partitioned join beyond —
    shingle sets are ~KB each, so the broadcast limit is conservative)."""

    def sig_batch(batch: pa.Table) -> pa.Table:
        key = ("ngram-sig", ngram, text_col)
        stage = _MINHASH_CACHE.get(key)
        if stage is None:
            stage = _MINHASH_CACHE[key] = _NgramSigStage(ngram, text_col)
        return stage(batch)

    sigs = ds.map_batches(sig_batch, batch_format="pyarrow").materialize()
    n_docs = sigs.count()

    cand = dedup_pairs(
        banded_pairs(
            sigs.select_columns(["doc_id", "band_hashes"])
            .map_batches(_explode_bands, batch_format="pyarrow"),
            ["band", "band_hash"],
        )
    )
    if n_docs > verify_broadcast_limit:
        cand = cand.materialize()

    withsh = attach_pair_attrs_adaptive(
        cand, sigs.select_columns(["doc_id", "shingles"]), "shingles",
        n_docs, verify_broadcast_limit)

    def verify(df: pd.DataFrame) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        for a, b, sa, sb in zip(df["doc_a"], df["doc_b"],
                                df["_attr_a"], df["_attr_b"]):
            s1 = set(map(int, sa))
            s2 = set(map(int, sb))
            union = len(s1 | s2)
            jac = len(s1 & s2) / union if union else 0.0
            if jac >= threshold:
                a_out.append(int(a))
                b_out.append(int(b))
                j_out.append(round(jac, 4))
        return pa.table({
            "doc_a": pa.array(a_out, type=pa.int64()),
            "doc_b": pa.array(b_out, type=pa.int64()),
            "jaccard": pa.array(j_out, type=pa.float64()),
        })

    return withsh.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_dup_pairs(ds: "ray.data.Dataset", threshold: float = 0.95,
                        n_planes: int = 12, seed: int = 42,
                        emb_col: str = "embedding",
                        id_col: str = "vec_id",
                        verify_broadcast_limit: int = 100_000) -> "ray.data.Dataset":
    """Cosine near-dup via random-hyperplane LSH buckets + exact verification
    within buckets (Charikar '02). Multi-probe: 4 independent plane sets so
    near pairs rarely miss every bucket."""

    def sig_stage(batch: pa.Table) -> pa.Table:
        """One row per doc: unit vector + the 4 probe-table bucket keys.
        Bucket rows (doc_id, table_i, bucket) are exploded separately so the
        unit vector enters the bucket shuffle 0× (it used to travel 4×)."""
        emb = np.array(batch[emb_col].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = emb / norms
        dim = emb.shape[1]
        keys_per_table = []
        for t in range(4):
            planes = np.random.default_rng(seed + t).standard_normal((n_planes, dim))
            bits = (unit @ planes.T) > 0
            keys_per_table.append(
                np.packbits(bits, axis=1)[:, :2].copy().view(np.uint16).ravel())
        buckets = np.stack(keys_per_table, axis=1).astype(np.int32)  # (n, 4)
        return pa.table({
            "doc_id": pa.array(batch[id_col].to_pylist(), type=pa.int64()),
            "unit": pa.array([u.tolist() for u in unit],
                             type=pa.list_(pa.float64())),
            "buckets": pa.array([b.tolist() for b in buckets],
                                type=pa.list_(pa.int32())),
        })

    def explode(t: pa.Table) -> pa.Table:
        n = len(t)
        docs = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), 4)
        tables = np.tile(np.arange(4, dtype=np.int32), n)
        import pyarrow.compute as _pc

        flat = _pc.list_flatten(t["buckets"].combine_chunks())
        return pa.table({
            "doc_id": pa.array(docs),
            "table_i": pa.array(tables),
            "bucket": flat,
        })

    sigs = ds.map_batches(sig_stage, batch_format="pyarrow").materialize()
    n_docs = sigs.count()

    cand = dedup_pairs(
        banded_pairs(
            sigs.select_columns(["doc_id", "buckets"])
            .map_batches(explode, batch_format="pyarrow"),
            ["table_i", "bucket"],
        )
    )
    if n_docs > verify_broadcast_limit:
        cand = cand.materialize()

    withunits = attach_pair_attrs_adaptive(
        cand, sigs.select_columns(["doc_id", "unit"]), "unit",
        n_docs, verify_broadcast_limit)

    def verify(df: pd.DataFrame) -> pa.Table:
        if df.empty:
            return pa.table({
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
            })
        ua = np.stack([np.asarray(v) for v in df["_attr_a"]])
        ub = np.stack([np.asarray(v) for v in df["_attr_b"]])
        sims = (ua * ub).sum(axis=1)
        keep = sims >= threshold
        return pa.table({
            "doc_a": pa.array(df["doc_a"].to_numpy()[keep], type=pa.int64()),
            "doc_b": pa.array(df["doc_b"].to_numpy()[keep], type=pa.int64()),
            "cosine": pa.array(np.round(sims[keep], 4), type=pa.float64()),
        })

    return withunits.map_batches(verify, batch_format="pandas")
