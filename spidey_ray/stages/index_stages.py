"""Filter + indexer stages over the `documents` table (SURVEY.md §2.2 M12-M16,
§2.5 A6-A9).

Reference pipeline being re-expressed (backend/Filter.py, backend/Indexer.py):
- per doc: index-tokenize the span texts (positions = the concatenated
  ``elemText`` running offsets, Filter.py:65-89), build the token-frequency
  dict, important-tag extent lists for b/strong/h1/h2/h3 (Filter.py:17,79-86),
- simhash footprint over the freq dict (Filter.py:24-40; stable hash per
  SURVEY.md §7.5.1) + token-length bucket for near-dup dedup,
- postings: title stems with negated positions (Indexer.py:75-79) merged with
  body stems (Indexer.py:85-90, title positions first, body appended, no
  re-sort), one posting row per (stem, doc); same again for bigrams
  (Indexer.py:104-140) where bigrams cross span boundaries because the token
  stream is the concatenated file,
- weighted term frequency via extent containment (Ranking.py:4-41) is
  computed AT EMISSION (the doc's extents are in hand) — the reference's
  later extent join (Indexer.py:188) disappears,
- tf-idf = round((1+log10(wtf)) * log10(N/df), 4) with df = postings per
  stem, attached in the groupby('stem') stage (Indexer.py:175-224); unigram
  postings sorted by tfidf desc within stem, stable (Indexer.py:166-168).
"""

from __future__ import annotations

import math

import numpy as np

import pyarrow as pa

from ..functions import simhash as sh
from ..functions.tokenize import bigram_tokenize, tokenize, tokens_to_stem_dict

IMPORTANT_TAGS = ("b", "strong", "h1", "h2", "h3")  # Filter.py:17
TITLE_RANK = 25.0
TAG_RANK = {"h1": 5.0, "h2": 3.0, "h3": 2.0, "b": 1.2, "strong": 1.2}  # Ranking.py:13-21


def doc_token_stream(spans: list[dict]) -> list[tuple[str, int]]:
    """Flat (token, position) stream over the doc's text spans — identical to
    re-tokenizing the reference's concatenated .txt file (Indexer.py:56-61)."""
    out = []
    for s in spans:
        if s["kind"] in ("link", "media"):
            continue
        for tok, pos in tokenize(s["text"]):
            out.append((tok, s["offset"] + pos))
    return out


def doc_extents(spans: list[dict]) -> dict[str, list[list[int]]]:
    """Important-tag extent lists [start, end] (Filter.py:79-86)."""
    extents: dict[str, list[list[int]]] = {}
    for s in spans:
        if s["kind"] not in IMPORTANT_TAGS:
            continue
        elem_len = sum(len(t) + 1 for t, _ in tokenize(s["text"]))
        if elem_len == 0:
            # reference still records the [offset, offset-1] empty extent
            extents.setdefault(s["kind"], []).append([s["offset"], s["offset"] - 1])
        else:
            extents.setdefault(s["kind"], []).append(
                [s["offset"], s["offset"] + elem_len - 1])
    return extents


def positions_to_rank(positions: list[int], extents: dict[str, list[list[int]]]) -> float:
    """Ranking.py:4-41: title 25, h1 5, h2 3, h3 2, b/strong 1.2, else 1.
    Tag precedence follows the extent-dict iteration order — the reference
    iterates insertion order of importantTagsExtentLists; we canonicalize to
    the IMPORTANT_TAGS declaration order."""
    rank = 0.0
    for pos in positions:
        if pos < 0:
            rank += TITLE_RANK
            continue
        hit = False
        for tag in IMPORTANT_TAGS:
            if tag in extents and any(e[0] <= pos <= e[1] for e in extents[tag]):
                rank += TAG_RANK[tag]
                hit = True
                break
        if hit:
            continue
        rank += 1.0
    return rank


def doc_stem_positions(
    title: str, token_stream: list[tuple[str, int]], bigrams: bool
) -> dict[str, list[int]]:
    """Merged title+body stem→positions dict (Indexer.py:75-90 / 114-130)."""
    if bigrams:
        title_dict = tokens_to_stem_dict(bigram_tokenize(tokenize(title)))
        body_dict = tokens_to_stem_dict(bigram_tokenize(iter(token_stream)))
    else:
        title_dict = tokens_to_stem_dict(tokenize(title))
        body_dict = tokens_to_stem_dict(token_stream)
    merged = {s: [-1 * (p + 1) for p in ps] for s, ps in title_dict.items()}
    for s, ps in body_dict.items():
        if s in merged:
            merged[s] = merged[s] + ps
        else:
            merged[s] = ps
    return merged


# ---------------------------------------------------------------------------
# map_batches stages
# ---------------------------------------------------------------------------

FILTERED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("crawl_seq", pa.int64()),
        ("title", pa.string()),
        ("n_tokens", pa.int64()),
        ("len_bucket", pa.int64()),
        ("simhash", pa.uint64()),
    ]
)


def filter_prepare_batch(batch: pa.Table, bucket_size: int = 100) -> pa.Table:
    """documents rows → compact per-doc filter features (token length, freq
    simhash, length bucket). Spans stay behind — only ~40 bytes/doc move into
    the dedup shuffle. Docs with zero tokens are dropped (Filter.py:91-92)."""
    out = {n: [] for n in FILTERED_SCHEMA.names}
    for doc_id, crawl_seq, title, spans in zip(
        batch["doc_id"].to_pylist(), batch["crawl_seq"].to_pylist(),
        batch["title"].to_pylist(), batch["spans"].to_pylist(),
    ):
        stream = doc_token_stream(spans)
        if not stream:
            continue
        freq: dict[str, int] = {}
        for tok, _ in stream:
            freq[tok] = freq.get(tok, 0) + 1
        n = len(stream)
        out["doc_id"].append(doc_id)
        out["crawl_seq"].append(crawl_seq)
        out["title"].append(title)
        out["n_tokens"].append(n)
        out["len_bucket"].append(n // bucket_size)
        out["simhash"].append(sh.simhash64(freq))
    return pa.Table.from_pydict(out, schema=FILTERED_SCHEMA)


def near_dup_group(df, threshold: float = 0.975):
    """Sequential first-survivor-wins near-dup scan WITHIN one length bucket
    (Filter.py:94-110; bucket-boundary misses are reference semantics).
    pandas in / pandas out for ``io.exchange``.

    Each doc is compared against ALL current survivors in one vectorized
    xor+popcount (identical float comparisons to the scalar
    ``footprints_similar``: (64-popcount)/64 > t strictly, min/max length
    ratio > t strictly) — the scan stays inherently sequential-in-crawl-
    order (the reference's first-wins semantics), but a uniform-length
    corpus that lands in one bucket now costs numpy-speed O(n²/ω) instead
    of a Python pair loop (measured 200×+ on a 12k-doc bucket)."""
    df = df.sort_values("crawl_seq", kind="mergesort")
    hs = df["simhash"].to_numpy().astype(np.uint64, copy=False)
    ns = df["n_tokens"].to_numpy().astype(np.int64, copy=False)
    m = len(df)
    surv_h = np.empty(m, dtype=np.uint64)
    surv_n = np.empty(m, dtype=np.int64)
    cnt = 0
    keep = np.zeros(m, dtype=bool)
    for i in range(m):
        if cnt:
            sim = (64 - sh.hamming_popcount(surv_h[:cnt] ^ hs[i])) / 64.0
            cand = sim > threshold
            if cand.any():
                a = surv_n[:cnt][cand]
                b = ns[i]
                mx = np.maximum(a, b)
                mn = np.minimum(a, b)
                ratio = np.where(mx > 0, mn / np.maximum(mx, 1), 1.0)
                if (ratio > threshold).any():
                    continue                    # dup of an earlier survivor
        keep[i] = True
        surv_h[cnt] = hs[i]
        surv_n[cnt] = ns[i]
        cnt += 1
    return df[keep]


POSTINGS_SCHEMA = pa.schema(
    [
        ("stem", pa.string()),
        ("doc_id", pa.int64()),
        ("positions", pa.list_(pa.int32())),
        ("wtf", pa.float64()),
        ("is_bigram", pa.bool_()),
        ("bucket", pa.int32()),       # stable hash(stem) bucket — shuffle key
    ]
)

N_STEM_BUCKETS = 512


_STEM_BUCKET_CACHE: dict[str, int] = {}


def _stem_bucket(stem: str) -> int:
    b = _STEM_BUCKET_CACHE.get(stem)
    if b is None:
        import zlib

        if len(_STEM_BUCKET_CACHE) >= (1 << 20):
            _STEM_BUCKET_CACHE.clear()
        b = _STEM_BUCKET_CACHE[stem] = (
            zlib.crc32(stem.encode("utf-8")) % N_STEM_BUCKETS)
    return b


def emit_postings_batch(batch: pa.Table) -> pa.Table:
    """Surviving docs (with int64 doc_id already assigned) → posting rows for
    both the unigram and bigram indexes, with the Ranking weight precomputed.

    Rows carry a stable stem-hash ``bucket``: the scoring shuffle groups on
    the bucket (512 fat groups), NOT on the stem — bigram stems are
    near-unique, and millions of one-row groups make ``map_groups``
    pathological (per-group dispatch dominates)."""
    out = {n: [] for n in POSTINGS_SCHEMA.names}
    for doc_id, title, spans in zip(
        batch["doc_num"].to_pylist(), batch["title"].to_pylist(),
        batch["spans"].to_pylist(),
    ):
        stream = doc_token_stream(spans)
        extents = doc_extents(spans)
        # per-doc rank lookup table: rank_at[p] == positions_to_rank's
        # answer for body position p (built once per doc by slice-filling
        # extents in REVERSE tag-precedence order so earlier tags win) —
        # replaces an any()-over-extents scan per position of every posting
        size = 1 + max(
            (stream[-1][1] if stream else 0),
            max((e[1] for es in extents.values() for e in es), default=0),
        ) + 1
        rank_at = [1.0] * size
        for tag in reversed(IMPORTANT_TAGS):
            r = TAG_RANK[tag]
            for e in extents.get(tag, ()):
                if e[1] >= e[0]:
                    rank_at[e[0]:e[1] + 1] = [r] * (e[1] - e[0] + 1)
        for is_bigram in (False, True):
            for stem, positions in doc_stem_positions(title, stream, is_bigram).items():
                out["stem"].append(stem)
                out["doc_id"].append(doc_id)
                out["positions"].append(positions)
                out["wtf"].append(sum(
                    TITLE_RANK if p < 0 else rank_at[p] for p in positions))
                out["is_bigram"].append(is_bigram)
                out["bucket"].append(_stem_bucket(stem))
    return pa.Table.from_pydict(out, schema=POSTINGS_SCHEMA)


SCORED_SCHEMA = pa.schema(
    [
        ("stem", pa.string()),
        ("doc_id", pa.int64()),
        ("positions", pa.list_(pa.int32())),
        ("tfidf", pa.float64()),
        ("is_bigram", pa.bool_()),
        # stem-hash bucket retained in the OUTPUT too: partitioned serving
        # (query.PartitionedQueryIndex) prunes parquet row groups on it
        ("bucket", pa.int32()),
    ]
)


def score_stem_group(group: pa.Table, num_documents: int) -> pa.Table:
    """One stem-hash BUCKET of postings → tf-idf + within-stem ordering
    (Indexer.py:142-173) for every (stem, is_bigram) inside it.  Arrow in /
    Arrow out — the nested ``positions`` column never leaves Arrow (two
    ``take``s reorder it); grouping is one sort + a run-length boundary
    vector instead of a per-row dict build.  tf-idf arithmetic stays
    per-row Python ``math.log10``/``round`` — the SQL oracle's value hash
    is sensitive to the half-even rounding of the exact float sequence,
    and numpy's scale-multiply round differs in rare ULP cases.

    Within-stem order is the contract (doc write order for bigrams,
    tfidf-desc stable for unigrams — Indexer.py:166-168); stem order
    within the bucket is not (consumers group by stem)."""
    import pyarrow.compute as pc

    n = len(group)
    if n == 0:
        return pa.Table.from_pydict(
            {c: [] for c in SCORED_SCHEMA.names}, schema=SCORED_SCHEMA)
    idx = pc.sort_indices(group, sort_keys=[
        ("is_bigram", "ascending"), ("stem", "ascending"),
        ("doc_id", "ascending")])
    g = group.take(idx)
    stems = np.asarray(g["stem"].to_pylist(), dtype=object)
    isb = np.asarray(g["is_bigram"].to_pylist(), dtype=bool)
    wtf = np.asarray(g["wtf"].to_pylist(), dtype=np.float64)
    brk = np.ones(n, dtype=bool)
    if n > 1:
        brk[1:] = (stems[1:] != stems[:-1]) | (isb[1:] != isb[:-1])
    starts = np.nonzero(brk)[0]
    sizes = np.diff(np.append(starts, n))
    gid = np.repeat(np.arange(len(sizes)), sizes)
    log10 = math.log10
    idf_g = [log10(num_documents / int(s)) for s in sizes]
    tfidf = np.fromiter(
        (round((1.0 + log10(w)) * idf_g[gi], 4) if w > 0 else 0.0
         for w, gi in zip(wtf, gid)),
        dtype=np.float64, count=n)
    # final within-group permutation: bigrams keep doc order (constant sort
    # key), unigrams go tfidf-desc stable — one global stable lexsort
    tfkey = np.where(isb, 0.0, -tfidf)
    perm = np.lexsort((np.arange(n), tfkey, gid))
    g2 = g.take(pa.array(perm))
    return pa.table({
        "stem": g2["stem"],
        "doc_id": g2["doc_id"],
        "positions": g2["positions"],
        "tfidf": pa.array(tfidf[perm], type=pa.float64()),
        "is_bigram": g2["is_bigram"],
        "bucket": g2["bucket"],
    }).cast(SCORED_SCHEMA)
