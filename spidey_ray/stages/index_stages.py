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

Two layers.  The per-doc functions (``doc_token_stream``, ``doc_extents``,
``doc_stem_positions``, ``positions_to_rank``) are the reference: the serial
oracle (pipelines/index_oracle.py) is built on them alone.  The pipeline's
maps are block kernels (``filter_prepare_batch``, ``emit_postings_batch``,
``score_stem_group``, and filter_index's doc_meta map over
``block_tokens``):

- **block contract**: a kernel takes one Arrow block and reads ``spans`` as
  flattened struct columns (kind/text/offset and the list offsets), never
  as per-span dicts; its output depends on each doc alone, so any split of
  the docs into blocks concatenates to the same rows, in the same order;
- **tokens**: ``index_tokens`` per text span equals ``tokenize``'s token
  sequence, and positions are the running ``len(token) + 1`` sums rebuilt
  in numpy;
- **wtf exactness**: a posting's ``wtf`` is its ranks added left to right
  in positions order, as ``positions_to_rank`` adds them — the 1.2 rank of
  b/strong makes the order visible, so no pairwise numpy reduction;
- **tf-idf exactness**: ``math.log10`` and Python's ``round(v, 4)`` (once
  per distinct input), with the product a single IEEE multiply — numpy's
  log10 and rounding differ from Python's in rare ULP cases.
"""

from __future__ import annotations

import math
import zlib
from itertools import chain
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import porter
from ..functions import simhash as sh
from ..functions.tokenize import (
    bigram_tokenize,
    index_tokens,
    tokenize,
    tokens_to_stem_dict,
)

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
# block kernels (the module docstring gives their contract)
# ---------------------------------------------------------------------------


class BlockTokens(NamedTuple):
    """The body token stream of every doc of a block, flattened in doc
    order, plus the docs' important-tag extents in ``doc_extents`` order."""

    tokens: list[str]        # body tokens, doc by doc, in stream order
    doc: np.ndarray          # int64 block row of each token
    pos: np.ndarray          # int64 stream position of each token
    doc_starts: np.ndarray   # int64 [n_docs + 1] offsets into ``tokens``
    ext_doc: np.ndarray      # int64 block row of each extent
    ext_tag: np.ndarray      # int64 index into IMPORTANT_TAGS
    ext_start: np.ndarray    # int64
    ext_end: np.ndarray      # int64 (start - 1 for a span with no tokens)


def _running_positions(tokens: list[str], counts: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(position of each token within its run, character length of each
    run) for ``tokens`` cut into consecutive runs of ``counts`` tokens —
    ``tokenize``'s running ``len(token) + 1`` accumulator, restarted per run."""
    step = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens)) + 1
    csum = np.zeros(len(tokens) + 1, dtype=np.int64)
    np.cumsum(step, out=csum[1:])
    first = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    run_of = np.repeat(np.arange(len(counts)), counts)
    return csum[:-1] - csum[first[:-1]][run_of], csum[first[1:]] - csum[first[:-1]]


def _strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """A string column as an object array of ``str`` (many times faster
    than ``to_pylist`` for the short strings of a block)."""
    return arr.to_numpy(zero_copy_only=False)


def _tokenize_runs(texts) -> tuple[list[str], np.ndarray]:
    """(all tokens of ``texts`` in order, token count per text)."""
    per = list(map(index_tokens, texts))
    counts = np.fromiter(map(len, per), dtype=np.int64, count=len(per))
    return list(chain.from_iterable(per)), counts


_NOT_TEXT = pa.array(["link", "media"])
_TAG_SET = pa.array(IMPORTANT_TAGS)


def _text_spans(spans: pa.ChunkedArray | pa.Array):
    """(block row, kind, text, offset) of every text span of a block's
    ``spans`` column, in doc and span order (link and media spans carry no
    tokens, as in ``doc_token_stream``)."""
    if isinstance(spans, pa.ChunkedArray):
        spans = (spans.combine_chunks() if spans.num_chunks
                 else pa.array([], type=spans.type))
    flat = pc.list_flatten(spans)
    kind = pc.struct_field(flat, "kind")
    idx = np.flatnonzero(pc.invert(pc.is_in(kind, value_set=_NOT_TEXT))
                         .to_numpy(zero_copy_only=False))
    doc = pc.list_parent_indices(spans).to_numpy()[idx].astype(np.int64)
    return (doc, kind.take(idx), pc.struct_field(flat, "text").take(idx),
            pc.struct_field(flat, "offset").take(idx))


def block_tokens(spans: pa.ChunkedArray | pa.Array) -> BlockTokens:
    """Tokenize a block's text spans: the block form of ``doc_token_stream``
    and ``doc_extents``."""
    span_doc, kind, text, offset = _text_spans(spans)
    offset = offset.to_numpy(zero_copy_only=False).astype(np.int64)
    tokens, counts = _tokenize_runs(_strings(text))
    within, span_len = _running_positions(tokens, counts)
    span_of = np.repeat(np.arange(len(counts)), counts)
    doc = span_doc[span_of]
    doc_starts = np.searchsorted(doc, np.arange(len(spans) + 1))

    # important-tag extents [offset, offset + len - 1]; doc_extents groups a
    # doc's extents by tag in first-seen tag order, each tag in span order
    tag = pc.fill_null(pc.index_in(kind, value_set=_TAG_SET), -1).to_numpy()
    imp = np.flatnonzero(tag >= 0)
    e_doc, e_tag = span_doc[imp], tag[imp].astype(np.int64)
    _, first, inv = np.unique(e_doc * len(IMPORTANT_TAGS) + e_tag,
                              return_index=True, return_inverse=True)
    o = np.lexsort((imp, first[inv], e_doc))
    imp = imp[o]
    return BlockTokens(
        tokens, doc, offset[span_of] + within, doc_starts,
        e_doc[o], e_tag[o], offset[imp], offset[imp] + span_len[imp] - 1)


def token_ranks(bt: BlockTokens) -> np.ndarray:
    """``positions_to_rank`` of each body token's position: the first tag
    in IMPORTANT_TAGS order with an extent of the same doc holding the
    position, else 1.0.  Per tag, the extents holding a point are counted
    as (#starts <= p) - (#ends < p) over doc-prefixed int64 keys — an
    empty [o, o-1] extent adds one to both counts and cancels."""
    q = (bt.doc << 32) + bt.pos
    conds = []
    for t in range(len(IMPORTANT_TAGS)):
        m = bt.ext_tag == t
        starts = np.sort((bt.ext_doc[m] << 32) + bt.ext_start[m])
        ends = np.sort((bt.ext_doc[m] << 32) + bt.ext_end[m])
        conds.append(np.searchsorted(starts, q, "right")
                     > np.searchsorted(ends, q, "left"))
    return np.select(conds, [TAG_RANK[t] for t in IMPORTANT_TAGS], 1.0)


def run_sums(vals: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Σ ``vals`` over each run, added strictly left to right — the order
    of Python's ``sum`` and of ``positions_to_rank``.  The 1.2 rank of
    b/strong makes float addition order visible, and numpy's reductions
    may add pairwise, so runs advance in lockstep instead: step k adds
    the k-th value of every run longer than k."""
    order = np.argsort(-lens, kind="stable")
    s, n = starts[order], lens[order]
    acc = np.zeros(len(order), dtype=np.float64)
    neg = -n
    for k in range(int(n[0]) if len(n) else 0):
        m = int(np.searchsorted(neg, -k, "left"))
        acc[:m] += vals[s[:m] + k]
    out = np.empty_like(acc)
    out[order] = acc
    return out


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
    the dedup shuffle. Docs with zero tokens are dropped (Filter.py:91-92).
    A doc's tokens are its text spans' ``index_tokens`` (the
    ``doc_token_stream`` tokens); one ``simhash64_block`` call hashes the
    whole block."""
    span_doc, _, text, _ = _text_spans(batch["spans"])
    tokens, counts = _tokenize_runs(_strings(text))
    n_tok = np.bincount(span_doc, weights=counts,
                        minlength=batch.num_rows).astype(np.int64)
    starts = np.zeros(batch.num_rows + 1, dtype=np.int64)
    np.cumsum(n_tok, out=starts[1:])
    keep = np.flatnonzero(n_tok)
    hashes = sh.simhash64_block([tokens[starts[i]:starts[i + 1]] for i in keep])
    kept = batch.select(["doc_id", "crawl_seq", "title"]).take(keep)
    return pa.table({
        "doc_id": kept["doc_id"], "crawl_seq": kept["crawl_seq"],
        "title": kept["title"], "n_tokens": n_tok[keep],
        "len_bucket": n_tok[keep] // bucket_size, "simhash": hashes,
    }).cast(FILTERED_SCHEMA)


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


def _stem_bucket(stem: str) -> int:
    """Stable stem-hash bucket of one stem (crc32, process-independent)."""
    return zlib.crc32(stem.encode("utf-8")) % N_STEM_BUCKETS


def stem_buckets(stems: pa.Array) -> np.ndarray:
    """``_stem_bucket`` of every stem as int32, through C-level maps."""
    crc = np.fromiter(map(zlib.crc32, map(str.encode, _strings(stems))),
                      dtype=np.int64, count=len(stems))
    return (crc % N_STEM_BUCKETS).astype(np.int32)


def emit_postings_batch(batch: pa.Table) -> pa.Table:
    """Surviving docs (with int64 doc_id already assigned) → posting rows for
    both the unigram and bigram indexes, with the Ranking weight precomputed.

    Rows carry a stable stem-hash ``bucket``: the scoring shuffle groups on
    the bucket (512 fat groups), NOT on the stem — bigram stems are
    near-unique, and millions of one-row groups make ``map_groups``
    pathological (per-group dispatch dominates).

    Block kernel, row for row equal to ``doc_stem_positions`` +
    ``positions_to_rank`` per doc, in the same row order (per doc:
    unigrams, then bigrams, each in first-seen stem order, title first):
    - the block's title and body tokens are factorized once and
      ``porter.stem`` runs once per distinct token;
    - bigram keys pair adjacent stem codes; body bigrams run across span
      boundaries (the stream is the concatenated file), title and body
      never pair with each other;
    - one lexsort on (doc, stem, title first, position) makes each
      posting's positions one run: title positions ascending as -(p+1),
      then body positions ascending;
    - ``wtf`` is each run's left-to-right float sum (``run_sums``), and
      ``bucket`` is computed once per distinct stem."""
    n_docs = batch.num_rows
    bt = block_tokens(batch["spans"])
    t_tokens, t_counts = _tokenize_runs(_strings(batch["title"]))
    t_pos, _ = _running_positions(t_tokens, t_counts)
    t_doc = np.repeat(np.arange(n_docs), t_counts)
    n_title = len(t_tokens)

    codes, uniq = pd.factorize(np.array(t_tokens + bt.tokens, dtype=object))
    stem_code, stems = pd.factorize(
        np.array(list(map(porter.stem, uniq)), dtype=object))
    stem = stem_code[codes]
    n_stems = len(stems)

    # bigrams: adjacent tokens of one doc's title, or of one doc's body
    tok_doc = np.concatenate([t_doc, bt.doc])
    pair = np.flatnonzero(tok_doc[:-1] == tok_doc[1:])
    pair = pair[pair != n_title - 1]                 # title → body seam
    bg_code, bg_keys = pd.factorize(stem[pair] * n_stems + stem[pair + 1])
    stem_arr = pa.array(stems, type=pa.string())
    terms = pa.concat_arrays([stem_arr, pc.binary_join_element_wise(
        stem_arr.take(bg_keys // n_stems), stem_arr.take(bg_keys % n_stems),
        " ")]) if len(pair) else stem_arr

    # entries: unigrams (title, body), then bigrams (title, body), so the
    # lowest entry index of a posting is its first-seen order in its doc
    tok_pos = np.concatenate([t_pos, bt.pos])
    is_body = np.arange(len(tok_doc)) >= n_title
    rank = np.concatenate([np.full(n_title, TITLE_RANK), token_ranks(bt)])
    e_doc = np.concatenate([tok_doc, tok_doc[pair]])
    e_term = np.concatenate([stem, n_stems + bg_code])
    e_body = np.concatenate([is_body, is_body[pair]])
    e_pos = np.concatenate([tok_pos, tok_pos[pair]])
    order = np.lexsort((e_pos, e_body, e_term, e_doc))
    if not len(order):
        return POSTINGS_SCHEMA.empty_table()
    s_doc, s_term = e_doc[order], e_term[order]
    brk = np.ones(len(order), dtype=bool)
    brk[1:] = (s_doc[1:] != s_doc[:-1]) | (s_term[1:] != s_term[:-1])
    starts = np.flatnonzero(brk)
    ends = np.append(starts[1:], len(order))
    wtf = run_sums(np.concatenate([rank, rank[pair]])[order], starts,
                   ends - starts)
    positions = pa.ListArray.from_arrays(
        pa.array(np.append(starts, len(order)), type=pa.int32()),
        pa.array(np.where(e_body, e_pos, -(e_pos + 1))[order], type=pa.int32()))
    # row order: per doc, postings by their first-seen entry
    rows = np.lexsort((np.minimum.reduceat(order, starts), s_doc[starts]))
    term = s_term[starts][rows]
    bucket = stem_buckets(terms)
    return pa.Table.from_arrays([
        terms.take(term),
        pc.take(batch["doc_num"], s_doc[starts][rows]).cast(pa.int64()),
        positions.take(rows),
        pa.array(wtf[rows], type=pa.float64()),
        pa.array(term >= n_stems),
        pa.array(bucket[term]),
    ], schema=POSTINGS_SCHEMA)


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
    Arrow out — the nested ``positions`` column never leaves Arrow (one
    ``take`` reorders it); grouping is one sort + a run-length boundary
    vector from Arrow string compares instead of a per-row dict build.

    tf-idf = round((1 + log10(wtf)) * log10(N / df), 4), exactly as the
    serial indexer computes it: ``math.log10`` runs once per distinct
    ``wtf`` and per distinct df, the float64 product is formed in numpy
    (one IEEE multiply either way), and Python's ``round(v, 4)`` runs once
    per distinct product — the SQL oracle's value hash is sensitive to the
    half-even rounding of the exact float sequence, and numpy's log10 and
    scale-multiply round differ in rare ULP cases.

    Within-stem order is the contract (doc write order for bigrams,
    tfidf-desc stable for unigrams — Indexer.py:166-168); stem order
    within the bucket is not (consumers group by stem)."""
    n = len(group)
    if n == 0:
        return SCORED_SCHEMA.empty_table()
    idx = pc.sort_indices(group, sort_keys=[
        ("is_bigram", "ascending"), ("stem", "ascending"),
        ("doc_id", "ascending")])
    g = group.select(["stem", "is_bigram", "wtf"]).take(idx)
    stem = g["stem"].combine_chunks()
    isb = g["is_bigram"].to_numpy()
    brk = np.ones(n, dtype=bool)
    if n > 1:
        brk[1:] = (pc.not_equal(stem.slice(1), stem.slice(0, n - 1))
                   .to_numpy(zero_copy_only=False) | (isb[1:] != isb[:-1]))
    starts = np.flatnonzero(brk)
    sizes = np.diff(np.append(starts, n))
    gid = np.repeat(np.arange(len(sizes)), sizes)
    log10 = math.log10
    df, df_inv = np.unique(sizes, return_inverse=True)
    idf = np.array([log10(num_documents / s) for s in df.tolist()])[df_inv][gid]
    wtf = g["wtf"].to_numpy()
    w, w_inv = np.unique(wtf, return_inverse=True)
    tf = np.array([1.0 + log10(v) if v > 0 else 0.0 for v in w.tolist()])
    v, v_inv = np.unique(tf[w_inv] * idf, return_inverse=True)
    rounded = np.array([round(x, 4) for x in v.tolist()])
    tfidf = np.where(wtf > 0, rounded[v_inv], 0.0)
    # final within-group permutation: bigrams keep doc order (constant sort
    # key), unigrams go tfidf-desc stable — one global stable lexsort
    perm = np.lexsort((np.where(isb, 0.0, -tfidf), gid))
    out = group.select(["stem", "doc_id", "positions", "is_bigram", "bucket"])
    out = out.take(pc.take(idx, perm)).add_column(
        3, "tfidf", pa.array(tfidf[perm], type=pa.float64()))
    return out.cast(SCORED_SCHEMA)
