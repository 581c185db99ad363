"""Analytics over INTERLEAVED text+media span documents — the exact
input shape this engine crawls into (``stages/round_stage.py:SPAN_TYPE``,
the BASELINE input_hint: ``spans: array<struct<kind, text, media_ref,
offset>>``) treated as a first-class queryable column.

``span_stats_batch`` is a pure ``map_batches`` stage that never leaves
Arrow: the nested column is flattened ONCE (``pc.list_flatten`` — an
offset-buffer view, zero copy of the span payloads), per-span predicates
run as Arrow/numpy kernels, and per-doc aggregation is ``np.bincount``
over ``list_parent_indices``.  No Python loop touches a span, so the
stage streams at any scale; media payloads themselves stay out-of-row
(``media_ref`` pointers), exactly how the crawl stores them.

Outputs are integer counts plus one bool, byte-comparable to a SQL
oracle (the ``order_ok`` column asserts the span-sequence ORDER
invariant — offsets strictly increasing — that the reference's
row-for-row span equality check depends on).

Exchanges: two ``io.exchange`` sites, :func:`duplicate_media_positions`
and the scale branch of :func:`strip_duplicate_media_spans`, which also
runs one hash join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def span_stats_batch(batch: pa.Table, spans_col: str = "spans",
                     id_col: str = "doc_id") -> pa.Table:
    """Per-document span-sequence analytics, one row per input doc:

    - ``n_spans`` / ``n_text_spans`` / ``n_media_spans``;
    - ``text_chars``: total characters across text spans;
    - ``n_media_refs``: DISTINCT media_ref values among media spans;
    - ``order_ok``: offsets strictly increasing across the sequence
      (the span-order invariant of the reference equality check).
    """
    col = batch[spans_col].combine_chunks()
    flat = pc.list_flatten(col)
    parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
    n = len(batch)
    n_spans = np.bincount(parent, minlength=n).astype(np.int64)

    if len(flat):
        is_text = pc.equal(flat.field("kind"), "text").to_numpy(
            zero_copy_only=False)
        # fill_null before the weights: a null text/offset field would
        # put NaN weights through np.bincount (garbage int64 on cast) —
        # the crawler never emits null span fields, but the operator
        # shouldn't rely on that contract silently
        txt_len = pc.utf8_length(
            pc.fill_null(flat.field("text"), "")).to_numpy(
            zero_copy_only=False)
        off = pc.fill_null(flat.field("offset"), -1).to_numpy(
            zero_copy_only=False)
        n_text = np.bincount(parent[is_text], minlength=n).astype(np.int64)
        text_chars = np.bincount(
            parent, weights=np.where(is_text, txt_len, 0),
            minlength=n).astype(np.int64)
        media = ~is_text
        uniq = pd.DataFrame({
            "p": parent[media],
            "r": flat.field("media_ref").to_pandas()[media],
        }).drop_duplicates()
        n_refs = np.bincount(uniq["p"].to_numpy(),
                             minlength=n).astype(np.int64)
        order_ok = np.ones(n, dtype=bool)
        if len(off) > 1:
            same_doc = parent[1:] == parent[:-1]
            viol = same_doc & (off[1:] <= off[:-1])
            order_ok[parent[1:][viol]] = False
    else:
        n_text = text_chars = n_refs = np.zeros(n, dtype=np.int64)
        order_ok = np.ones(n, dtype=bool)

    return pa.table({
        id_col: batch[id_col],
        "n_spans": pa.array(n_spans),
        "n_text_spans": pa.array(n_text),
        "n_media_spans": pa.array(n_spans - n_text),
        "text_chars": pa.array(text_chars),
        "n_media_refs": pa.array(n_refs),
        "order_ok": pa.array(order_ok),
    })


def explode_media_refs_batch(batch: pa.Table, spans_col: str = "spans",
                             id_col: str = "doc_id") -> pa.Table:
    """Flatten the media side of interleaved docs into a (doc_id,
    media_ref, offset) table — the fan-out step that feeds media
    pipelines (``stages/multimodal.py``) from crawled span documents.
    Pure Arrow: list_flatten + a boolean filter, no per-span Python."""
    col = batch[spans_col].combine_chunks()
    flat = pc.list_flatten(col)
    parent = pc.list_parent_indices(col)
    ids = batch[id_col].take(parent)
    media = pc.invert(pc.equal(flat.field("kind"), "text"))
    return pa.table({
        id_col: pc.filter(ids.combine_chunks(), media),
        "media_ref": pc.filter(flat.field("media_ref"), media),
        "offset": pc.filter(flat.field("offset"), media),
    })


def media_text_pairs_batch(batch: pa.Table, spans_col: str = "spans",
                           id_col: str = "doc_id") -> pa.Table:
    """CLIP-style contrastive pair mining from interleaved docs: each
    media span pairs with its NEAREST text span in stored interleave
    order — the preceding non-empty text span if one exists in the doc,
    else the following one; media with no non-empty text span in the doc
    yields no pair.  One row per paired media span: ``(doc_id, media_ref,
    pos, caption, caption_side)`` with ``caption_side`` ∈ 'before'/'after'
    and ``pos`` the media span's interleave ordinal.

    Vectorized: text-span candidates are one global index array per
    block; each media span finds its neighbours with two
    ``np.searchsorted`` probes (validated against the doc boundary), no
    per-span Python."""
    col = batch[spans_col].combine_chunks()
    flat, parent, pos, _lens = _flat_with_pos(col)
    if not len(flat):
        return pa.table({
            id_col: pa.array([], type=pa.int64()),
            "media_ref": pa.array([], type=pa.string()),
            "pos": pa.array([], type=pa.int64()),
            "caption": pa.array([], type=pa.string()),
            "caption_side": pa.array([], type=pa.string()),
        })
    is_text = pc.equal(flat.field("kind"), "text").to_numpy(
        zero_copy_only=False)
    txt = pc.fill_null(flat.field("text"), "")
    words = _whitespace_word_counts(txt)
    cand = np.nonzero(is_text & (words > 0))[0]       # global text indices
    media_idx = np.nonzero(~is_text)[0]
    if len(cand):
        ins = np.searchsorted(cand, media_idx)
        before = np.where(ins > 0, cand[np.maximum(ins - 1, 0)], -1)
        after = np.where(ins < len(cand),
                         cand[np.minimum(ins, len(cand) - 1)], -1)
    else:
        before = after = np.full(len(media_idx), -1, dtype=np.int64)
    before_ok = (before >= 0) & (parent[before] == parent[media_idx])
    after_ok = (after >= 0) & (parent[after] == parent[media_idx])
    chosen = np.where(before_ok, before, after)
    keep = before_ok | after_ok
    m, c = media_idx[keep], chosen[keep]
    side = np.where(before_ok[keep], "before", "after")
    ids = batch[id_col].take(pa.array(parent[m], type=pa.int64()))
    txt_np = txt.to_numpy(zero_copy_only=False)
    refs = flat.field("media_ref").to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: ids,
        "media_ref": pa.array(refs[m], type=pa.string()),
        "pos": pa.array(pos[m]),
        "caption": pa.array(txt_np[c], type=pa.string()),
        "caption_side": pa.array(side, type=pa.string()),
    })


# ---------------------------------------------------------------------------
# interleaved rendering: spans → tokenizer-ready text
# ---------------------------------------------------------------------------


def _flat_with_pos(col: pa.Array):
    """Flatten a spans list column once; returns (flat_struct, parent_idx,
    within_doc_pos) — the within-doc ordinal counts BOTH text and media
    spans, i.e. the stored interleave position."""
    flat = pc.list_flatten(col)
    parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    lens = np.nan_to_num(lens, nan=0).astype(np.int64)
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    pos = np.arange(int(lens.sum()), dtype=np.int64) - starts
    return flat, parent, pos, lens


def _whitespace_word_counts(txt: pa.Array) -> np.ndarray:
    """Per-string whitespace word count with exact ``str.split()``
    semantics, vectorized: ``utf8_split_whitespace`` handles newlines and
    space runs but emits EMPTY items for empty / all-whitespace strings —
    count only the non-empty pieces."""
    parts = pc.utf8_split_whitespace(txt)
    items = pc.list_flatten(parts)
    ppar = pc.list_parent_indices(parts).to_numpy(zero_copy_only=False)
    nonempty = pc.greater(pc.utf8_length(items), 0).to_numpy(
        zero_copy_only=False)
    return np.bincount(ppar[nonempty], minlength=len(txt)).astype(np.int64)


def spans_to_text_batch(batch: pa.Table, spans_col: str = "spans",
                        id_col: str = "doc_id",
                        media_token: str = "<|image|>",
                        media_tokens: int = 4) -> pa.Table:
    """Linearize interleaved docs for a tokenizer — the render step every
    VLM training pipeline has: text spans contribute their text, media
    spans a placeholder token, joined with single spaces in STORED span
    order (the authoritative interleave; the offset field is metadata).
    Empty text pieces vanish (they carry no tokens).

    Integer-exact sequence cost rides along:
    ``n_positions = n_text_tokens + media_tokens · n_media_spans`` —
    the budget number a packing stage consumes (image spans cost a fixed
    patch-token budget in real VLM tokenizers).  The text-token metric is
    WHITESPACE WORDS (``str.split()`` semantics, vectorized as
    ``utf8_split_whitespace``): robust to newlines and space runs, and a
    whitespace-only span counts 0 — it neither renders nor charges the
    budget.

    Pure map; the only per-doc Python is one ``' '.join`` per document
    (pandas groupby-agg), every predicate/count is an Arrow/numpy kernel.
    """
    col = batch[spans_col].combine_chunks()
    flat, parent, _pos, _lens = _flat_with_pos(col)
    n = len(batch)
    if len(flat):
        is_text = pc.equal(flat.field("kind"), "text")
        is_text_np = is_text.to_numpy(zero_copy_only=False)
        txt = pc.fill_null(flat.field("text"), "")
        words = _whitespace_word_counts(txt)
        txt_toks = np.where(is_text_np, words, 0)
        piece = pc.if_else(is_text, txt, media_token)
        keep_piece = np.where(is_text_np, txt_toks > 0, True)
        joined = (pd.Series(piece.to_pandas()[keep_piece])
                  .groupby(parent[keep_piece]).agg(" ".join))
        rendered = joined.reindex(range(n)).fillna("").to_numpy(dtype=object)
        n_text = np.bincount(parent, weights=txt_toks,
                             minlength=n).astype(np.int64)
        n_media = np.bincount(parent[~is_text_np], minlength=n).astype(
            np.int64)
    else:
        rendered = np.full(n, "", dtype=object)
        n_text = n_media = np.zeros(n, dtype=np.int64)

    return pa.table({
        id_col: batch[id_col],
        "rendered_text": pa.array(rendered, type=pa.string()),
        "n_text_tokens": pa.array(n_text),
        "n_media_spans": pa.array(n_media),
        "n_positions": pa.array(n_text + media_tokens * n_media),
    })


# ---------------------------------------------------------------------------
# context-window chunking: split long interleaved docs at span boundaries
# ---------------------------------------------------------------------------


def chunk_interleaved_batch(batch: pa.Table, spans_col: str = "spans",
                            id_col: str = "doc_id",
                            budget: int = 1024,
                            media_tokens: int = 4) -> pa.Table:
    """Split each interleaved doc into CHUNKS of consecutive spans whose
    total position cost fits ``budget`` — the context-window prep step of
    a VLM training pipeline (greedy first-fit in stored span order; spans
    are atomic, media spans cost a fixed ``media_tokens`` patch budget,
    text spans their whitespace word count, the same metric as
    ``spans_to_text_batch`` so chunking and packing agree).  A single span
    costlier than the budget forms its own over-budget singleton chunk
    (documented: spans are never split).

    One output row per chunk: ``(doc_id, chunk_id, span_start, n_spans,
    n_positions, spans)``; ``span_start`` is the chunk's first span
    ordinal within its doc, so boundaries are pinned exactly.  Docs with
    zero spans yield zero chunks.

    Vectorized greedy: chunk boundaries come from ``np.searchsorted`` on
    the global flat cost cumsum, ONE round per chunk depth (all docs
    advance together), so no Python touches a span; the output spans
    column is a pure re-offsetting of the same flat struct values
    (chunks tile the flat stream contiguously in (doc, chunk) order —
    zero copy of the span payloads).
    """
    col = batch[spans_col].combine_chunks()
    flat, _parent, _pos, lens = _flat_with_pos(col)
    n = len(batch)
    doc_starts = np.cumsum(lens) - lens
    doc_ends = doc_starts + lens
    total = int(lens.sum())
    if total:
        is_text = pc.equal(flat.field("kind"), "text").to_numpy(
            zero_copy_only=False)
        words = _whitespace_word_counts(pc.fill_null(flat.field("text"), ""))
        cost = np.where(is_text, words, media_tokens).astype(np.int64)
        C = np.cumsum(cost)
    else:
        cost = np.zeros(0, dtype=np.int64)
        C = cost

    # greedy rounds: every still-open doc emits its next chunk per round
    chunk_doc, chunk_start, chunk_end = [], [], []
    cur = doc_starts.copy()
    active = np.nonzero(cur < doc_ends)[0]
    while len(active):
        s = cur[active]
        base = C[s] - cost[s]                 # cumsum before the chunk
        b = np.searchsorted(C, base + budget, side="right")
        b = np.minimum(b, doc_ends[active])   # never cross the doc
        b = np.maximum(b, s + 1)              # oversize span: singleton
        chunk_doc.append(active)
        chunk_start.append(s)
        chunk_end.append(b)
        cur[active] = b
        active = active[b < doc_ends[active]]

    if chunk_doc:
        cd = np.concatenate(chunk_doc)
        cs = np.concatenate(chunk_start)
        ce = np.concatenate(chunk_end)
        order = np.lexsort((cs, cd))          # (doc, chunk) order
        cd, cs, ce = cd[order], cs[order], ce[order]
    else:
        cd = cs = ce = np.zeros(0, dtype=np.int64)

    # chunks tile the flat stream contiguously: offsets = [0, ends...]
    offsets = np.concatenate(([0], ce)).astype(np.int32)
    spans_arr = pa.ListArray.from_arrays(pa.array(offsets), flat)
    n_chunks_per_doc = np.bincount(cd, minlength=n).astype(np.int64)
    chunk_id = (np.arange(len(cd), dtype=np.int64)
                - np.repeat(np.cumsum(n_chunks_per_doc)
                            - n_chunks_per_doc, n_chunks_per_doc))
    base_at = C[cs] - cost[cs] if len(cs) else np.zeros(0, dtype=np.int64)
    n_positions = (C[ce - 1] - base_at if len(ce)
                   else np.zeros(0, dtype=np.int64))
    ids = batch[id_col].take(pa.array(cd, type=pa.int64()))
    return pa.table({
        id_col: ids,
        "chunk_id": pa.array(chunk_id),
        "span_start": pa.array(cs - doc_starts[cd]),
        "n_spans": pa.array(ce - cs),
        "n_positions": pa.array(n_positions),
        spans_col: spans_arr,
    })


# ---------------------------------------------------------------------------
# corpus-wide media dedup at the SPAN level
# ---------------------------------------------------------------------------


def media_ref_positions_batch(batch: pa.Table, spans_col: str = "spans",
                              id_col: str = "doc_id") -> pa.Table:
    """(doc_id, pos, media_ref) for every media span; ``pos`` is the
    stored interleave ordinal (text+media), the key a span-level rewrite
    needs back."""
    col = batch[spans_col].combine_chunks()
    flat, parent, pos, _lens = _flat_with_pos(col)
    media = pc.invert(pc.equal(flat.field("kind"), "text")).to_numpy(
        zero_copy_only=False)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: pa.array(ids[parent[media]], type=pa.int64()),
        "pos": pa.array(pos[media]),
        "media_ref": pc.filter(flat.field("media_ref"), pa.array(media)),
    })


def duplicate_media_positions(ds: "ray.data.Dataset",
                              spans_col: str = "spans",
                              id_col: str = "doc_id",
                              num_buckets: int = 256) -> "ray.data.Dataset":
    """(doc_id, pos) of every media span whose media_ref occurred EARLIER
    in canonical corpus order (doc_id asc, span position asc) — keep-first
    media dedup, the span-level analogue of ``line_dedup``.  One
    fat-bucket exchange on ``hash(media_ref)``: all occurrences of a ref
    co-locate, so first-wins is exact and global; only refs + two ints
    ride the shuffle, never payloads or text."""
    from ..io import exchange, hash_bucket

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        dup = g[g.duplicated("media_ref", keep="first")]
        return pa.table({
            id_col: pa.array(dup[id_col].to_numpy(), type=pa.int64()),
            "pos": pa.array(dup["pos"].to_numpy(), type=pa.int64()),
        })

    return exchange(
        ds.map_batches(media_ref_positions_batch,
                       fn_kwargs={"spans_col": spans_col, "id_col": id_col},
                       batch_format="pyarrow"),
        lambda t: hash_bucket(t["media_ref"], num_buckets, "spidey-mediarf-0"),
        per_bucket)


def _rebuild_spans(col: pa.Array, keep: np.ndarray,
                   n_docs: int) -> tuple[pa.ListArray, np.ndarray]:
    """Filter a spans list column by a flat keep mask, rebuilding the
    list layout vectorized (new offsets from a bincount of kept parents —
    no per-doc Python)."""
    flat, parent, _pos, lens = _flat_with_pos(col)
    kept_per_doc = np.bincount(parent[keep], minlength=n_docs).astype(
        np.int64)
    offsets = np.concatenate(([0], np.cumsum(kept_per_doc)))
    vals = flat.filter(pa.array(keep))
    arr = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), vals)
    return arr, (lens - kept_per_doc)


def strip_duplicate_media_spans(ds: "ray.data.Dataset",
                                spans_col: str = "spans",
                                id_col: str = "doc_id",
                                num_buckets: int = 256,
                                broadcast_limit: int = 2_000_000,
                                ) -> "ray.data.Dataset":
    """Docs with later-occurrence duplicate media spans REMOVED (text
    spans untouched) plus an ``n_media_dropped`` column — cross-doc media
    dedup applied in place in the interleave, the media analogue of
    ``dedup.strip_duplicate_spans``.

    Adaptive attach (the same contract as strip_duplicate_spans): the
    drop set is bounded by the DUPLICATE count, so under
    ``broadcast_limit`` rows it broadcasts as a doc→positions dict and
    docs rewrite in one pure map (vectorized mask + list rebuild); beyond
    it, drops ⋈ docs co-partition on a doc-id hash and each doc-bucket
    applies its cuts — nothing corpus-sized reaches the driver."""
    import ray as _ray
    import ray.data  # noqa: F401

    drops = duplicate_media_positions(
        ds, spans_col=spans_col, id_col=id_col,
        num_buckets=num_buckets).materialize()

    if drops.count() <= broadcast_limit:
        tbl = drops.to_pandas()
        by_doc: dict = {}
        if len(tbl):   # an all-unique corpus yields a column-less frame
            for did, p in zip(tbl[id_col].to_numpy(), tbl["pos"].to_numpy()):
                by_doc.setdefault(int(did), []).append(int(p))
        drop_ref = _ray.put({d: np.asarray(v, dtype=np.int64)
                             for d, v in by_doc.items()})

        def strip(batch: pa.Table) -> pa.Table:
            from ..io import get_broadcast

            lookup = get_broadcast(drop_ref)   # one unpickle per worker
            col = batch[spans_col].combine_chunks()
            _flat, _parent, _pos, lens = _flat_with_pos(col)
            starts = np.cumsum(lens) - lens
            keep = np.ones(int(lens.sum()), dtype=bool)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            for i, did in enumerate(ids):
                p = lookup.get(int(did))
                if p is not None:
                    keep[starts[i] + p] = False
            spans_arr, dropped = _rebuild_spans(col, keep, len(batch))
            return pa.table({
                id_col: batch[id_col],
                spans_col: spans_arr,
                "n_media_dropped": pa.array(dropped),
            })

        return ds.map_batches(strip, batch_format="pyarrow")

    # scale branch: drops ⋈ docs co-partitioned on doc hash, per-bucket cut
    from ..io import exchange
    from .joins import hash_join

    joined = hash_join(ds, drops.map_batches(
        lambda t: t.rename_columns([id_col, "drop_pos"]),
        batch_format="pyarrow"), on=id_col, how="left",
        num_buckets=num_buckets)

    def per_doc_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ids, spans_out, dropped = [], [], []
        for did, rows in g.groupby(id_col, sort=False):
            cuts = {int(p) for p in rows["drop_pos"] if pd.notna(p)}
            spans = rows[spans_col].iloc[0]
            kept = [s for j, s in enumerate(spans) if j not in cuts]
            ids.append(did)
            spans_out.append(kept)
            dropped.append(len(spans) - len(kept))
        return pd.DataFrame({id_col: np.asarray(ids, dtype=np.int64),
                             spans_col: spans_out,
                             "n_media_dropped": np.asarray(dropped,
                                                           dtype=np.int64)})

    return exchange(
        joined, lambda t: (t[id_col].to_numpy(zero_copy_only=False)
                           % num_buckets).astype(np.int32),
        per_doc_bucket)
