"""End-to-end training-data curation: the composed pipeline that the
per-operator stages exist for (the C4 / Gopher / CCNet / RefinedWeb /
FineWeb recipe shape):

    line dedup → C4 line/doc cleaning → Gopher repetition gate
      → LM quality gate → MinHash near-dedup → data-mix rebalance

Composition rules (what makes this 100 TB-shaped rather than a script):

- every per-doc step is ONE fused ``map_batches`` stage that carries the
  metadata columns through — no join is ever used to re-attach ``lang``
  / ``source`` to a filtered row;
- the only small-side state (the backoff LM) is trained by distributed
  count aggregation on a slice of the CURRENT survivors and broadcast
  once via ``ray.put`` — scoring and gating happen inline in the same
  batch pass, so the corpus-sized score table never exists;
- the only exchanges are the ones the semantics force: the LM's n-gram
  count merge and MinHash banding plus its pair dedup (fat-bucketed,
  capped — ``stages/dedup.py``), three ``io.exchange`` runs in all; the
  mix rebalance counts per block and merges on the driver.

Each constituent operator keeps its own DuckDB oracle (c4_line_filter,
strip_repeated_lines, gopher_repetition, lm_perplexity, domain_mix,
minhash path pytest-verified); the composition is checked by a pytest
that plants one victim per gate.
"""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from ..stages.dedup import minhash_dedup
from ..stages.lm import (build_backoff_model, get_broadcast_model,
                         ngram_count_rows, score_batch_micro)
from ..stages.sampling import mix_to_proportions
from ..stages.textstats import (c4_line_filter_batch,
                                gopher_repetition_batch,
                                strip_repeated_lines_batch)


def _take_meta(src: pa.Table, out: pa.Table, meta_cols: list[str],
               id_col: str) -> pa.Table:
    """Re-attach ``meta_cols`` to ``out`` (a same-batch row subset of
    ``src``) by positional lookup — an in-batch gather, never a join.
    Vectorized: one ``pc.index_in`` hash probe per batch, no Python dict."""
    if not meta_cols:
        return out
    import pyarrow.compute as pc

    take = pc.index_in(out[id_col], value_set=src[id_col].combine_chunks())
    for c in meta_cols:
        out = out.append_column(c, src[c].take(take))
    return out


def _persist(ds: "ray.data.Dataset", checkpoint_dir: str | None,
             name: str) -> "ray.data.Dataset":
    """Pin a pipeline stage's output so downstream consumers read cached
    blocks instead of re-executing the lazy upstream chain.

    With ``checkpoint_dir`` set, the stage is written to disk
    (``<dir>/<name>``, atomic rename) and re-read — the 100 TB posture:
    bounded by storage not object-store memory, and a failed downstream
    run resumes from the checkpoint.  Without it, ``materialize()`` pins
    blocks in the object store (which spills under pressure) — right for
    single-job runs where the survivors fit the cluster."""
    if checkpoint_dir:
        import os

        from .. import io as _io

        path = os.path.join(checkpoint_dir, name)
        _io.write_table(ds, path)
        return _io.read_table(path)
    return ds.materialize()


def curate(docs: "ray.data.Dataset", *,
           text_col: str = "text", id_col: str = "doc_id",
           meta_cols: list[str] | None = None,
           c4_min_lines: int = 3,
           max_dup_line_bp: int = 5000,
           max_top_2gram_bp: int = 2500,
           lm_train_mod: int = 10,
           lm_min_count: int = 2,
           lm_min_micro_per_token: int = -6_000_000,
           minhash_threshold: float = 0.8,
           mix_key: str | None = None,
           mix_shares: dict | None = None,
           checkpoint_dir: str | None = None) -> "ray.data.Dataset":
    """The composed curation pipeline; returns the surviving corpus with
    ``text`` holding the CLEANED text and ``meta_cols`` carried through.

    Gates, in order (each a documented operator with its own tests):

    1. in-document repeated-line removal (``strip_repeated_lines_batch``);
    2. C4 §2.2 line rules + doc cuts (``c4_line_filter_batch``,
       ``min_lines=c4_min_lines``);
    3. Gopher repetition gate: drop docs with ``dup_line_bp`` >
       ``max_dup_line_bp`` or ``top_2gram_bp`` > ``max_top_2gram_bp``;
    4. LM quality gate: stupid-backoff trigram LM trained on the
       ``id % lm_train_mod == 0`` slice of the CURRENT survivors, drop
       docs scoring under ``lm_min_micro_per_token`` micro-log10 per
       position (and docs too short to score);
    5. MinHash-LSH near-dedup at ``minhash_threshold``;
    6. optional mix rebalance to ``mix_shares`` over ``mix_key``.

    Physical plan (the part that matters at 100 TB): the cleaned corpus
    and the LM-gate survivors are each persisted ONCE (:func:`_persist`
    — object-store pin by default, disk checkpoint with
    ``checkpoint_dir``), so the expensive per-doc chain executes exactly
    once even though it is consumed four times downstream (LM training
    slice, MinHash banding, the dedup survivor filter, and the two
    passes of the mix rebalance).

    ``lm_min_count`` prunes 2/3-grams seen fewer times from the
    broadcast model — the knob that keeps the driver-side model bounded
    by the head of the distribution, not the corpus's distinct-trigram
    count (CCNet's KenLM is likewise a pruned artifact).  The default 2
    is the scale-safe choice; tiny test corpora where every trigram is a
    singleton should pass ``lm_min_count=1``.
    """
    meta = list(meta_cols or [])

    def clean(batch: pa.Table) -> pa.Table:
        # 1. in-doc line dedup (keeps every row, rewrites text)
        s = strip_repeated_lines_batch(batch, text_col=text_col,
                                       id_col=id_col)
        s = _take_meta(batch, s, meta, id_col).drop_columns(["n_removed"])
        s = s.rename_columns(
            [text_col if c == "clean_text" else c for c in s.column_names])
        # 2. C4 line/doc rules (drops rows, rewrites text)
        c = c4_line_filter_batch(s, text_col=text_col, id_col=id_col,
                                 min_lines=c4_min_lines)
        c = _take_meta(s, c, meta, id_col).drop_columns(["n_lines"])
        c = c.rename_columns(
            [text_col if col == "clean_text" else col
             for col in c.column_names])
        # 3. Gopher repetition gate (drops rows, text unchanged)
        g = gopher_repetition_batch(c, text_col=text_col, id_col=id_col)
        keep = (
            (g["dup_line_bp"].to_numpy() <= max_dup_line_bp)
            & (g["top_2gram_bp"].to_numpy() <= max_top_2gram_bp))
        return c.filter(pa.array(keep))

    # clean() executes exactly once over the corpus: both downstream
    # consumers (the LM training slice and the gate pass) read the
    # persisted blocks.
    cleaned = _persist(docs.map_batches(clean, batch_format="pyarrow"),
                       checkpoint_dir, "cleaned")

    # 4. LM gate: train on the id-mod slice of the survivors
    # (distributed counts over cached blocks — the slice is a filter,
    # not a re-clean), broadcast the pruned model, score + gate inline.
    def train_slice(t: pa.Table) -> pa.Table:
        d = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(d % lm_train_mod == 0))

    model = build_backoff_model(ngram_count_rows(
        cleaned.map_batches(train_slice, batch_format="pyarrow"),
        text_col=text_col), min_count=lm_min_count)
    model_ref = ray.put(model)

    def lm_gate(batch: pa.Table) -> pa.Table:
        mdl = get_broadcast_model(model_ref)
        ns, sums = score_batch_micro(batch[text_col].to_pylist(), mdl)
        keep = (ns > 0) & (sums >= lm_min_micro_per_token * ns)
        return batch.filter(pa.array(keep))

    # the LM scoring pass likewise runs once; MinHash consumes the
    # survivors twice (banding + survivor filter) and the mix rebalance
    # reads MinHash's survivors twice (count pass + sample pass), so those
    # are pinned too: all four read cached blocks.
    gated = _persist(cleaned.map_batches(lm_gate, batch_format="pyarrow"),
                     checkpoint_dir, "gated")
    cleaned = None  # drop the pin; only `gated` feeds downstream

    # 5. near-dedup, 6. mix
    deduped = _persist(minhash_dedup(gated, threshold=minhash_threshold,
                                     text_col=text_col),
                       checkpoint_dir, "deduped")
    if mix_key and mix_shares:
        return mix_to_proportions(deduped, mix_key, id_col, mix_shares)
    return deduped
