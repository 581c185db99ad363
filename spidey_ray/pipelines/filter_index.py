"""Filter + indexer pipeline: documents table → doc_meta + postings tables.

The reference runs two sequential full passes with an in-memory spill dict
and a k-way file merge (backend/IndexerMain.py:38-47, Indexer.py:228-306);
here it is a chain of Ray Data exchanges — the postings shuffle IS the
k-way merge (SURVEY.md §2.1 S7/S8):

1. ``filter_prepare_batch``: compact per-doc features (40 bytes/doc — spans
   never enter the dedup shuffle),
2. exact dedup by doc_id (a doc_id-hash exchange, first-in-crawl-order
   wins) + bucketed simhash near-dup (an exchange on ``len_bucket``)
   (Filter.py:49-51, 94-110),
3. doc-number assignment by crawl order (the reference's
   enumeration-order doc ids, Indexer.py:96; SURVEY.md §2.9): a stable
   argsort of the survivors' crawl_seq on the driver, which collects them
   anyway to broadcast the ordinal map; past ``broadcast_limit`` survivors,
   a distributed ``sort(crawl_seq)`` rank plus a docs ⋈ doc-numbers hash
   join instead,
4. doc_meta, written key-sorted (``sort(doc_id)`` + ``repartition``),
5. ``emit_postings_batch`` + an exchange on ``bucket`` for
   df/tf-idf/per-stem ordering — replacing offload files, k-way merge and
   the post-index scoring rewrite (Indexer.py:142-173) — then a
   ``repartition`` to compact the files.

That is six exchanges on the broadcast path — four shuffles (three
``io.exchange`` groupings, on the doc_id hash, ``len_bucket`` and
``bucket``, and ``sort(doc_id)``) and two repartitions — and eight on the
scale path, which adds ``sort(crawl_seq)`` and the join's exchange.

**Every exchange's input is materialized** (``io.exchange`` does it for
the groupings and the join; its docstring gives the reason and the
measurement).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .. import io as sio
from ..stages.index_stages import (
    doc_extents,
    doc_token_stream,
    emit_postings_batch,
    filter_prepare_batch,
    near_dup_group,
    score_stem_group,
)

DOC_META_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("title", pa.string()),
        ("url", pa.string()),
        ("n_tokens", pa.int64()),
        ("tag_extents", pa.list_(pa.struct(
            [("tag", pa.string()), ("start", pa.int32()), ("end", pa.int32())]))),
    ]
)


@dataclass
class FilterIndexResult:
    doc_meta_path: str
    postings_path: str
    num_documents: int


def _attach_doc_num(batch: pa.Table, doc_num: dict) -> pa.Table:
    """Survivor docs of ``batch`` with their ``doc_num`` column attached."""
    mask = pa.array([u in doc_num for u in batch["doc_id"].to_pylist()])
    t = batch.filter(mask)
    nums = pa.array([doc_num[u] for u in t["doc_id"].to_pylist()], type=pa.int64())
    return t.append_column("doc_num", nums)


def _doc_meta_batch(batch: pa.Table) -> pa.Table:
    """doc_meta over survivor docs with ``doc_num`` attached (either path:
    the broadcast filter or the docs ⋈ doc-numbers join)."""
    out = {n: [] for n in DOC_META_SCHEMA.names}
    for url, title, spans, num in zip(
        batch["doc_id"].to_pylist(), batch["title"].to_pylist(),
        batch["spans"].to_pylist(), batch["doc_num"].to_pylist(),
    ):
        stream = doc_token_stream(spans)
        extents = doc_extents(spans)
        out["doc_id"].append(int(num))
        out["title"].append(title)
        out["url"].append(url)
        out["n_tokens"].append(len(stream))
        out["tag_extents"].append(
            [{"tag": t, "start": e[0], "end": e[1]}
             for t in extents for e in extents[t]]
        )
    return pa.Table.from_pydict(out, schema=DOC_META_SCHEMA)


def assign_doc_numbers(survivors: "ray.data.Dataset") -> "ray.data.Dataset":
    """Distributed rank over crawl_seq → (doc_id, doc_num) with contiguous
    crawl-order ordinals (the reference's enumeration doc ids, Indexer.py:96):
    sort, then a prefix-sum over the sorted blocks' row counts gives each
    block its offset — no driver-side enumeration of the corpus."""
    import ray

    mat = survivors.sort("crawl_seq").materialize()
    bundles = list(mat.iter_internal_ref_bundles())

    @ray.remote
    def _rank_block(block, offset: int) -> pa.Table:
        import numpy as np
        import pandas as pd

        if isinstance(block, pd.DataFrame):        # pandas-format block
            ids = (block["doc_id"].tolist()
                   if "doc_id" in block.columns else [])
        elif len(block) and "doc_id" in block.column_names:
            ids = block["doc_id"].to_pylist()
        else:                                      # empty shuffle block
            ids = []
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "doc_num": pa.array(
                np.arange(offset, offset + len(ids), dtype=np.int64)),
        })

    refs, off = [], 0
    for b in bundles:
        for block_ref, meta in zip(b.block_refs, b.metadata):
            refs.append(_rank_block.remote(block_ref, off))
            off += meta.num_rows
    if not refs:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], type=pa.string()),
            "doc_num": pa.array([], type=pa.int64())}))
    return ray.data.from_arrow_refs(refs)


# above this many survivors, attach doc numbers by a streaming hash join
# instead of broadcasting a url→ordinal dict into the stage closures
_DOCNUM_BROADCAST_LIMIT = 2_000_000


def run_filter_index(
    documents: "ray.data.Dataset",
    out_dir: str,
    bucket_size: int = 100,
    dup_threshold: float = 0.975,
    broadcast_limit: int = _DOCNUM_BROADCAST_LIMIT,
) -> FilterIndexResult:
    """documents(doc_id, spans, title, crawl_seq) → doc_meta + postings.

    Every exchange's input is materialized first (see the module
    docstring)."""
    docs = documents

    # 1-2. features + exact dedup (first crawl wins) + bucketed near-dup
    # exact dedup first-crawl-wins, fat-bucketed: grouping on the raw
    # doc_id URL would make one near-singleton group per document over the
    # whole corpus (the sort-shuffle slow path) — instead hash(doc_id)%256
    # is the shuffle key and min-crawl_seq per doc_id is a vectorized
    # idxmin inside each bucket (idxmin = stable-sort head(1): first
    # occurrence of the minimum wins ties, same as before)
    def _first_crawl_wins(g: pd.DataFrame) -> pd.DataFrame:
        return g.loc[g.groupby("doc_id")["crawl_seq"].idxmin()]

    firsts = sio.exchange(
        docs.map_batches(filter_prepare_batch,
                         fn_kwargs={"bucket_size": bucket_size},
                         batch_format="pyarrow"),
        lambda t: sio.hash_bucket(t["doc_id"], 256, "spidey-fidx-0000"),
        _first_crawl_wins,
    )
    survivors = (
        sio.exchange(firsts, "len_bucket",
                     lambda g: near_dup_group(g, dup_threshold))
        .select_columns(["doc_id", "crawl_seq"])
        .materialize()
    )
    n_docs = survivors.count()

    # 3. doc-number assignment by crawl order (reference doc-id semantics)
    if n_docs <= broadcast_limit:
        # fast path: the survivors are collected anyway to broadcast the
        # ordinal map, so rank them here — a stable argsort on crawl_seq,
        # no distributed sort
        sdf = (survivors.to_pandas() if n_docs
               else pd.DataFrame({"doc_id": [], "crawl_seq": []}))
        order = np.argsort(sdf["crawl_seq"].to_numpy(), kind="stable")
        doc_num = dict(zip(sdf["doc_id"].to_numpy()[order], range(n_docs)))
        numbered = docs.map_batches(
            _attach_doc_num, fn_kwargs={"doc_num": doc_num},
            batch_format="pyarrow")
    else:
        # scale path: a distributed rank, then survivors ⋈ docs by doc_id —
        # both sides stream, the ordinal map never materializes anywhere
        # (round-1 verdict: the closure-captured dict is corpus-sized at 100×)
        from ..stages.joins import hash_join

        ranked = assign_doc_numbers(survivors)
        numbered = hash_join(docs, ranked, on="doc_id",
                             num_buckets=256).materialize()

    # serving layout: key-sorted + compacted (≈262k docs per file) so the
    # serving replica's footer index (_RowGroupIndex) prunes every lookup to
    # O(1) files with tight row-group statistics — dozens of writer-block-
    # sized fragments were the dominant cold-query cost
    meta_path = os.path.join(out_dir, "doc_meta")
    doc_meta = numbered.map_batches(_doc_meta_batch, batch_format="pyarrow")
    sio.write_table(
        doc_meta.materialize().sort("doc_id").materialize()
        .repartition(max(1, n_docs // 262_144)),
        meta_path)

    # 5. postings: emit + df/tf-idf/per-stem order in ONE shuffle, keyed on
    # the stable stem-hash bucket (512 fat groups — grouping on the raw stem
    # would make millions of one-row bigram groups, see emit_postings_batch)
    postings = sio.exchange(
        numbered.map_batches(emit_postings_batch, batch_format="pyarrow"),
        "bucket", lambda g: score_stem_group(g, n_docs),
        batch_format="pyarrow",
    ).materialize()
    # compact the per-bucket exchange blocks (order-preserving coalesce:
    # bucket runs stay contiguous, within-stem posting order survives);
    # ~4k docs' postings per file keeps per-query reads to a file or two
    postings_path = os.path.join(out_dir, "postings")
    sio.write_table(postings.repartition(max(1, n_docs // 4096)),
                    postings_path)

    # num_documents.txt analog (Filter.py:130-131) so an index directory is
    # self-describing for serving
    import json

    with open(os.path.join(out_dir, "index_meta.json"), "w") as f:
        json.dump({"num_documents": n_docs}, f)

    return FilterIndexResult(meta_path, postings_path, n_docs)
