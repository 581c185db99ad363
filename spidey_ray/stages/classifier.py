"""fastText-shape hashed linear classifier: multinomial Naive Bayes over
hashed n-gram buckets.

The model-based quality/domain filter of the big LLM pipelines — GPT-3's
WebText-vs-CommonCrawl logistic classifier (Brown et al. 2020 §A),
CCNet's fastText language filter, FineWeb-Edu's quality scorer — is a
LINEAR model over hashed bag-of-n-gram features: cheap to train on a
labeled slice, cheap to apply to the whole corpus.  Multinomial Naive
Bayes is that same feature space with closed-form count-based training,
which makes it the right shape for a determinism-first distributed
engine: training is ONE bounded aggregation (no SGD order dependence),
scoring is a pure map, and both are bit-reproducible on any cluster.

Feature space shared with :mod:`stages/dsir.py` (Xie et al. NeurIPS'23
use the same featurization): unigrams + bigrams of ``tokens_of`` hashed
by ``md5(gram)[:3]`` into ``NUM_BUCKETS`` = 4096 buckets.

Scale shape, Ray-Data-first:

- **train**: per-batch ``np.bincount`` partials per label (≤ 4096-long
  arrays, never per-gram rows) → compacted ≤ |classes|·4097-row block
  partials, each added into int64 arrays on the driver as it arrives
  (``io.block_partials`` — no all-to-all for a key space this small);
  the driver holds one 4096-entry array per class plus a doc counter;
- **model**: per-(class, bucket) integer micro-log10 weights + integer
  micro-log10 class priors, broadcast ONCE via ``ray.put``;
- **score**: a pure map — block-level: one flat gram-bucket stream per
  batch (``dsir.gram_bucket_stream``: factorize + md5 per DISTINCT
  gram), one (k, G) weight gather and per-doc ``np.add.reduceat``
  segment sums (≡ the per-doc int64 matvec); argmax with a
  deterministic tie-break (lexicographically smallest label).

Exactness contract (the trick of ``stages/lm.py`` / ``stages/dsir.py``):
weights are rounded to INTEGER micro-log10 units first —
``floor(log10(p)·1e6 + 0.5)`` with the identical literal cascade on the
SQL side — and a document's class score is the int64 sum
``prior + Σ occurrences·weight``, invariant to summation order and
byte-comparable with a DuckDB oracle.

Smoothing: add-``ALPHA`` over the bucket space, so an UNSEEN bucket in
class c scores ``log10(ALPHA / (T_c + ALPHA·NUM_BUCKETS))`` — the dense
4096-wide arrays represent this for free; the SQL mirror coalesces
missing (class, bucket) counts to 0 before the same expression.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..io import block_partials
from .dsir import ALPHA, NUM_BUCKETS, _grams, gram_bucket_stream
from .textstats import tokens_of


def class_bucket_counts(ds: "ray.data.Dataset", text_col: str = "text",
                        label_col: str = "label", id_col: str = "doc_id"
                        ) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Per-class hashed-gram bucket counts + per-class doc counts (docs
    with ≥ 1 token), via per-batch bincount partials (≤
    |classes|·(NUM_BUCKETS+1) compacted rows per block) merged on the
    driver.  Returns ``({label: int64[NUM_BUCKETS]}, {label: n_docs})``.
    A row with a null label raises ``ValueError`` naming its ``id_col``."""

    def emit(batch: pa.Table) -> pa.Table:
        import pandas as pd

        if batch[label_col].null_count:
            # hand the offending ids to the driver instead of counting:
            # a null label would factorize to code -1 and break bincount
            null = pc.is_null(batch[label_col])
            ids = (batch[id_col].filter(null) if id_col in batch.column_names
                   else pa.nulls(batch[label_col].null_count))
            return pa.table({"null_label_id": ids})
        buckets_flat, lens = gram_bucket_stream(batch[text_col].to_pylist())
        kept = lens > 0
        doc_labs = np.asarray(batch[label_col].to_pylist(), dtype=object)[kept]
        codes, uniq = pd.factorize(doc_labs, sort=False)
        # one fused bincount over (label_code, bucket) pairs; column
        # NUM_BUCKETS of a label's row is its doc counter
        width = NUM_BUCKETS + 1
        fused = np.bincount(np.repeat(codes, lens[kept]) * width + buckets_flat,
                            minlength=len(uniq) * width).reshape(-1, width)
        fused[:, NUM_BUCKETS] = np.bincount(codes, minlength=len(uniq))
        k, b = np.nonzero(fused)
        return pa.table({
            "label": pa.array(uniq[k], type=pa.string()),
            "bucket": pa.array(b, type=pa.int32()),
            "n": pa.array(fused[k, b], type=pa.int64()),
        })

    # bounded key space (≤ |classes|·(NUM_BUCKETS+1) rows per block
    # partial): each partial is added into one int64 array per class on
    # the driver as ``io.block_partials`` hands it over — no sort-based
    # groupby exchange.  Driver memory is O(|classes|·NUM_BUCKETS).
    totals: dict[str, np.ndarray] = {}
    null_ids: list = []
    for part in block_partials(ds, emit):
        if "null_label_id" in part.column_names:
            null_ids.extend(part["null_label_id"].to_pylist())
            continue
        labs = np.asarray(part["label"].to_pylist(), dtype=object)
        b = part["bucket"].to_numpy().astype(np.int64)
        n = part["n"].to_numpy()
        for lab in dict.fromkeys(labs):
            m = labs == lab
            np.add.at(totals.setdefault(lab, np.zeros(NUM_BUCKETS + 1,
                                                      dtype=np.int64)),
                      b[m], n[m])
    if null_ids:
        raise ValueError(
            f"{len(null_ids)} training rows have a null {label_col!r}; "
            f"their {id_col!r} values: {null_ids[:50]}")
    return ({lab: a[:NUM_BUCKETS] for lab, a in totals.items()},
            {lab: int(a[NUM_BUCKETS]) for lab, a in totals.items()})


def nb_model_micro(counts: dict[str, np.ndarray],
                   ndocs: dict[str, int]
                   ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Integer micro-log10 NB model.  Returns ``(labels, priors, W)``
    with labels sorted (the tie-break order), ``priors`` int64[k] =
    floor(log10(docs_c / total_docs)·1e6 + 0.5), and ``W`` int64[k,4096]
    = floor(log10((cnt+ALPHA)/(T_c+ALPHA·NUM_BUCKETS))·1e6 + 0.5) —
    literal-for-literal the SQL oracle's expression."""
    labels = sorted(counts)
    total_docs = float(sum(ndocs.values()))
    priors = np.array(
        [int(np.floor(np.log10(ndocs[c] / total_docs) * 1e6 + 0.5))
         for c in labels], dtype=np.int64)
    rows = []
    for c in labels:
        dt = float(counts[c].sum()) + ALPHA * NUM_BUCKETS
        p = (counts[c] + ALPHA) / dt
        rows.append(np.floor(np.log10(p) * 1e6 + 0.5).astype(np.int64))
    return labels, priors, np.stack(rows)


def nb_classify(ds: "ray.data.Dataset", labels: list[str],
                priors: np.ndarray, weights: np.ndarray,
                text_col: str = "text", id_col: str = "doc_id"
                ) -> "ray.data.Dataset":
    """Score every doc with ≥ 1 token against the broadcast NB model:
    ``score_c = prior_c + Σ_grams W[c, bucket(gram)]`` (int64, order-
    independent), predict the argmax (ties → first label in sorted
    order).  Output: (id, pred_label, score_micro)."""
    model_ref = ray.put((list(labels), priors, weights))

    def score(batch: pa.Table) -> pa.Table:
        labs, pri, w = ray.get(model_ref)    # numpy: zero-copy reads
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        buckets, lens = gram_bucket_stream(batch[text_col].to_pylist())
        kept = lens > 0
        if not buckets.size:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "pred_label": pa.array([], type=pa.string()),
                "score_micro": pa.array([], type=pa.int64()),
            })
        # Σ_grams W[c, bucket(gram)] per doc, one class at a time: gather
        # the class's G-long weight stream and segment-sum it (no (k, G)
        # transient) — int64 reduceat, order-independent, identical to the
        # per-doc matvec
        starts = np.concatenate(([0], np.cumsum(lens[kept])[:-1]))
        s = np.empty((len(w), len(starts)), dtype=np.int64)
        for c in range(len(w)):
            np.add.reduceat(w[c, buckets], starts, out=s[c])
        s += pri[:, None]
        best = np.argmax(s, axis=0)          # first max = sorted-label tie-break
        return pa.table({
            id_col: pa.array(ids[kept], type=pa.int64()),
            "pred_label": pa.array(
                np.asarray(labs, dtype=object)[best], type=pa.string()),
            "score_micro": pa.array(s[best, np.arange(len(best))],
                                    type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def nb_train_classify(train_ds: "ray.data.Dataset",
                      corpus_ds: "ray.data.Dataset",
                      text_col: str = "text", label_col: str = "label",
                      id_col: str = "doc_id") -> "ray.data.Dataset":
    """Train on the labeled slice, classify the corpus — the quality/
    domain-filter composition (train once, pure-map the 100 TB side)."""
    counts, ndocs = class_bucket_counts(train_ds, text_col=text_col,
                                        label_col=label_col, id_col=id_col)
    if not counts:
        raise ValueError("training slice has no docs with tokens")
    labels, priors, weights = nb_model_micro(counts, ndocs)
    return nb_classify(corpus_ds, labels, priors, weights,
                       text_col=text_col, id_col=id_col)


def nb_reference(train: list[tuple[str, str]],
                 corpus: list[tuple[int, str]]
                 ) -> list[tuple[int, str, int]]:
    """Serial mirror of the exact train+classify rule (tests)."""
    import hashlib

    def buckets(txt):
        toks = tokens_of(txt or "")
        return [int(hashlib.md5(g.encode()).hexdigest()[:3], 16)
                for g in _grams(toks)] if toks else []

    counts: dict[str, np.ndarray] = {}
    ndocs: dict[str, int] = {}
    for lab, txt in train:
        bs = buckets(txt)
        if not bs:
            continue
        arr = counts.setdefault(lab, np.zeros(NUM_BUCKETS, dtype=np.int64))
        ndocs[lab] = ndocs.get(lab, 0) + 1
        for b in bs:
            arr[b] += 1
    labels, priors, w = nb_model_micro(counts, ndocs)
    out = []
    for did, txt in corpus:
        bs = buckets(txt)
        if not bs:
            continue
        occ = np.bincount(np.array(bs, dtype=np.int64),
                          minlength=NUM_BUCKETS).astype(np.int64)
        s = priors + w @ occ
        best = int(np.argmax(s))
        out.append((did, labels[best], int(s[best])))
    return out
