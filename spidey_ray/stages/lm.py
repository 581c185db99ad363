"""N-gram language-model quality scoring (the CCNet recipe shape:
train a small LM on a trusted reference slice, score the whole corpus by
perplexity, filter on the score — Wenzek et al., "CCNet: Extracting High
Quality Monolingual Datasets from Web Crawl Data", LREC'20, which uses
KenLM; the smoothing here is Stupid Backoff, Brants et al., "Large
Language Models in Machine Translation", EMNLP'07, α = 0.4).

Scale shape: training is a distributed count aggregation (per-batch
Counter partials → one fat-bucket ``io.exchange`` → per-bucket sum, the
module's one exchange); the model
that leaves the cluster is the pruned count table only (``min_count``
knob), which is broadcast once via ``ray.put`` and read by every scoring
task — the classic small-side broadcast, exactly how CCNet ships its
KenLM binary to workers.  Scoring is a pure map stage.

Exactness contract: scores are emitted as INTEGER micro-log10-probs
(per-position ``floor(log10(p)·1e6 + 0.5)``, then a bigint sum), so the
result is invariant to float summation order and byte-comparable against
a SQL oracle computing the same cascade.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..io import exchange, hash_bucket
from .textstats import tokens_of

ALPHA = 0.4                      # stupid-backoff discount
# α² as a LITERAL, not ALPHA*ALPHA: the runtime product is 1 ulp off the
# parsed decimal 0.16, and the SQL oracle parses the same literal — the
# two sides must start the p1 cascade from the identical double
ALPHA2 = 0.16
_NUM_BUCKETS = 256


def ngram_count_rows(ds: "ray.data.Dataset", text_col: str = "text",
                     num_buckets: int = _NUM_BUCKETS) -> "ray.data.Dataset":
    """Distributed raw 1/2/3-gram counts of a corpus: rows
    (level, key, n) where key is the space-joined gram.  Per-batch
    Counter partials keep the exchange at vocabulary size, not corpus
    size; the groupby runs over ``hash(key) % num_buckets`` fat buckets."""

    def emit(batch: pa.Table) -> pa.Table:
        c1: Counter = Counter()
        c2: Counter = Counter()
        c3: Counter = Counter()
        for txt in batch[text_col].to_pylist():
            toks = tokens_of(txt or "")
            c1.update(toks)
            c2.update(map(" ".join, zip(toks, toks[1:])))
            c3.update(map(" ".join, zip(toks, toks[1:], toks[2:])))
        levels, keys, ns = [], [], []
        for lvl, c in ((1, c1), (2, c2), (3, c3)):
            levels.extend([lvl] * len(c))
            keys.extend(c.keys())
            ns.extend(c.values())
        return pa.table({
            "level": pa.array(levels, type=pa.int8()),
            "key": pa.array(keys, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
        })

    return exchange(
        ds.map_batches(emit, batch_format="pyarrow"),
        lambda t: hash_bucket(t["key"], num_buckets, "spidey-lmgram-00"),
        lambda g: g.groupby(["level", "key"], sort=False)["n"].sum()
        .reset_index())


def build_backoff_model(counts: "ray.data.Dataset",
                        min_count: int = 1) -> dict:
    """Collect the (pruned) count table into the broadcastable model
    dict {uni, big, tri, T}.  ``min_count`` > 1 prunes the long tail —
    the knob that keeps the driver-side model bounded at corpus scale
    (CCNet's KenLM is likewise a pruned artifact, not the corpus)."""
    df = counts.to_pandas()
    if df.empty:
        # an empty corpus yields a column-less frame; the model is the
        # uniform α²/T floor with T=1 (scorer-safe: every position scores
        # the unseen-word branch)
        return {"uni": {}, "big": {}, "tri": {}, "T": 1.0}
    if min_count > 1:
        df = df[(df["level"] == 1) | (df["n"] >= min_count)]
    uni = dict(zip(df.loc[df["level"] == 1, "key"],
                   df.loc[df["level"] == 1, "n"]))
    big = dict(zip(df.loc[df["level"] == 2, "key"],
                   df.loc[df["level"] == 2, "n"]))
    tri = dict(zip(df.loc[df["level"] == 3, "key"],
                   df.loc[df["level"] == 3, "n"]))
    return {"uni": uni, "big": big, "tri": tri,
            "T": float(sum(uni.values()))}


def get_broadcast_model(ref) -> dict:
    """Per-worker one-slot memo around ``ray.get`` of the broadcast model
    (see :func:`spidey_ray.io.get_broadcast` — dict payloads re-deserialize
    on every plain ``ray.get``)."""
    from ..io import get_broadcast

    return get_broadcast(ref)


def _micro_cascade(n3, nctx, n2, n1b, n1w, T) -> np.ndarray:
    """The per-position backoff cascade, float64-exact and shared by the
    per-doc and batch scorers (identical ops → identical integers):
    p = tri/bigctx | α·(big/uni_b) | α²·(uni_w/T) | α²·(1/T)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p3 = n3 / nctx
        p2 = ALPHA * (n2 / n1b)
        p1 = np.where(n1w > 0, ALPHA2 * (n1w / T),
                      ALPHA2 * (1.0 / T))
        p = np.where((n3 > 0) & (nctx > 0), p3,
                     np.where((n2 > 0) & (n1b > 0), p2, p1))
        return np.floor(np.log10(p) * 1e6 + 0.5).astype(np.int64)


def score_logprob_micro(toks: list[str], model: dict) -> tuple[int, int]:
    """(n_scored, Σ floor(log10(p_i)·1e6 + 0.5)) over positions i ≥ 2
    (full trigram context), stupid backoff — see :func:`_micro_cascade`."""
    n = len(toks)
    if n < 3:
        return 0, 0
    uni, big, tri, T = model["uni"], model["big"], model["tri"], model["T"]
    m = n - 2
    n3 = np.fromiter(
        (tri.get(f"{toks[i]} {toks[i+1]} {toks[i+2]}", 0) for i in range(m)),
        dtype=np.float64, count=m)
    nctx = np.fromiter(
        (big.get(f"{toks[i]} {toks[i+1]}", 0) for i in range(m)),
        dtype=np.float64, count=m)
    n2 = np.fromiter(
        (big.get(f"{toks[i+1]} {toks[i+2]}", 0) for i in range(m)),
        dtype=np.float64, count=m)
    n1b = np.fromiter(
        (uni.get(toks[i + 1], 0) for i in range(m)),
        dtype=np.float64, count=m)
    n1w = np.fromiter(
        (uni.get(toks[i + 2], 0) for i in range(m)),
        dtype=np.float64, count=m)
    micro = _micro_cascade(n3, nctx, n2, n1b, n1w, T)
    return m, int(micro.sum())


def score_batch_micro(texts: list, model: dict
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Batch scorer: (n_scored, micro_sum) int64 arrays aligned to
    ``texts``, byte-identical to calling :func:`score_logprob_micro` per
    doc.  All positions of all docs are keyed once and probed with ONE
    pandas hash-map pass per n-gram level (the per-token Python overhead
    of a doc-at-a-time loop is the hottest cost of the curation LM gate),
    then the shared cascade runs over the concatenation and per-doc sums
    fall out of ``np.add.reduceat`` — integer sums, order-invariant."""
    uni, big, tri, T = model["uni"], model["big"], model["tri"], model["T"]
    toks_per = [tokens_of(t or "") for t in texts]
    ms = np.array([max(0, len(t) - 2) for t in toks_per], dtype=np.int64)
    total = int(ms.sum())
    sums = np.zeros(len(texts), dtype=np.int64)
    if total == 0:
        return ms, sums
    k3: list[str] = []
    kctx: list[str] = []
    k2: list[str] = []
    k1b: list[str] = []
    k1w: list[str] = []
    for toks in toks_per:
        if len(toks) < 3:
            continue
        k3.extend(map(" ".join, zip(toks, toks[1:], toks[2:])))
        kctx.extend(map(" ".join, zip(toks[:-2], toks[1:-1])))
        k2.extend(map(" ".join, zip(toks[1:], toks[2:])))
        k1b.extend(toks[1:-1])
        k1w.extend(toks[2:])

    def probe(keys: list[str], table: dict) -> np.ndarray:
        # factorize first: one C hash pass over the batch, then probe
        # only the DISTINCT keys (unigram/bigram streams repeat heavily)
        codes, uniq = pd.factorize(np.asarray(keys, dtype=object),
                                   sort=False)
        vals = np.fromiter((table.get(k, 0) for k in uniq),
                           dtype=np.float64, count=len(uniq))
        return vals[codes]

    micro = _micro_cascade(probe(k3, tri), probe(kctx, big), probe(k2, big),
                           probe(k1b, uni), probe(k1w, uni), T)
    scored = ms > 0
    starts = np.concatenate(([0], np.cumsum(ms[scored])[:-1]))
    sums[scored] = np.add.reduceat(micro, starts)
    return ms, sums


def lm_perplexity(score_ds: "ray.data.Dataset",
                  train_ds: "ray.data.Dataset",
                  text_col: str = "text", id_col: str = "doc_id",
                  min_count: int = 1) -> "ray.data.Dataset":
    """Score ``score_ds`` docs against a stupid-backoff trigram LM
    trained (distributed) on ``train_ds``.  Output rows, integer-exact:
    (doc_id, n_scored, sum_log10p_micro) for docs with ≥ 3 tokens —
    perplexity = 10^(−sum/1e6/n_scored) is a trivial client-side
    derivation kept off the comparison contract on purpose."""
    model = build_backoff_model(
        ngram_count_rows(train_ds, text_col=text_col), min_count=min_count)
    model_ref = ray.put(model)

    def score(batch: pa.Table) -> pa.Table:
        mdl = get_broadcast_model(model_ref)
        ns, sums = score_batch_micro(batch[text_col].to_pylist(), mdl)
        keep = ns > 0
        ids = batch[id_col].to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            id_col: pa.array(ids, type=pa.int64()),
            "n_scored": pa.array(ns[keep], type=pa.int64()),
            "sum_log10p_micro": pa.array(sums[keep], type=pa.int64()),
        })

    return score_ds.map_batches(score, batch_format="pyarrow")
