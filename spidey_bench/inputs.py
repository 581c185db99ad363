"""Seeded inputs for every workload: synthetic-web configs, the corpus
tables the operator workload reads, and the search workload's query stream.

Everything here is a pure function of ``seed`` (and the workload's size
settings), so the same seed gives the same inputs in any process.  The
program under test only ever sees what these functions return.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Web shapes.  ``wide``: many hosts with long pages and branching equal to
# the host size, so a round admits most of a host and fetch+parse dominates.
# ``deep``: short pages, branching 3 and a 5 s politeness window, so the
# crawl takes many small rounds and the per-round fixed cost (admit, gates,
# robots, additions, checkpoint) dominates.  ``search``: the web whose
# documents the search workload indexes.
WEBS = {
    "wide": dict(web=dict(n_hosts=48, pages_per_host=48, branching=48,
                          cross_links=2, tokens_per_page=1200, n_seeds=48),
                 window=250.0),
    "deep": dict(web=dict(n_hosts=16, pages_per_host=96, branching=3,
                          cross_links=2, tokens_per_page=200, n_seeds=16),
                 window=5.0, stop_round=20),
    "search": dict(web=dict(n_hosts=32, pages_per_host=60, branching=60,
                            cross_links=2, tokens_per_page=150, n_seeds=32),
                   window=250.0),
}

# Engine shape shared by both crawl workloads (4 Ray CPUs).
ENGINE_KW = dict(n_seen_shards=4, n_host_shards=2, fetch_concurrency=4,
                 fetch_batch_size=16)

# Corpus scale: rows per table at scale 1.0 (the TPC-H-ish shape of the
# repo's sf testdata: 6 lineitems per order, 10 orders per customer).
CORPUS_ROWS = dict(lineitem=600_000, orders=150_000, customer=15_000,
                   events=100_000, documents=5_000)
CORPUS_SCALE = 0.1
LANG_SHARES = {"en": 0.44, "zh": 0.15, "es": 0.14, "de": 0.14, "fr": 0.13}
_VOCAB = ("a the key agg row scan slow fast table value part hash merge "
          "batch spark line sort window order data column join small "
          "customer query big group stream filter vector index shard "
          "page link crawl token rank score").split()


def web_config(kind: str, seed: int):
    """(WebConfig, CrawlSettings) of one web shape, seeded."""
    from spidey_ray.sources.synthetic_web import WebConfig
    from spidey_ray.state.politeness import CrawlSettings

    spec = WEBS[kind]
    return (WebConfig(seed=seed, **spec["web"]),
            CrawlSettings(round_window=spec["window"]))


def write_corpus(out_dir: str, seed: int, scale: float) -> dict[str, int]:
    """Write the five tables the corpus operators read as parquet files
    under ``out_dir``; returns {table: rows}."""
    rng = np.random.default_rng(seed)
    n = {t: max(50, int(r * scale)) for t, r in CORPUS_ROWS.items()}
    os.makedirs(out_dir, exist_ok=True)
    tables = {
        "lineitem": _lineitem(rng, n["lineitem"]),
        "orders": _orders(rng, n["orders"], n["customer"]),
        "customer": _customer(rng, n["customer"]),
        "events": _events(rng, n["events"]),
        "documents": _documents(rng, n["documents"]),
    }
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return {k: v.num_rows for k, v in tables.items()}


def _lineitem(rng, n: int) -> pa.Table:
    # prices in cents and discounts in hundredths, so every value has the
    # data's own 2-decimal precision and exact sums are integer sums
    return pa.table({
        "l_orderkey": np.arange(n, dtype=np.int64) // 6,
        "l_quantity": rng.integers(1, 51, n).astype(np.float64),
        "l_extendedprice": rng.integers(90_000, 10_500_000, n) / 100.0,
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n)]),
    })


def _orders(rng, n: int, n_cust: int) -> pa.Table:
    return pa.table({
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_custkey": rng.integers(0, n_cust, n).astype(np.int64),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n)]),
        "o_totalprice": rng.integers(100_000, 50_000_000, n) / 100.0,
    })


def _customer(rng, n: int) -> pa.Table:
    segs = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                     "MACHINERY"])
    return pa.table({
        "c_custkey": np.arange(n, dtype=np.int64),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n)]),
        "c_mktsegment": pa.array(segs[rng.integers(0, 5, n)]),
    })


def _events(rng, n: int) -> pa.Table:
    # strictly increasing microsecond timestamps: as-of ties cannot occur
    gaps = rng.integers(1, 2_000_000, n)
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.cumsum(gaps).astype(
        "timedelta64[us]")
    kinds = np.array(["click", "view", "purchase", "signup", "error"])
    return pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": rng.integers(0, max(10, n // 60), n).astype(np.int64),
        "event_type": pa.array(kinds[rng.integers(0, 5, n)]),
    })


def _documents(rng, n: int) -> pa.Table:
    vocab = np.array(_VOCAB)
    lens = rng.integers(8, 90, n)
    texts = [" ".join(vocab[rng.integers(0, len(vocab), k)]) for k in lens]
    # about 3 % of documents repeat an earlier document's text exactly, so
    # near-duplicate removal has certain work to do
    for i in np.flatnonzero(rng.random(n) < 0.03):
        if i:
            texts[i] = texts[int(rng.integers(0, i))]
    langs = np.array(list(LANG_SHARES))
    lang = langs[rng.choice(len(langs), n, p=list(LANG_SHARES.values()))]
    return pa.table({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": pa.array(texts),
        "lang": pa.array(lang),
        "source": pa.array([f"src{i % 20}" for i in range(n)]),
    })


# The search workload's closed loop serves two streams of QUERIES queries of
# 1-3 terms each.  Neither comes from a query log (the repository has none):
# both are assumptions, chosen to sit on either side of the serving index's
# stem and document caches.
QUERIES = 1000
QUERY_VOCAB = 2000


def cold_stream(vocab: list[str], seed: int, n: int) -> list[str]:
    """``n`` queries whose terms are drawn without replacement from
    ``vocab``: no word occurs twice in the stream, so every stem lookup
    misses the index's stem cache."""
    rng = np.random.default_rng([seed, 1])
    words = [vocab[i] for i in rng.permutation(len(vocab))]
    out: list[str] = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        if len(words) < k:
            raise ValueError(f"vocabulary of {len(vocab)} words is too small "
                             f"for {n} cold queries")
        out.append(" ".join(words.pop() for _ in range(k)))
    return out


def zipf_stream(vocab: list[str], seed: int, n: int,
                repeat_share: float = 0.25) -> list[str]:
    """``n`` queries with terms drawn Zipf-like (rank^-1) from ``vocab``
    (ordered by descending document frequency); ``repeat_share`` of the
    queries repeat an earlier query of the stream verbatim, so most
    lookups hit the caches."""
    rng = np.random.default_rng([seed, 2])
    w = 1.0 / np.arange(1, len(vocab) + 1)
    w /= w.sum()
    out: list[str] = []
    for i in range(n):
        if out and rng.random() < repeat_share:
            out.append(out[int(rng.integers(0, len(out)))])
            continue
        k = int(rng.integers(1, 4))
        out.append(" ".join(vocab[j] for j in rng.choice(len(vocab), k, p=w)))
    return out
