"""Output checks, each against a computation made apart from the program
or against a property the method must have.

Every ``check_*`` function is pure: it takes what the program returned and
what the reference says, and returns a list of error strings (empty when
the output is right).  The self-test feeds each one a planted wrong answer.

Reference computations that are slow (the serial crawl and the serial
filter+indexer) are cached (pickled) under the benchmark's work directory.
The cache key hashes the reference's inputs and the source of every module
of ``spidey_ray``, so a change to the program or to the inputs misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# ---------------------------------------------------------------------------
# cached references
# ---------------------------------------------------------------------------


def _source_digest() -> str:
    import spidey_ray

    pkg = os.path.dirname(spidey_ray.__file__)
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, pkg).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cached(cache_dir: str, kind: str, key_obj, compute):
    key = hashlib.sha256(json.dumps(
        [kind, key_obj, _source_digest()], sort_keys=True, default=str
    ).encode()).hexdigest()[:32]
    path = os.path.join(cache_dir, f"{kind}-{key}.pkl")
    if os.path.exists(path):
        with open(path, "rb") as f:
            return pickle.load(f)
    val = compute()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(val, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return val


def crawl_reference(web_cfg, settings, cache_dir: str) -> dict:
    """``pipelines/oracle.crawl_serial`` on the same web and settings:
    {fetch_log, seen (sorted hex url hashes), rounds, docs}; ``docs`` are
    the documents-table rows (doc_id, title, spans, crawl_seq)."""
    def compute():
        from spidey_ray.pipelines.oracle import crawl_serial

        o = crawl_serial(web_cfg, settings)
        order = {u: i for i, u in enumerate(o.fetch_log)}
        return dict(
            fetch_log=o.fetch_log,
            seen=sorted(h.hex() for h in o.seen_hashes),
            rounds=o.rounds,
            docs=[dict(doc_id=u, title=o.titles[u], spans=s,
                       crawl_seq=order[u]) for u, s in o.documents.items()],
        )

    return _cached(cache_dir, "crawl",
                   [asdict(web_cfg), asdict(settings)], compute)


def index_reference(docs: list[dict], cache_dir: str) -> dict:
    """``pipelines/index_oracle.filter_index_serial`` over ``docs``:
    {num_documents, doc_meta, postings: {"0"|"1": {stem: [[doc, pos, tfidf]]}}}."""
    def compute():
        from spidey_ray.pipelines.index_oracle import filter_index_serial

        r = filter_index_serial(docs)
        return dict(num_documents=r.num_documents, doc_meta=r.doc_meta,
                    postings={str(int(k)): v for k, v in r.postings.items()})

    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    return _cached(cache_dir, "index", digest, compute)


# ---------------------------------------------------------------------------
# crawl
# ---------------------------------------------------------------------------


def check_crawl(fetch_log: list[str], seen: set[str], ref: dict) -> list[str]:
    """Fetch order and seen set equal the serial oracle's."""
    errs = []
    if fetch_log != ref["fetch_log"]:
        i = next((k for k, (a, b) in enumerate(zip(fetch_log, ref["fetch_log"]))
                  if a != b), min(len(fetch_log), len(ref["fetch_log"])))
        errs.append(f"fetch order differs from the serial oracle at #{i} "
                    f"({len(fetch_log)} vs {len(ref['fetch_log'])} fetches)")
    want = set(ref["seen"])
    if seen != want:
        errs.append(f"seen set differs from the serial oracle: "
                    f"{len(seen - want)} extra, {len(want - seen)} missing")
    return errs


# ---------------------------------------------------------------------------
# corpus operators
# ---------------------------------------------------------------------------


def to_pandas(obj) -> pd.DataFrame:
    """Materialize an operator's result (Dataset, Arrow table or frame)."""
    return obj if isinstance(obj, pd.DataFrame) else obj.to_pandas()


def groupby_exact(lineitem_path: str) -> pd.DataFrame:
    """``groupby_agg`` in exact integer arithmetic: quantities and prices in
    hundredths, discounted prices in 1e-4 units (price·(1 − discount) with
    both factors in hundredths)."""
    t = pq.read_table(lineitem_path, columns=[
        "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
        "l_discount"]).to_pandas()
    qty = np.rint(t["l_quantity"].to_numpy() * 100).astype(np.int64)
    price = np.rint(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)
    disc = np.rint(t["l_discount"].to_numpy() * 100).astype(np.int64)
    df = pd.DataFrame({
        "l_returnflag": t["l_returnflag"], "l_linestatus": t["l_linestatus"],
        "qty_c": qty, "price_c": price, "disc_e4": price * (100 - disc)})
    g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
        qty_c=("qty_c", "sum"), price_c=("price_c", "sum"),
        disc_e4=("disc_e4", "sum"), n=("qty_c", "size"))
    return g.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def check_groupby(got: pd.DataFrame, exact: pd.DataFrame) -> list[str]:
    got = got.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    keys = ["l_returnflag", "l_linestatus"]
    if len(got) != len(exact) or not (got[keys].values == exact[keys].values).all():
        return [f"groupby_agg groups {got[keys].values.tolist()} != "
                f"{exact[keys].values.tolist()}"]
    errs = []
    for col, ecol, scale in (("sum_qty", "qty_c", 100),
                             ("sum_base_price", "price_c", 100),
                             ("sum_disc_price", "disc_e4", 10_000)):
        units = np.rint(got[col].to_numpy(dtype=np.float64) * scale).astype(np.int64)
        bad = np.flatnonzero(units != exact[ecol].to_numpy())
        for i in bad:
            errs.append(f"groupby_agg {col}[{got.loc[i, 'l_returnflag']}/"
                        f"{got.loc[i, 'l_linestatus']}] = {got.loc[i, col]!r}, "
                        f"exact {exact.loc[i, ecol]}/{scale}")
    if (got["n"].to_numpy() != exact["n"].to_numpy()).any():
        errs.append("groupby_agg counts differ")
    return errs


def sql_reference(data_dir: str, sql: str) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    try:
        for f in sorted(os.listdir(data_dir)):
            if f.endswith(".parquet"):
                con.sql(f"create view {f[:-8]} as select * from "
                        f"'{os.path.join(data_dir, f)}'")
        return con.sql(sql).df()
    finally:
        con.close()


def check_frame(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """The exact, dtype-checked, order-insensitive frame equality of
    tools/check_entry.py."""
    from tools.check_entry import canon

    g, w = canon(got), canon(want)
    if list(g.columns) != list(w.columns):
        return [f"{name}: columns {list(g.columns)} != {list(w.columns)}"]
    if len(g) != len(w):
        return [f"{name}: {len(g)} rows, oracle has {len(w)}"]
    try:
        pd.testing.assert_frame_equal(g, w, check_dtype=True, check_exact=True)
    except AssertionError as e:
        return [f"{name}: {str(e).splitlines()[0]}"]
    return []


def check_dedup(name: str, got: pd.DataFrame, docs: pd.DataFrame,
                text_of_output: bool) -> list[str]:
    """Output ⊆ input, ids unique, and no two exact-duplicate texts both
    survive.  ``text_of_output``: compare the output's own (cleaned) text
    rather than the input text of the surviving ids."""
    errs = []
    ids = got["doc_id"].astype("int64")
    if ids.duplicated().any():
        errs.append(f"{name}: a doc_id survives twice")
    extra = set(ids) - set(docs["doc_id"].astype("int64"))
    if extra:
        errs.append(f"{name}: {len(extra)} output ids are not input ids")
    if text_of_output:
        texts = got["text"]
    else:
        texts = docs.set_index("doc_id").loc[ids[ids.isin(docs["doc_id"])], "text"]
    dup = pd.Series(list(texts)).duplicated()
    if dup.any():
        errs.append(f"{name}: {int(dup.sum())} survivors repeat another "
                    f"survivor's text exactly")
    if len(got) == 0:
        errs.append(f"{name}: no document survives")
    return errs


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


POSTINGS_COLUMNS = ["stem", "doc_id", "positions", "tfidf", "is_bigram"]


def read_index(doc_meta_path: str, postings_path: str) -> tuple[list[dict], pa.Table]:
    """The built index as (doc_meta rows by doc_id, postings table)."""
    from spidey_ray import io as sio

    meta = sio.read_table_arrow(doc_meta_path)
    rows = sorted((dict(zip(meta.column_names, r)) for r in
                   zip(*[meta[c].to_pylist() for c in meta.column_names])),
                  key=lambda r: r["doc_id"])
    return rows, sio.read_table_arrow(postings_path).select(POSTINGS_COLUMNS)


def postings_table(postings: dict) -> pa.Table:
    """{"0"|"1": {stem: [[doc, positions, tfidf]]}} as a postings table,
    each stem's list in its order."""
    cols: dict[str, list] = {c: [] for c in POSTINGS_COLUMNS}
    for bg, stems in postings.items():
        for stem, plist in stems.items():
            for d, pos, tf in plist:
                cols["stem"].append(stem)
                cols["doc_id"].append(d)
                cols["positions"].append(pos)
                cols["tfidf"].append(tf)
                cols["is_bigram"].append(bg == "1")
    return pa.table(cols)


def _by_stem(t: pa.Table) -> pa.Table:
    # a stable sort: each stem's postings keep their table order
    return t.take(pc.sort_indices(
        t, sort_keys=[("is_bigram", "ascending"), ("stem", "ascending")]))


def check_index(doc_meta: list[dict], postings: pa.Table, ref: dict) -> list[str]:
    """doc_meta and every posting list (docs, positions, tf-idf, order)
    equal the serial filter+indexer's."""
    errs = []
    if doc_meta != ref["doc_meta"]:
        errs.append(f"doc_meta differs from the serial indexer "
                    f"({len(doc_meta)} vs {len(ref['doc_meta'])} rows)")
    want = postings_table(ref["postings"])
    try:
        same = _by_stem(postings).equals(_by_stem(want.cast(postings.schema)))
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        same = False
    if same:
        return errs
    if postings.num_rows != want.num_rows:
        errs.append(f"postings have {postings.num_rows} rows, the serial "
                    f"indexer {want.num_rows}")
    got: dict[str, dict] = {"0": {}, "1": {}}
    for stem, d, pos, tf, bg in zip(*[postings[c].to_pylist()
                                      for c in POSTINGS_COLUMNS]):
        got[str(int(bg))].setdefault(stem, []).append([d, pos, tf])
    for bg in ("0", "1"):
        g, w = got[bg], ref["postings"][bg]
        if g.keys() != w.keys():
            errs.append(f"postings[bigram={bg}] stems differ: "
                        f"{len(g.keys() - w.keys())} extra, "
                        f"{len(w.keys() - g.keys())} missing")
            continue
        bad = [s for s in w if g[s] != w[s]]
        if bad:
            errs.append(f"postings[bigram={bg}] differ for {len(bad)} stems, "
                        f"e.g. {bad[0]!r}")
    return errs or ["postings differ from the serial indexer"]


def reference_query_index(ref: dict):
    """In-memory ``QueryIndex`` over the serial postings and doc_meta.  The
    serial indexer's posting lists already have the layout the constructor
    builds from a postings table ({is_bigram: {stem: [[doc_id, positions,
    tfidf]]}}, in table order), so they are handed over as they are rather
    than round-tripped through a table of about 600,000 rows."""
    from spidey_ray.pipelines.query import QueryIndex

    meta = ref["doc_meta"]
    qi = QueryIndex(
        pa.table({c: [] for c in POSTINGS_COLUMNS}),
        pa.table({"doc_id": [m["doc_id"] for m in meta],
                  "title": [m["title"] for m in meta],
                  "url": [m["url"] for m in meta],
                  "n_tokens": [m["n_tokens"] for m in meta]}),
        ref["num_documents"])
    qi.index = {False: ref["postings"]["0"], True: ref["postings"]["1"]}
    return qi


def check_query(q: str, got: list, ranked: list, want: list) -> list[str]:
    """``got`` ([[title, url]] from results_with_info) equals the reference
    index's answer; ``ranked`` ([[doc_id, score]]) has ≤ 10 entries and
    non-increasing scores."""
    errs = []
    if got != want:
        errs.append(f"query {q!r}: top-10 differs from the in-memory "
                    f"reference ({len(got)} vs {len(want)} results)")
    if len(ranked) > 10 or len(got) > 10:
        errs.append(f"query {q!r}: more than 10 results")
    scores = [s for _d, s in ranked]
    if any(a < b for a, b in zip(scores, scores[1:])):
        errs.append(f"query {q!r}: scores increase {scores}")
    return errs
