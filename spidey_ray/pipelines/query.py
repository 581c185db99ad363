"""Query serving over the postings + doc_meta tables.

Faithful re-expression of backend/Query.py: AND-boolean retrieval with
adaptive cutoffs (Query.py:144-171), bigram boost (:173-190), cosine-style
rescoring (:220-248), union-of-subqueries rounds (:307-359), top-10.

The reference serves from seek-offsets into a text file (Query.py:56-116);
here the index is columnar: postings load into an in-memory stem → list map
(one serving-actor's worth of state — SURVEY.md §2.3 T7).  At cluster scale
the same table serves via predicate-pushdown scans on ``stem``; the serving
data structure is the only swap.
"""

from __future__ import annotations

import math
import os
import time

import pyarrow as pa

from ..functions import porter
from ..functions.tokenize import (
    QUERY_STOPWORDS,
    bigram_tokenize,
    stem_bigram,
    tokenize,
)


class QueryIndex:
    NUM_RESULTS = 10       # Query.py:25
    MIN_LENGTH = 2         # Query.py:32

    def __init__(self, postings: pa.Table, doc_meta: pa.Table, num_documents: int):
        # stem -> [[doc_id, positions, tfidf], ...] preserving table order
        # (unigram: tfidf desc; bigram: doc order — Indexer.py:166-168)
        self.index: dict[bool, dict[str, list]] = {False: {}, True: {}}
        for stem, doc_id, positions, tfidf, is_bigram in zip(
            postings["stem"].to_pylist(), postings["doc_id"].to_pylist(),
            postings["positions"].to_pylist(), postings["tfidf"].to_pylist(),
            postings["is_bigram"].to_pylist(),
        ):
            self.index[is_bigram].setdefault(stem, []).append(
                [doc_id, positions, tfidf])
        # docInfo list indexed by doc_id (Query.py:27-30)
        meta = sorted(
            zip(doc_meta["doc_id"].to_pylist(), doc_meta["title"].to_pylist(),
                doc_meta["url"].to_pylist(), doc_meta["n_tokens"].to_pylist())
        )
        self.doc_info = [[t, u, n] for (_d, t, u, n) in meta]
        self.num_documents = num_documents
        self.stopwords = QUERY_STOPWORDS

    # -- tokenization (Query.py:42-54) ---------------------------------
    def tokenize_stop(self, text: str) -> list[str]:
        tokens = [t for t, _ in tokenize(text.strip())]
        return [t for t in tokens
                if t not in self.stopwords and len(t) >= self.MIN_LENGTH]

    def tokenize_bigram_stop(self, text: str) -> list[str]:
        def passcond(t: str) -> bool:
            a, b = t.split()
            return not (a in self.stopwords or b in self.stopwords)

        tokens = [t for t, _ in bigram_tokenize(tokenize(text.strip()))]
        return [t for t in tokens if passcond(t)]

    # -- retrieval ------------------------------------------------------
    def _doc_info_retrieve(self, text: str, use_bigram: bool) -> dict[str, list]:
        if use_bigram:
            words = self.tokenize_bigram_stop(text)
            stem_fn = stem_bigram
            table = self.index[True]
        else:
            words = self.tokenize_stop(text)
            stem_fn = porter.stem
            table = self.index[False]
        out: dict[str, list] = {}
        for w in words:
            s = stem_fn(w)
            out[s] = table.get(s, [])
        return out

    @staticmethod
    def _intersect(lst1: list, lst2: list) -> list:
        """Sum-scores intersection, result sorted by score asc (Query.py:192-215)."""
        d1 = {x[0]: x[1] for x in lst1}
        d2 = {x[0]: x[1] for x in lst2}
        common = set(d1) & set(d2)
        out = [[i, d1.get(i, 0) + d2.get(i, 0)] for i in common]
        out.sort(key=lambda x: x[1])
        return out

    def _and_boolean(self, info: dict[str, list]) -> list:
        """Adaptive cutoff 100→1600 doubling until >= 10 results (Query.py:144-171)."""
        if not info:
            return []
        items = list(info.items())
        cutoff, max_cutoff = 100, 1600
        while True:
            docs = [[p[0], p[2]] for p in items[0][1][:cutoff]]
            for _stem, plist in items[1:]:
                docs = self._intersect(docs, [[p[0], p[2]] for p in plist[:cutoff]])
            if cutoff >= max_cutoff:
                break
            if len(docs) < self.NUM_RESULTS:
                cutoff *= 2
                continue
            break
        return list(docs)

    def _bigram_scoring(self, docs: list, query_text: str) -> None:
        """Add bigram tf-idf to docs that also match a bigram (Query.py:173-190)."""
        prev_ids = set(x[0] for x in docs)
        cutoff = 999
        info = self._doc_info_retrieve(query_text, use_bigram=True)
        for _stem, plist in info.items():
            bg = [[p[0], p[2]] for p in plist[:cutoff]]
            bg_map = {x[0]: x[1] for x in bg}
            bg_ids = set(bg_map) & prev_ids
            for doc in docs:
                if doc[0] in bg_ids:
                    doc[1] += bg_map[doc[0]]

    def _tf_idf(self, doc_freq: int, term_freq: int) -> float:
        tf = 1 + math.log10(term_freq) if term_freq > 0 else 0
        return tf * math.log10(self.num_documents / doc_freq)

    def _query_freq(self, query_words: list[str], stem: str) -> int:
        return sum(1 for q in query_words if porter.stem(q) == stem)

    # -- doc-meta access hooks (overridden by PartitionedQueryIndex) ----
    def _prefetch_docs(self, doc_ids: list[int]) -> None:
        pass

    def _doc_len(self, doc_id: int) -> int:
        return self.doc_info[doc_id][2]

    def _doc_title_url(self, doc_id: int) -> list:
        return [self.doc_info[doc_id][0], self.doc_info[doc_id][1]]

    def _cosine_sim(self, query: str, info: dict[str, list], docs: list) -> None:
        """Query.py:220-248."""
        scores: dict[int, float] = {}
        qwords = query.split(" ")
        for stem, plist in info.items():
            if not plist:
                continue
            df = len(plist)
            q_freq = self._query_freq(qwords, stem)
            q_score = self._tf_idf(df, q_freq)
            for posting in plist:
                scores[posting[0]] = scores.get(posting[0], 0.0) + q_score * posting[2]
        self._prefetch_docs(list(scores))
        for doc_id in list(scores):
            doc_len = max(math.log10(self._doc_len(doc_id)), 1)
            scores[doc_id] = round(scores[doc_id] / doc_len, 3)
        for doc in docs:
            if doc[0] in scores:
                doc[1] = scores[doc[0]]

    def _results_util(self, text: str, use_bigram: bool) -> list:
        info = self._doc_info_retrieve(text, use_bigram)
        res = self._and_boolean(info)
        if len(info) > 1:
            if not use_bigram:
                self._bigram_scoring(res, text)
            self._cosine_sim(text, info, res)
        return res

    @staticmethod
    def _split_query(a: list, n: int) -> list[list]:
        k, m = divmod(len(a), n)
        return [a[i * k + min(i, m):(i + 1) * k + min(i + 1, m)] for i in range(n)]

    def _all_stopwords(self, ts: list[str]) -> bool:
        return all(t in QUERY_STOPWORDS for t in ts)

    def query(self, text: str) -> tuple[list, float]:
        """→ (top-10 [[doc_id, score]], elapsed ms)  (Query.py:317-365)."""
        start = time.perf_counter()
        res: dict[int, float] = {}
        div = 1
        ts = text.split()

        all_stop = self._all_stopwords(ts)
        if all_stop:
            self.stopwords = frozenset()

        while len(res) < self.NUM_RESULTS and div <= len(ts):
            subres: dict[int, float] = {}
            for part in self._split_query(ts, div):
                for doc_id, score in self._results_util(" ".join(part), all_stop):
                    subres[doc_id] = subres.get(doc_id, 0) + score
            for k, v in subres.items():
                if k not in res:          # first-round-wins (Query.py:345-348)
                    res[k] = v
            div *= 2

        if all_stop:
            self.stopwords = QUERY_STOPWORDS

        ranked = sorted(res.items(), key=lambda x: x[1], reverse=True)
        ranked = [[d, s] for d, s in ranked[: self.NUM_RESULTS]]
        return ranked, (time.perf_counter() - start) * 1000.0

    def results_with_info(self, text: str) -> list[list]:
        """→ [[title, url], ...] top-10 (Query.py:281-282)."""
        ranked, _ms = self.query(text)
        self._prefetch_docs([d for d, _ in ranked])
        return [self._doc_title_url(d) for d, _ in ranked]


class _RowGroupIndex:
    """Persistent key → row-group map built from the parquet FOOTERS at
    replica init (metadata-only — no data pages touched): for every row
    group of every file, the min/max statistics of ``key_col``.  Queries
    then read exactly the matching row groups with
    ``ParquetFile.read_row_groups`` — no per-query dataset-scanner setup,
    which dominated cold latency (~10-30 ms per ``to_table`` call; direct
    row-group reads are ~1 ms).  This is the Ray-side analogue of the
    reference's up-front stem→file-offset table (Query.py:56-72)."""

    def __init__(self, path: str, key_col: str):
        import pyarrow.parquet as pq_

        if os.path.isdir(path):
            paths = sorted(
                os.path.join(r, f)
                for r, _, fs in os.walk(path)
                for f in fs if f.endswith(".parquet"))
        else:
            paths = [path]
        if not paths:
            raise NotImplementedError(
                f"no parquet files under {path!r}: the partitioned serving "
                "index reads parquet footers directly — serve a Lance-"
                "written index from its parquet export (io.HAVE_LANCE "
                "layouts are not footer-indexable here)")
        self.files: list = []        # (ParquetFile, [(min,max)|None per rg])
        for p in paths:
            pf = pq_.ParquetFile(p)
            md = pf.metadata
            col = next(
                (j for j in range(md.num_columns)
                 if md.row_group(0).column(j).path_in_schema == key_col),
                None) if md.num_row_groups else None
            stats = []
            for i in range(md.num_row_groups):
                st = (md.row_group(i).column(col).statistics
                      if col is not None else None)
                stats.append((st.min, st.max)
                             if st is not None and st.has_min_max else None)
            self.files.append((pf, stats))
        # parquet reads release the GIL; a small SHARED pool (one per
        # process, not per instance — replicas and test loops construct
        # many indexes) turns N matched-file reads (~0.25 ms each, dozens
        # when the writer emitted many small blocks) into ~max(N/8) wall —
        # the remaining cold-latency term
        self._pool = _shared_read_pool()
        self._closed = False

    def close(self) -> None:
        """Release the parquet file handles (the shared pool stays up —
        it is process-owned).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for pf, _ in self.files:
            try:
                pf.close()
            except Exception:
                pass
        self.files = []

    def read(self, keys, columns: list[str]) -> pa.Table:
        """Concat of the row groups whose [min,max] covers any key, in file
        order (row order within a file is preserved, so within-stem posting
        order survives exactly as with the dataset scan).  Row groups with
        missing statistics are conservatively read.  Matching bisects the
        sorted key list against each row group's [min,max] — O(row_groups
        × log keys), not O(row_groups × keys) (a cold doc_meta read can
        carry hundreds of ids)."""
        from bisect import bisect_left

        if self._closed:
            raise RuntimeError(
                "_RowGroupIndex.read after close(): an empty result here "
                "would masquerade as 'no postings' — refuse instead")
        keys = sorted(keys)
        matched = []
        for pf, stats in self.files:
            rgs = []
            for i, mm in enumerate(stats):
                if mm is None:
                    rgs.append(i)
                    continue
                j = bisect_left(keys, mm[0])
                if j < len(keys) and keys[j] <= mm[1]:
                    rgs.append(i)
            if rgs:
                matched.append((pf, rgs))
        if not matched:
            empty = self.files[0][0].schema_arrow if self.files else None
            if empty is None:
                return pa.table({c: [] for c in columns})
            return empty.empty_table().select(columns)
        tabs = list(self._pool.map(
            lambda fr: fr[0].read_row_groups(fr[1], columns=columns),
            matched))
        return pa.concat_tables(tabs)


_READ_POOL = None


def _shared_read_pool():
    global _READ_POOL
    if _READ_POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _READ_POOL = ThreadPoolExecutor(max_workers=8)
    return _READ_POOL


class PartitionedQueryIndex(QueryIndex):
    """Corpus-scale serving: postings and doc_meta stay ON DISK.

    The in-memory ``QueryIndex`` loads the whole postings table into a
    serving actor — fine for one node's index, corpus-sized at 100×.  This
    variant keeps only a FOOTER INDEX in memory (``_RowGroupIndex``: per
    row group, the min/max of the pruning key, built once at replica init
    from parquet metadata) and serves every query with direct row-group
    reads instead:

    - postings: the row groups covering the query stems' hash buckets
      (``bucket`` is retained in the scored output exactly for this
      pruning; a stem's rows are contiguous in one file so within-stem
      posting order — tfidf-desc unigram / doc-order bigram,
      Indexer.py:166-168 — survives the read), stem/is_bigram filtered
      in-memory with Arrow kernels,
    - doc_meta: the row groups covering the scored doc ids.

    Both feed small LRU-ish caches, so a serving replica's memory is
    O(active stems), not O(corpus).  Replicas are stateless over the files
    — scale-out is N replicas behind the REST endpoint (serving.py)."""

    def __init__(self, postings_path: str, doc_meta_path: str,
                 num_documents: int, stem_cache_size: int = 65536,
                 doc_cache_size: int = 1 << 20):
        self._postings = _RowGroupIndex(postings_path, "bucket")
        self._meta = _RowGroupIndex(doc_meta_path, "doc_id")
        self.num_documents = num_documents
        self.stopwords = QUERY_STOPWORDS
        self._stem_cache: dict[tuple[str, bool], list] = {}
        self._stem_cache_size = stem_cache_size
        self._doc_cache: dict[int, tuple[str, str, int]] = {}
        self._doc_cache_size = doc_cache_size

    def close(self) -> None:
        """Release both footer indexes' parquet handles (test loops build
        many instances; fds would otherwise accumulate)."""
        self._postings.close()
        self._meta.close()

    def _doc_info_retrieve(self, text: str, use_bigram: bool) -> dict[str, list]:
        from ..stages.index_stages import _stem_bucket

        if use_bigram:
            words = self.tokenize_bigram_stop(text)
            stem_fn = stem_bigram
        else:
            words = self.tokenize_stop(text)
            stem_fn = porter.stem
        stems = [stem_fn(w) for w in words]
        missing = sorted({s for s in stems
                          if (s, use_bigram) not in self._stem_cache})
        if missing:
            import pyarrow.compute as pc_

            t = self._postings.read(
                {_stem_bucket(s) for s in missing},
                ["bucket", "stem", "doc_id", "positions", "tfidf",
                 "is_bigram"])
            t = t.filter(pc_.and_(
                pc_.is_in(t["stem"], value_set=pa.array(missing)),
                pc_.equal(t["is_bigram"], use_bigram)))
            loaded: dict[str, list] = {s: [] for s in missing}
            for stem, doc_id, positions, tfidf in zip(
                t["stem"].to_pylist(), t["doc_id"].to_pylist(),
                t["positions"].to_pylist(), t["tfidf"].to_pylist(),
            ):
                loaded[stem].append([doc_id, positions, tfidf])
            # Resolve EVERY stem this query needs before any eviction —
            # clearing first would drop already-cached stems of the
            # in-flight query and KeyError below (advice: cache overflow
            # must not evict entries the current query still needs).
            needed = {
                (s, use_bigram): (
                    loaded[s] if s in loaded
                    else self._stem_cache[(s, use_bigram)]
                )
                for s in set(stems)
            }
            if len(self._stem_cache) + len(missing) > self._stem_cache_size:
                self._stem_cache.clear()
            self._stem_cache.update(needed)
        return {s: self._stem_cache[(s, use_bigram)] for s in stems}

    def _prefetch_docs(self, doc_ids: list[int]) -> None:
        missing = sorted({int(d) for d in doc_ids if d not in self._doc_cache})
        if not missing:
            return
        import pyarrow.compute as pc_

        t = self._meta.read(missing, ["doc_id", "title", "url", "n_tokens"])
        t = t.filter(pc_.is_in(
            t["doc_id"], value_set=pa.array(missing, type=pa.int64())))
        # Snapshot everything the in-flight query needs (already-cached ids
        # included) BEFORE evicting, so the clear can't drop entries that
        # _doc_len/_doc_title_url will read right after this prefetch.
        needed = {int(d): self._doc_cache[int(d)]
                  for d in doc_ids if int(d) in self._doc_cache}
        for d, title, url, n in zip(
            t["doc_id"].to_pylist(), t["title"].to_pylist(),
            t["url"].to_pylist(), t["n_tokens"].to_pylist(),
        ):
            needed[int(d)] = (title, url, int(n))
        if len(self._doc_cache) + len(missing) > self._doc_cache_size:
            self._doc_cache.clear()
        self._doc_cache.update(needed)

    def _doc_len(self, doc_id: int) -> int:
        return self._doc_cache[int(doc_id)][2]

    def _doc_title_url(self, doc_id: int) -> list:
        info = self._doc_cache[int(doc_id)]
        return [info[0], info[1]]
