"""Filter/indexer/query conformance: Ray pipeline vs serial oracle
(backend/Filter.py + Indexer.py + Query.py semantics)."""

import pytest

from spidey_ray.sources.synthetic_web import WebConfig


@pytest.fixture(scope="module")
def doc_rows():
    from spidey_ray.pipelines.oracle import crawl_serial

    o = crawl_serial(WebConfig())
    order = {u: i for i, u in enumerate(o.fetch_log)}
    return [
        dict(doc_id=u, title=o.titles[u], spans=s, crawl_seq=order[u])
        for u, s in o.documents.items()
    ]


@pytest.fixture(scope="module")
def serial_index(doc_rows):
    from spidey_ray.pipelines.index_oracle import filter_index_serial

    return filter_index_serial(doc_rows)


@pytest.fixture(scope="module")
def ray_index(ray_session, doc_rows, tmp_path_factory):
    import ray.data

    from spidey_ray import io as sio
    from spidey_ray.pipelines.filter_index import run_filter_index

    out = str(tmp_path_factory.mktemp("fi"))
    res = run_filter_index(ray.data.from_items(doc_rows), out)
    return res, sio.read_table_arrow(res.doc_meta_path), sio.read_table_arrow(res.postings_path)


def _meta_rows(meta):
    return sorted(
        (dict(zip(meta.column_names, r))
         for r in zip(*[meta[c].to_pylist() for c in meta.column_names])),
        key=lambda r: r["doc_id"],
    )


def _posting_lists(pt):
    """{is_bigram: {stem: [[doc_id, positions, tfidf], ...]}} in file order."""
    got = {False: {}, True: {}}
    for stem, d, pos, tf, bg in zip(
        pt["stem"].to_pylist(), pt["doc_id"].to_pylist(),
        pt["positions"].to_pylist(), pt["tfidf"].to_pylist(),
        pt["is_bigram"].to_pylist(),
    ):
        got[bg].setdefault(stem, []).append([d, pos, tf])
    return got


class TestFilterIndexMatchesOracle:
    def test_survivor_count(self, ray_index, serial_index):
        res, _, _ = ray_index
        assert res.num_documents == serial_index.num_documents

    def test_doc_meta(self, ray_index, serial_index):
        _, meta, _ = ray_index
        assert _meta_rows(meta) == serial_index.doc_meta

    def test_postings_exact(self, ray_index, serial_index):
        """Every posting list: same docs, same positions (title-negated),
        same 4-d.p. tf-idf, same within-stem order."""
        _, _, pt = ray_index
        got = _posting_lists(pt)
        for bg in (False, True):
            assert got[bg].keys() == serial_index.postings[bg].keys()
            for stem, plist in serial_index.postings[bg].items():
                assert got[bg][stem] == plist, (bg, stem)

    def test_title_positions_negated(self, serial_index):
        # Indexer.py:79: title occurrence encoded as -(pos+1)
        has_negative = any(
            any(p < 0 for p in posting[1])
            for plist in serial_index.postings[False].values()
            for posting in plist
        )
        assert has_negative


class TestQuery:
    @pytest.fixture(scope="class")
    def qi(self, ray_index):
        from spidey_ray.pipelines.query import QueryIndex

        res, meta, pt = ray_index
        return QueryIndex(pt, meta, res.num_documents)

    def test_top10_and_scores(self, qi):
        res, ms = qi.query("home")
        assert 0 < len(res) <= 10
        scores = [s for _, s in res]
        assert scores == sorted(scores, reverse=True)

    def test_and_semantics(self, qi):
        # every result of a two-term query must contain both stems
        res, _ = qi.query("home page")
        uni = qi.index[False]
        docs_home = {p[0] for p in uni.get("home", [])}
        docs_page = {p[0] for p in uni.get("page", [])}
        for doc_id, _s in res:
            assert doc_id in docs_home | docs_page  # union rounds may widen

    def test_all_stopword_query(self, qi):
        # Query.py:311-329: all-stopword query disables stopword removal
        res, _ = qi.query("the of and")
        assert isinstance(res, list)

    def test_intersect_shape(self, qi):
        out = qi._intersect([[1, 1.0], [5, 2.0]], [[5, 3.0], [7, 4.0]])
        assert out == [[5, 5.0]]

    def test_unknown_term_empty(self, qi):
        res, _ = qi.query("zzzzqqqqxxxx")
        assert res == []


class TestJoinPathDocNumbers:
    def test_join_path_identical_to_broadcast(self, ray_session, doc_rows,
                                              ray_index, tmp_path):
        """broadcast_limit=0 forces the scale path (distributed rank +
        streaming docs ⋈ doc-numbers join) — doc_meta and postings must be
        byte-identical to the broadcast-dict fast path."""
        import ray.data

        from spidey_ray import io as sio
        from spidey_ray.pipelines.filter_index import run_filter_index

        res = run_filter_index(ray.data.from_items(doc_rows),
                               str(tmp_path / "fij"), broadcast_limit=0)
        _, meta_b, post_b = ray_index
        meta_j = sio.read_table_arrow(res.doc_meta_path)
        post_j = sio.read_table_arrow(res.postings_path)

        def canon_meta(t):
            rows = [dict(zip(t.column_names, r))
                    for r in zip(*[t[c].to_pylist() for c in t.column_names])]
            return sorted(rows, key=lambda r: r["doc_id"])

        def canon_post(t):
            rows = list(zip(t["stem"].to_pylist(), t["is_bigram"].to_pylist(),
                            t["doc_id"].to_pylist(), t["tfidf"].to_pylist(),
                            [tuple(p) for p in t["positions"].to_pylist()]))
            return sorted(rows)

        assert canon_meta(meta_j) == canon_meta(meta_b)
        assert canon_post(post_j) == canon_post(post_b)


class TestPartitionedServing:
    def test_partitioned_index_equals_in_memory(self, ray_session, ray_index):
        """PartitionedQueryIndex (bucket-pruned on-disk scans, O(active-stems)
        memory) must rank identically to the in-memory QueryIndex."""
        from spidey_ray import io as sio
        from spidey_ray.pipelines.query import PartitionedQueryIndex, QueryIndex

        res, meta, post = ray_index
        qi = QueryIndex(post, meta, res.num_documents)
        pqi = PartitionedQueryIndex(res.postings_path, res.doc_meta_path,
                                    res.num_documents)
        for q in ("home", "page", "listing", "home page", "the and of",
                  "page listing home"):
            a, _ = qi.query(q)
            b, _ = pqi.query(q)
            assert a == b, q
            assert qi.results_with_info(q) == pqi.results_with_info(q), q
        # cache warm: second pass hits no disk misses and stays identical
        for q in ("home page", "page"):
            assert qi.query(q)[0] == pqi.query(q)[0]

    def test_cold_query_latency_under_20ms(self, ray_session, ray_index):
        """Cold partitioned query < 20 ms on the demo index: the replica's
        footer row-group index + the compacted key-sorted serving layout
        replace per-query dataset-scanner setup (was ~70 ms).  Best-of-5 to
        ride out this VM's hypervisor-steal bursts."""
        import time

        from spidey_ray.pipelines.query import PartitionedQueryIndex

        res, _, _ = ray_index
        # warm process-wide imports (pyarrow.compute etc.), NOT the caches —
        # each timed instance below starts with empty stem/doc caches
        PartitionedQueryIndex(res.postings_path, res.doc_meta_path,
                              res.num_documents).query("home page")
        best = float("inf")
        for _ in range(5):
            pqi = PartitionedQueryIndex(res.postings_path, res.doc_meta_path,
                                        res.num_documents)
            t0 = time.perf_counter()
            pqi.query("home page")
            best = min(best, (time.perf_counter() - t0) * 1000)
        assert best < 20.0, f"cold query {best:.1f} ms"

    def test_cache_overflow_mid_query(self, ray_session, ray_index):
        """Eviction at capacity must never drop entries the IN-FLIGHT query
        needs: with caches of size ~1 every multi-stem query overflows while
        some of its stems/docs are already cached (pre-fix: KeyError in
        _doc_info_retrieve / _doc_len once capacity is exceeded)."""
        from spidey_ray.pipelines.query import PartitionedQueryIndex, QueryIndex

        res, meta, post = ray_index
        qi = QueryIndex(post, meta, res.num_documents)
        pqi = PartitionedQueryIndex(res.postings_path, res.doc_meta_path,
                                    res.num_documents,
                                    stem_cache_size=1, doc_cache_size=1)
        for q in ("home", "home page", "page listing home", "home page",
                  "listing", "home"):
            assert qi.query(q)[0] == pqi.query(q)[0], q
            assert qi.results_with_info(q) == pqi.results_with_info(q), q


class TestBlockLayout:
    @pytest.mark.parametrize("path", ["broadcast", "scale"])
    @pytest.mark.parametrize("n_blocks", [1, 7, 64])
    def test_layout_matches_serial(self, ray_session, doc_rows, serial_index,
                                   tmp_path, n_blocks, path):
        """The same documents as 1, 7 or 64 input blocks give the serial
        oracle's doc_meta and posting lists, on the driver-numbered
        broadcast path and on the distributed-rank join path
        (``broadcast_limit=0``): doc numbers and per-stem order must not
        depend on how the input — or any materialized exchange input — is
        split into blocks."""
        import ray.data

        from spidey_ray import io as sio
        from spidey_ray.pipelines.filter_index import (
            _DOCNUM_BROADCAST_LIMIT,
            run_filter_index,
        )

        limit = _DOCNUM_BROADCAST_LIMIT if path == "broadcast" else 0
        ds = ray.data.from_items(doc_rows, override_num_blocks=n_blocks)
        res = run_filter_index(ds, str(tmp_path / "fi"),
                               broadcast_limit=limit)
        assert res.num_documents == serial_index.num_documents
        assert (_meta_rows(sio.read_table_arrow(res.doc_meta_path))
                == serial_index.doc_meta)
        assert (_posting_lists(sio.read_table_arrow(res.postings_path))
                == serial_index.postings)
