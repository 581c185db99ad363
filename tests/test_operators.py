"""Unit tests for the training-data operator library: dedup family,
similarity search, text analysis, multimodal plumbing, page ingest."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from a warm windowsill and the birds sing in the garden trees "
        "every single morning before the sun rises over the quiet hills"
    )
    rows = []
    for i in range(20):
        rows.append({"doc_id": i, "text": f"{base} unique marker {i} appears here"})
    # near-dup cluster: 20/21/22 share almost all shingles
    rows.append({"doc_id": 21, "text": rows[0]["text"]})
    rows.append({"doc_id": 22, "text": rows[0]["text"] + " tiny tail"})
    # exact dup of doc 5
    rows.append({"doc_id": 30, "text": rows[5]["text"]})
    return ray.data.from_items(rows)


class TestExactDedup:
    def test_exact_dedup_keeps_min_id(self, docs_ds):
        from spidey_ray.stages.dedup import exact_dedup

        out = exact_dedup(docs_ds).to_pandas()
        assert 30 not in set(out["doc_id"])       # exact dup of 5
        assert 21 not in set(out["doc_id"])       # exact dup of 0
        assert {0, 5, 22} <= set(out["doc_id"])
        assert len(out) == 21  # 23 rows minus two exact dups


class TestMinHash:
    def test_lsh_finds_planted_near_dups(self, docs_ds):
        from spidey_ray.stages.dedup import minhash_lsh_pairs

        pairs = minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
        found = set(map(tuple, pairs[["doc_a", "doc_b"]].values))
        assert (0, 21) in found        # identical text
        assert (0, 22) in found or (21, 22) in found

    def test_dedup_removes_cluster_keeps_min(self, docs_ds):
        from spidey_ray.stages.dedup import minhash_dedup

        kept = set(minhash_dedup(docs_ds, threshold=0.7).to_pandas()["doc_id"])
        assert 0 in kept
        assert 21 not in kept

    def test_join_verify_path_identical(self, docs_ds):
        """verify_broadcast_limit=0 forces the hash-partitioned
        pairs ⋈ signatures join (the 100× scale path) — identical pairs."""
        from spidey_ray.stages.dedup import minhash_lsh_pairs

        a = minhash_lsh_pairs(docs_ds, threshold=0.7).to_pandas()
        b = minhash_lsh_pairs(docs_ds, threshold=0.7,
                              verify_broadcast_limit=0).to_pandas()
        key = lambda df: sorted(map(tuple, df[["doc_a", "doc_b", "jaccard_est"]].values))  # noqa: E731
        assert key(a) == key(b)

    def test_signature_estimates_jaccard(self):
        from spidey_ray.stages.dedup import (
            _perm_params, minhash_signature, shingle_hashes)

        a, b = _perm_params(128)
        s1 = shingle_hashes("a b c d e f g h i j k l m n o p", 3)
        s2 = shingle_hashes("a b c d e f g h i j k l m n o q", 3)
        sig1 = minhash_signature(s1, a, b)
        sig2 = minhash_signature(s2, a, b)
        est = (sig1 == sig2).mean()
        inter = len(set(s1) & set(s2))
        union = len(set(s1) | set(s2))
        assert abs(est - inter / union) < 0.2

    def test_union_find_resolution(self):
        import pandas as pd

        from spidey_ray.stages.dedup import resolve_duplicates

        labels = resolve_duplicates(
            pd.DataFrame({"doc_a": [1, 2, 7], "doc_b": [2, 3, 9]}))
        assert labels[3] == 1 and labels[2] == 1
        assert labels[9] == 7

    def test_dedup_pairs_matches_raw_groupby(self, ray_session):
        """Fat-bucketed pair dedup == one-group-per-pair dedup."""
        import ray.data

        from spidey_ray.stages.dedup import dedup_pairs

        rng = np.random.default_rng(11)
        df = pd.DataFrame({
            "doc_a": rng.integers(0, 40, 500).astype("int64"),
            "doc_b": rng.integers(40, 80, 500).astype("int64"),
        })
        got = dedup_pairs(ray.data.from_pandas(df)).to_pandas()
        exp = df.drop_duplicates(["doc_a", "doc_b"])
        key = lambda d: sorted(map(tuple, d[["doc_a", "doc_b"]].values))  # noqa: E731
        assert key(got) == key(exp)

    def test_thousand_identical_docs_bounded(self, ray_session):
        """A degenerate corpus (1,000 identical docs sharing every LSH band
        bucket) must complete quickly via the oversized-bucket star path —
        not the O(n²) all-pairs loop — with the same survivor set (min id
        only)."""
        import time

        import ray.data

        from spidey_ray.stages.dedup import minhash_dedup

        rows = [{"doc_id": i, "text": "exactly the same document body " * 20}
                for i in range(1000)]
        t0 = time.time()
        kept = set(minhash_dedup(ray.data.from_items(rows),
                                 threshold=0.8).to_pandas()["doc_id"])
        assert kept == {0}
        assert time.time() - t0 < 120   # pre-cap: ~8M pairs per band, stalls


class TestSimhashPairs:
    def test_identical_docs_pair(self, docs_ds):
        from spidey_ray.stages.dedup import simhash_pairs

        pairs = simhash_pairs(docs_ds, max_hamming=3).to_pandas()
        found = set(map(tuple, pairs[["doc_a", "doc_b"]].values))
        assert (5, 30) in found        # exact dup → hamming 0
        assert all(h <= 3 for h in pairs["hamming"])


class TestNgramJaccard:
    def test_exact_jaccard_verified(self, docs_ds):
        from spidey_ray.stages.dedup import ngram_jaccard_pairs

        pairs = ngram_jaccard_pairs(docs_ds, threshold=0.6).to_pandas()
        d = {(a, b): j for a, b, j in
             zip(pairs["doc_a"], pairs["doc_b"], pairs["jaccard"])}
        assert d.get((0, 21)) == 1.0   # identical shingle sets


class TestEmbeddingOps:
    @pytest.fixture(scope="class")
    def emb_ds(self, ray_session):
        import ray.data

        rng = np.random.default_rng(3)
        rows = []
        for i in range(60):
            rows.append({"vec_id": i,
                         "embedding": rng.standard_normal(16).tolist()})
        # planted near-dup of vec 0
        v0 = np.asarray(rows[0]["embedding"])
        rows.append({"vec_id": 100,
                     "embedding": (v0 + rng.normal(0, 0.01, 16)).tolist()})
        return ray.data.from_items(rows)

    def test_cosine_topk_exact(self, emb_ds):
        from spidey_ray.stages.similarity import cosine_topk

        df = emb_ds.to_pandas()
        mat = np.array(df["embedding"].tolist())
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        q = mat[0]
        expected = df["vec_id"].values[np.argsort(-(mat @ q), kind="stable")][:5]
        out = cosine_topk(emb_ds, q, k=5).to_pandas()
        assert list(out.sort_values("rank")["vec_id"]) == list(expected)

    def test_embedding_dup_pairs_finds_planted(self, emb_ds):
        from spidey_ray.stages.dedup import embedding_dup_pairs

        pairs = embedding_dup_pairs(emb_ds, threshold=0.95).to_pandas()
        assert (0, 100) in set(map(tuple, pairs[["doc_a", "doc_b"]].values))

    def test_filtered_cosine_topk_exact(self, emb_ds):
        from spidey_ray.stages.similarity import filtered_cosine_topk

        df = emb_ds.to_pandas()
        mat = np.array(df["embedding"].tolist())
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        q = mat[0]
        keep = (df["vec_id"] % 3 == 1).values          # predicate mirror
        sims = mat @ q
        order = np.argsort(-sims[keep], kind="stable")
        expected = df["vec_id"].values[keep][order][:5]
        out = filtered_cosine_topk(
            emb_ds, q, k=5,
            predicate=lambda t: pa.array(
                t["vec_id"].to_numpy(zero_copy_only=False) % 3 == 1),
        ).to_pandas()
        assert list(out.sort_values("rank")["vec_id"]) == list(expected)

    def test_ivf_filtered_search(self, emb_ds):
        import pyarrow.compute as pc

        from spidey_ray.stages.similarity import IvfIndex, filtered_cosine_topk

        import ray.data

        df = emb_ds.to_pandas()
        df["label"] = df["vec_id"] % 3
        labeled = ray.data.from_pandas(df)
        q = np.asarray(df["embedding"].iloc[3])
        pred = lambda t: pc.equal(t["label"], 1)  # noqa: E731
        idx = IvfIndex(n_lists=4, n_probe=4).build(
            labeled, meta_cols=("label",))        # probe-all = exact
        ann = [v for v, _ in idx.search(q, k=5, predicate=pred)]
        exact = list(filtered_cosine_topk(labeled, q, k=5, predicate=pred)
                     .to_pandas().sort_values("rank")["vec_id"])
        assert ann == exact

    def test_ivf_recall(self, emb_ds):
        from spidey_ray.stages.similarity import IvfIndex, cosine_topk

        df = emb_ds.to_pandas()
        q = np.asarray(df["embedding"].iloc[3])
        idx = IvfIndex(n_lists=4, n_probe=4).build(emb_ds)  # probe-all = exact
        ann = [v for v, _ in idx.search(q, k=5)]
        exact = list(cosine_topk(emb_ds, q, k=5).to_pandas()
                     .sort_values("rank")["vec_id"])
        assert ann == exact


class TestSemDedup:
    """SemDeDup (similarity.py:semdedup) vs a pure-numpy mirror of the
    same deterministic spec — rank-capped train sample, spherical
    k-means, argmax assignment, keep-farthest-from-centroid greedy."""

    @pytest.fixture(scope="class")
    def sem_corpus(self):
        rng = np.random.default_rng(11)
        ids, vecs, groups = [], [], []
        nid = 0
        for g in range(3):                       # 3 planted dup groups of 5
            base = rng.standard_normal(16)
            members = []
            for _ in range(5):
                ids.append(nid)
                members.append(nid)
                nid += 1
                vecs.append(base + rng.normal(0, 0.005, 16))
            groups.append(members)
        for _ in range(40):                      # singles
            ids.append(nid)
            nid += 1
            vecs.append(rng.standard_normal(16))
        perm = rng.permutation(len(ids))
        ids = np.asarray(ids, dtype=np.int64)[perm]
        vecs = np.asarray(vecs, dtype=np.float64)[perm]
        return ids, vecs, groups

    @staticmethod
    def _np_oracle(ids, vecs, n_clusters, eps, seed=42, train_cap=65536):
        from spidey_ray.stages.dedup import _mix64
        from spidey_ray.stages.similarity import (
            _unit, greedy_centroid_dedup, spherical_kmeans)

        u = _unit(vecs)
        rank = _mix64(ids.astype(np.uint64))
        train = u[np.lexsort((ids, rank))[:train_cap]]
        c = spherical_kmeans(train, n_clusters, seed=seed)
        sims = u @ c.T
        lst = sims.argmax(axis=1)
        cosc = sims[np.arange(len(u)), lst]
        keep_ids = []
        for cl in np.unique(lst):
            m = lst == cl
            o = np.lexsort((ids[m], cosc[m]))
            k = greedy_centroid_dedup(u[m][o], eps)
            keep_ids.extend(ids[m][o][k].tolist())
        return sorted(keep_ids)

    def test_matches_numpy_oracle_any_layout(self, ray_session, sem_corpus):
        import ray.data

        from spidey_ray.stages.similarity import semdedup

        ids, vecs, groups = sem_corpus
        expected = self._np_oracle(ids, vecs, n_clusters=6, eps=0.9)
        ds = ray.data.from_items(
            [{"vec_id": int(i), "embedding": v.tolist()}
             for i, v in zip(ids, vecs)])
        for layout in (ds, ds.repartition(7)):
            out = semdedup(layout, n_clusters=6, eps=0.9).to_pandas()
            assert sorted(out["vec_id"]) == expected
        # each planted group collapses to exactly one survivor
        surv = set(expected)
        for members in groups:
            assert len(surv & set(members)) == 1

    def test_greedy_chunk_boundary(self):
        from spidey_ray.stages.similarity import greedy_centroid_dedup

        # rows in priority order: dup pair split across chunks (0 and 3),
        # plus orthogonal singles — chunk=2 forces the cross-chunk matmul
        u = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.9999, 0.0141, 0.0],   # ~cos 0.9999 with row 0
        ])
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        keep = greedy_centroid_dedup(u, eps=0.95, chunk=2)
        assert keep.tolist() == [True, True, True, False]

    def test_anti_join_path_identical(self, ray_session, sem_corpus):
        import ray.data

        from spidey_ray.stages.similarity import semdedup

        ids, vecs, _ = sem_corpus
        ds = ray.data.from_items(
            [{"vec_id": int(i), "embedding": v.tolist()}
             for i, v in zip(ids, vecs)])
        bc = semdedup(ds, n_clusters=6, eps=0.9).to_pandas()
        aj = semdedup(ds, n_clusters=6, eps=0.9,
                      broadcast_limit=0).to_pandas()
        assert sorted(bc["vec_id"]) == sorted(aj["vec_id"])


class TestTextStats:
    def test_language_id_on_real_samples(self):
        # the driver testdata's lang column is synthetic (all rows are
        # English-ish jargon), so test the heuristic on genuine samples
        from spidey_ray.stages.textstats import language_id_batch

        samples = [
            ("en", "the cat is on the mat and this is a test of the system "
                   "that we are going to run for a while"),
            ("de", "der hund ist nicht mit der katze und das ist eine frage "
                   "für den mann mit dem großen haus"),
            ("es", "el perro es una mascota que vive con los niños en la casa "
                   "grande para que todos sean felices"),
            ("fr", "le chien est dans le jardin et les enfants sont dans la "
                   "maison pour que tout soit calme"),
            ("zh", "这是一个测试句子，用来验证语言识别的功能是否正常工作，我们希望它可以检测中文。"),
        ]
        t = pa.table({
            "doc_id": list(range(len(samples))),
            "text": [s for _, s in samples],
        })
        out = language_id_batch(t)
        assert out["pred_lang"].to_pylist() == [lang for lang, _ in samples]

    def test_token_counts_and_fingerprints_deterministic(self, ray_session):
        import ray.data

        from spidey_ray.stages.textstats import fingerprint_batch, token_count_batch

        rows = [{"doc_id": 0, "text": "one two three. four!"}]
        t = pa.Table.from_pylist(rows)
        tc = token_count_batch(t)
        assert tc["n_ws_tokens"][0].as_py() == 4
        assert tc["n_tokens"][0].as_py() == 4
        assert tc["n_bpe_tokens"][0].as_py() == 6  # words + '.' + '!'
        f1 = fingerprint_batch(t)
        f2 = fingerprint_batch(t)
        assert f1["fp_full"][0].as_py() == f2["fp_full"][0].as_py() != 0

    def test_quality_features(self):
        from spidey_ray.stages.textstats import quality_score_batch

        t = pa.Table.from_pylist(
            [{"doc_id": 0, "text": "the cat sat on the mat with a hat"}])
        out = quality_score_batch(t)
        assert 0 < out["stop_ratio"][0].as_py() < 1
        assert out["quality"][0].as_py() <= 1.0


class TestMultimodal:
    def test_decode_pipeline(self, ray_session):
        import ray.data

        from spidey_ray.stages.multimodal import media_feature_pipeline

        refs = ray.data.from_items(
            [{"media_ref": f"img://x/{i}"} for i in range(10)])
        out = media_feature_pipeline(refs).to_pandas()
        assert len(out) == 10
        assert (out["width"] >= 8).all() and (out["height"] >= 8).all()
        assert out["pix_mean"].between(0, 255).all()

    def test_decode_deterministic(self):
        from spidey_ray.stages.multimodal import _decode_fake, synth_payload

        w1, h1, px1 = _decode_fake(synth_payload("img://a"))
        w2, h2, px2 = _decode_fake(synth_payload("img://a"))
        assert (w1, h1) == (w2, h2) and (px1 == px2).all()

    def test_resize(self):
        from spidey_ray.stages.multimodal import (
            _decode_fake, resize_batch, synth_payload)

        t = pa.table({"media_ref": ["img://a"],
                      "payload": [synth_payload("img://a")]})
        out = resize_batch(t, target=8)
        w, h, px = _decode_fake(out["payload"][0].as_py())
        assert (w, h) == (8, 8) and px.shape == (8, 8)

    def test_real_codec_path_raises_without_pillow(self):
        from spidey_ray.stages.multimodal import MediaDecodeStage

        with pytest.raises(NotImplementedError):
            MediaDecodeStage(allow_real_codecs=True)


class TestPngCodec:
    """Pure-stdlib PNG codec: every unfilter path round-tripped against
    vectorized forward-filtered ground truth, plus palette expansion and
    the loud-refusal contracts."""

    @staticmethod
    def _img(shape, seed=0):
        return np.random.default_rng(seed).integers(
            0, 256, size=shape, dtype=np.uint8)

    def test_roundtrip_every_filter_and_colortype(self):
        from spidey_ray.functions.png import decode_png, encode_png

        for shape in ((1, 1), (7, 5), (16, 16), (6, 9, 3), (5, 4, 4)):
            px = self._img(shape, seed=sum(shape))
            want = px if px.ndim == 3 else px[:, :, None]
            for f in range(5):
                got = decode_png(encode_png(px, filters=f))
                assert got.shape == want.shape, (shape, f)
                assert (got == want).all(), (shape, f)

    def test_roundtrip_mixed_per_row_filters(self):
        from spidey_ray.functions.png import decode_png, encode_png

        px = self._img((10, 8, 3), seed=3)
        filters = [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]
        got = decode_png(encode_png(px, filters=filters))
        assert (got == px).all()

    def test_gradient_image_paeth(self):
        # smooth data — the regime paeth/average were designed for
        from spidey_ray.functions.png import decode_png, encode_png

        y, x = np.mgrid[0:20, 0:30]
        px = ((y * 7 + x * 3) % 256).astype(np.uint8)
        for f in (3, 4):
            assert (decode_png(encode_png(px, filters=f))
                    == px[:, :, None]).all()

    def test_palette_expands_to_rgb(self):
        import struct
        import zlib

        from spidey_ray.functions.png import _SIG, _chunk, decode_png

        plte = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])  # R, G, B
        idx = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)
        body = b"".join(b"\x00" + row.tobytes() for row in idx)
        data = (_SIG
                + _chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 2, 8, 3, 0, 0, 0))
                + _chunk(b"PLTE", plte)
                + _chunk(b"IDAT", zlib.compress(body))
                + _chunk(b"IEND", b""))
        px = decode_png(data)
        assert px.shape == (2, 3, 3)
        assert tuple(px[0, 0]) == (255, 0, 0)
        assert tuple(px[1, 0]) == (0, 0, 255)

    def test_refusals(self):
        import struct
        import zlib

        from spidey_ray.functions.png import (_SIG, _chunk, decode_png,
                                              encode_png)

        with pytest.raises(ValueError, match="signature"):
            decode_png(b"JFIF not a png")
        # 16-bit depth refused loudly
        body = zlib.compress(b"\x00\x00\x00")
        deep = (_SIG
                + _chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 16, 0, 0, 0, 0))
                + _chunk(b"IDAT", body) + _chunk(b"IEND", b""))
        with pytest.raises(ValueError, match="depth=16"):
            decode_png(deep)
        with pytest.raises(ValueError, match="channel"):
            encode_png(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_to_gray_luma(self):
        from spidey_ray.functions.png import to_gray

        px = np.zeros((1, 2, 3), dtype=np.uint8)
        px[0, 0] = (255, 0, 0)
        px[0, 1] = (10, 20, 30)
        g = to_gray(px)
        assert g[0, 0] == 255 * 299 // 1000
        assert g[0, 1] == (10 * 299 + 20 * 587 + 30 * 114) // 1000

    def test_mixed_format_pipeline_and_phash_identity(self, ray_session):
        import ray.data

        from spidey_ray.stages.multimodal import (decode_gray, dhash64,
                                                  media_feature_pipeline,
                                                  synth_payload,
                                                  synth_png_payload)

        # same ref → same pixels → same perceptual hash, either format
        for r in ("img://x", "img://y"):
            a, b = decode_gray(synth_payload(r)), decode_gray(
                synth_png_payload(r))
            assert (a == b).all()
            assert dhash64(a) == dhash64(b)
        refs = ray.data.from_items(
            [{"media_ref": f"img://{i}"} for i in range(30)])
        out = media_feature_pipeline(refs, png_mod=2).to_pandas()
        assert len(out) == 30
        assert (out["width"] >= 8).all() and (out["pix_std"] > 0).all()

    def test_media_decode_stage_reads_real_png_pixels(self):
        from spidey_ray.functions.png import encode_png
        from spidey_ray.stages.multimodal import MediaDecodeStage, dhash64

        px = self._img((6, 9), seed=7)
        payload = encode_png(px, filters=4)
        out = MediaDecodeStage()(pa.table({
            "media_ref": ["png0"], "payload": [payload]}))
        assert out["width"][0].as_py() == 9
        assert out["height"][0].as_py() == 6
        assert out["pix_mean"][0].as_py() == round(float(px.mean()), 4)
        assert out["pix_std"][0].as_py() == round(float(px.std()), 4)
        # perceptual hash over REAL decoded pixels is stable
        assert dhash64(px) == dhash64(px.copy())


class TestIngest:
    def test_pages_to_documents_matches_parser(self, ray_session):
        import ray.data

        from spidey_ray.functions.htmlspans import parse_document, spans_to_pylist
        from spidey_ray.pipelines.ingest import documents_from_pages

        html = ("<html><head><title>T</title></head><body><h1>Head</h1>"
                "<p>Body text</p><a href='/x'>go</a></body></html>")
        pages = [{"content": html, "encoding": "utf-8",
                  "url": "https://h0.example.com/a#frag"}]
        out = documents_from_pages(ray.data.from_items(pages)).to_pandas()
        assert out["doc_id"][0] == "https://h0.example.com/a"  # defragged
        expected = spans_to_pylist(
            parse_document(html, "https://h0.example.com/a").spans)
        assert list(out["spans"][0]) == expected
        assert out["title"][0] == "T"


class TestMultimodalDeep:
    def test_dhash_near_dup_detection(self, ray_session):
        import ray.data

        from spidey_ray.stages.multimodal import (
            _decode_fake, dhash64, media_dup_pairs, perturb_payload,
            synth_payload)

        # perturbed copy has a close hash; unrelated image does not
        p = synth_payload("img://a")
        q = perturb_payload(p, n_pixels=2, seed=1)
        r = synth_payload("img://totally-different")
        ha, hq, hr = (dhash64(_decode_fake(x)[2]) for x in (p, q, r))
        assert bin(ha ^ hq).count("1") <= 6
        assert bin(ha ^ hr).count("1") > 6

        rows = []
        for i in range(40):
            payload = synth_payload(f"img://doc/{i}")
            rows.append({"media_ref": f"img://doc/{i}", "payload": payload})
            if i % 10 == 0:
                rows.append({"media_ref": f"img://doc/{i}~dup",
                             "payload": perturb_payload(payload, 2, seed=i)})
        pairs = media_dup_pairs(ray.data.from_items(rows)).to_pandas()
        found = set(map(tuple, pairs[["ref_a", "ref_b"]].values))
        for i in (0, 10, 20, 30):
            assert (f"img://doc/{i}", f"img://doc/{i}~dup") in found

    def test_video_frame_sampling(self, ray_session):
        import ray.data

        from spidey_ray.stages.multimodal import (
            MediaDecodeStage, frame_sample_batch, synth_payload,
            synth_video_payload)

        rows = [{"media_ref": "vid://x", "payload": synth_video_payload("vid://x", 10)}]
        frames = ray.data.from_items(rows).map_batches(
            frame_sample_batch, fn_kwargs={"every_k": 4},
            batch_format="pyarrow").to_pandas()
        assert list(frames["frame_idx"]) == [0, 4, 8]
        # sampled frames are exact FAKEIMG frames → image pipeline consumes them
        assert bytes(frames["payload"].iloc[0]) == synth_payload("vid://x#f0")
        feats = ray.data.from_items(
            [{"media_ref": f"vid://x#f{i}", "payload": bytes(p)}
             for i, p in zip(frames["frame_idx"], frames["payload"])]
        ).map_batches(MediaDecodeStage, batch_format="pyarrow",
                      concurrency=1).to_pandas()
        assert len(feats) == 3 and (feats["width"] > 0).all()

    def test_audio_features(self, ray_session):
        import ray.data

        from spidey_ray.stages.multimodal import (
            audio_features_batch, synth_audio_payload)

        rows = [{"media_ref": f"aud://{i}",
                 "payload": synth_audio_payload(f"aud://{i}")} for i in range(5)]
        out = ray.data.from_items(rows).map_batches(
            audio_features_batch, batch_format="pyarrow").to_pandas()
        assert (out["duration_s"] == 0.5).all()
        assert ((out["rms"] > 0.2) & (out["rms"] < 0.8)).all()
        assert (out["zcr"] > 0).all() and (out["peak_bin"] > 0).all()
        # deterministic: same refs → same features (compare ref-keyed —
        # the streaming executor does not preserve block order)
        again = ray.data.from_items(rows).map_batches(
            audio_features_batch, batch_format="pyarrow").to_pandas()
        key = lambda df: df.sort_values("media_ref").reset_index(drop=True)
        pd.testing.assert_frame_equal(key(out), key(again))


class TestProductQuantization:
    @pytest.fixture(scope="class")
    def clustered_ds(self, ray_session):
        import ray.data

        rng = np.random.default_rng(17)
        centers = rng.standard_normal((8, 16)) * 3
        rows = []
        for i in range(400):
            c = centers[i % 8]
            rows.append({"vec_id": i,
                         "embedding": (c + rng.normal(0, 0.3, 16)).tolist()})
        return ray.data.from_items(rows)

    def test_recall_on_clustered_vectors(self, clustered_ds):
        from spidey_ray.stages.similarity import PqIndex, cosine_topk

        df = clustered_ds.to_pandas()
        idx = PqIndex(m=4).build(clustered_ds, sample_fraction=1.0)
        hits = total = 0
        for probe in (0, 3, 5):
            q = np.asarray(df["embedding"].iloc[probe])
            exact = set(cosine_topk(clustered_ds, q, k=10).to_pandas()["vec_id"])
            ann = set(v for v, _ in idx.search(q, k=10))
            hits += len(exact & ann)
            total += 10
        assert hits / total >= 0.7    # 16-float → 4-byte codes, same cluster

    def test_compression_and_driver_state(self, clustered_ds):
        from spidey_ray.stages.similarity import PqIndex

        idx = PqIndex(m=4).build(clustered_ds, sample_fraction=1.0)
        # driver holds ONLY codebooks (M,256,dsub) + block refs
        assert idx.codebooks.shape == (4, 256, 4)
        assert not hasattr(idx, "buckets")
        q = np.asarray(clustered_ds.to_pandas()["embedding"].iloc[0])
        out = idx.search(q, k=5)
        assert len(out) == 5
        assert all(-1.0 <= c <= 1.0001 for _, c in out)


class TestHnsw:
    @pytest.fixture()
    def clustered_ds(self, ray_session):
        import ray.data

        rng = np.random.default_rng(17)
        centers = rng.standard_normal((8, 16)) * 3
        rows = []
        for i in range(400):
            c = centers[i % 8]
            rows.append({"vec_id": i,
                         "embedding": (c + rng.normal(0, 0.3, 16)).tolist()})
        return ray.data.from_items(rows)

    def test_recall_vs_exact(self, clustered_ds):
        from spidey_ray.stages.similarity import HnswIndex, cosine_topk

        df = clustered_ds.to_pandas()
        idx = HnswIndex(n_shards=4, ef_search=64).build(clustered_ds)
        hits = total = 0
        for probe in (0, 3, 5):
            q = np.asarray(df["embedding"].iloc[probe])
            exact = set(cosine_topk(clustered_ds, q, k=10).to_pandas()["vec_id"])
            ann = set(v for v, _ in idx.search(q, k=10))
            hits += len(exact & ann)
            total += 10
        # every shard is beam-searched, so sharded recall ≈ single-graph
        assert hits / total >= 0.9

    def test_graphs_live_in_object_store(self, clustered_ds):
        import ray as _ray

        from spidey_ray.stages.similarity import HnswIndex

        idx = HnswIndex(n_shards=4).build(clustered_ds)
        # driver holds ONLY shard refs — the graphs (and vectors) live in
        # the object store
        assert len(idx._shard_refs) == 4
        assert all(isinstance(r, _ray.ObjectRef) for r in idx._shard_refs)
        q = np.asarray(clustered_ds.to_pandas()["embedding"].iloc[0])
        out = idx.search(q, k=5)
        assert len(out) == 5
        assert all(-1.0 <= c <= 1.0001 for _, c in out)

    def test_single_graph_quality(self, ray_session):
        # direct graph check: the planted near-duplicate must be the top
        # non-self hit
        from spidey_ray.stages.similarity import _HnswGraph, _unit

        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((300, 16))
        vecs[250] = vecs[7] + rng.normal(0, 0.001, 16)
        u = _unit(vecs)
        g = _HnswGraph(u, np.arange(300), m=8, ef_construction=60)
        hits = g.search(u[7], k=3, ef=50)
        assert hits[0][0] == 7 and hits[1][0] == 250


class TestConnectedComponents:
    def test_components_and_chain_match_union_find(self, ray_session):
        """Star/clique components plus a 9-node chain (multiple pointer-jump
        rounds) in ONE graph — labels must equal the union-find resolution."""
        import ray.data

        from spidey_ray.stages.dedup import (
            connected_components, resolve_duplicates)

        chain_a = list(range(100, 104))
        chain_b = list(range(101, 105))
        edges = pd.DataFrame({
            "doc_a": [1, 2, 7, 12, 13, 40] + chain_a,
            "doc_b": [2, 3, 9, 13, 14, 41] + chain_b,
        })
        labels = connected_components(
            ray.data.from_pandas(edges)).to_pandas()
        got = dict(zip(labels["node"].astype(int), labels["label"].astype(int)))
        uf = resolve_duplicates(edges)
        for node, rep in uf.items():
            assert got[node] == rep, node
        assert all(got[n] == 100 for n in range(100, 105))

    def test_minhash_dedup_cc_path_identical(self, ray_session):
        """cc_driver_limit=0 forces the distributed label-propagation path —
        survivors must equal the driver union-find path (tiny corpus: the
        per-iteration join cost dominates at test scale)."""
        import ray.data

        from spidey_ray.stages.dedup import minhash_dedup

        base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
                "lambda mu nu xi omicron pi rho sigma tau upsilon")
        rows = [
            {"doc_id": 0, "text": base + " zero"},
            {"doc_id": 1, "text": base + " zero"},        # dup of 0
            {"doc_id": 2, "text": "totally different words here only"},
            {"doc_id": 3, "text": base + " zero extra"},  # near-dup of 0
        ]
        tiny = ray.data.from_items(rows)
        a = set(minhash_dedup(tiny, threshold=0.7).to_pandas()["doc_id"])
        b = set(minhash_dedup(tiny, threshold=0.7,
                              cc_driver_limit=0).to_pandas()["doc_id"])
        assert a == b
        assert 0 in a and 1 not in a


class TestContamination:
    @pytest.fixture(scope="class")
    def corpus(self, ray_session):
        import ray.data

        bench_sent = "the secret benchmark sentence nobody should train on ever"
        rows = [
            {"doc_id": 0, "text": "a perfectly clean training document "
                                  "about gardening and soil quality here"},
            {"doc_id": 1, "text": f"prefix words then {bench_sent} then more"},
            {"doc_id": 2, "text": "another clean one with totally distinct "
                                  "content about sailing boats at dawn"},
            {"doc_id": 3, "text": bench_sent},
        ]
        bench = [{"doc_id": 100, "text": f"intro {bench_sent} outro words"}]
        import ray.data as rd

        return rd.from_items(rows), rd.from_items(bench)

    def test_decontaminate_drops_overlapping(self, corpus):
        from spidey_ray.stages.contamination import decontaminate

        docs, bench = corpus
        kept = set(decontaminate(docs, bench, n=5).to_pandas()["doc_id"])
        assert kept == {0, 2}          # 1 and 3 share 5-grams with bench

    def test_report_counts(self, corpus):
        from spidey_ray.stages.contamination import contamination_report

        docs, bench = corpus
        rep = contamination_report(docs, bench, n=5).to_pandas() \
            .set_index("doc_id")
        assert rep.loc[0, "n_contaminated"] == 0
        assert rep.loc[2, "n_contaminated"] == 0
        assert rep.loc[1, "n_contaminated"] >= 5   # whole sentence inside
        assert rep.loc[3, "n_contaminated"] == 5   # 9-token sentence, n=5
        assert (rep["n_shingles"] > 0).all()

    def test_empty_benchmark_keeps_all(self, corpus, ray_session):
        import ray.data

        from spidey_ray.stages.contamination import decontaminate

        docs, _ = corpus
        empty = ray.data.from_items(
            [{"doc_id": 0, "text": ""}]).filter(lambda r: False)
        kept = decontaminate(docs, empty, n=5).to_pandas()
        assert len(kept) == 4


class TestSequencePacking:
    def test_pack_invariants(self, ray_session):
        import ray.data

        from spidey_ray.stages.contamination import pack_sequences

        rng = np.random.default_rng(4)
        rows = [{"doc_id": i,
                 "text": " ".join(f"w{j}" for j in range(int(n)))}
                for i, n in enumerate(rng.integers(5, 400, 300))]
        rows.append({"doc_id": 999,
                     "text": " ".join(f"w{j}" for j in range(700))})  # oversized
        out = pack_sequences(ray.data.from_items(rows),
                             max_tokens=512).to_pandas()
        # every doc exactly once
        assert sorted(out["doc_id"]) == sorted(r["doc_id"] for r in rows)
        # bin fill consistency + budget (oversized docs are singleton bins)
        g = out.groupby("bin_id")
        for bin_id, grp in g:
            fill = grp["n_tokens"].sum()
            assert (grp["bin_fill"] == fill).all()
            if fill > 512:
                assert len(grp) == 1 and grp["n_tokens"].iloc[0] > 512
        # FFD should fill reasonably: mean fill of non-oversized,
        # non-last bins well above half the budget
        fills = g["n_tokens"].sum()
        normal = fills[fills <= 512]
        assert normal.mean() > 256

    def test_deterministic(self, ray_session):
        import ray.data

        from spidey_ray.stages.contamination import pack_sequences

        rows = [{"doc_id": i, "text": "tok " * (10 + i)} for i in range(50)]
        a = pack_sequences(ray.data.from_items(rows), 128).to_pandas()
        b = pack_sequences(ray.data.from_items(rows), 128).to_pandas()
        key = lambda d: sorted(map(tuple, d.values))  # noqa: E731
        assert key(a) == key(b)

    def test_bin_ids_globally_unique_across_blocks(self, ray_session):
        # bin_id tag = the block's min doc_id (blocks partition rows →
        # exactly unique across blocks); the old 20-bit crc tag collided at
        # ~1,200 blocks
        import ray.data

        from spidey_ray.stages.contamination import pack_sequences

        rows = [{"doc_id": i, "text": "tok " * 40} for i in range(400)]
        out = pack_sequences(
            ray.data.from_items(rows).repartition(16), max_tokens=128
        ).to_pandas()
        out["tag"] = out["bin_id"].to_numpy() >> 21
        # every tag is the min doc_id of the rows sharing it (block min)
        for tag, grp in out.groupby("tag"):
            assert tag == grp["doc_id"].min()
        # bins never mix docs from different tags, and every doc shows once
        assert len(out) == 400
        assert (out["bin_id"].to_numpy() >> 21 == out["tag"].to_numpy()).all()


class TestPiiScrub:
    def test_redacts_and_counts(self, ray_session):
        import ray.data

        from spidey_ray.stages.scrub import pii_scrub

        rows = [
            {"doc_id": 0,
             "text": "mail a.b+c@x-corp.io and b@y.org call +1-555-0199 "
                     "from 192.168.0.1 ok"},
            {"doc_id": 1, "text": "clean text no pii at all"},
            {"doc_id": 2, "text": "ip only 10.0.0.7 end"},
        ]
        out = (pii_scrub(ray.data.from_items(rows)).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        assert out.loc[0, "text"] == ("mail <EMAIL> and <EMAIL> call "
                                      "<PHONE> from <IP> ok")
        assert (out.loc[0, ["n_email", "n_phone", "n_ip"]].tolist()
                == [2, 1, 1])
        assert out.loc[1, "text"] == rows[1]["text"]
        assert out.loc[1, ["n_email", "n_phone", "n_ip"]].sum() == 0
        assert out.loc[2, "text"] == "ip only <IP> end"

    def test_streaming_pure_map_no_shuffle(self, ray_session):
        # the stage must stay a pure map: plan has no all-to-all operator
        import ray.data

        from spidey_ray.stages.scrub import pii_scrub

        ds = pii_scrub(ray.data.from_items(
            [{"doc_id": i, "text": f"u{i}@x.io"} for i in range(10)]))
        ds = ds.materialize()
        stats = ds.stats()
        assert "Sort" not in stats and "Shuffle" not in stats


class TestGopherRepetition:
    def test_hand_computed_signals(self):
        import pyarrow as pa

        from spidey_ray.stages.textstats import gopher_repetition_batch

        rows = pa.table({
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": [
                # 20 tokens = 2 identical 10-token lines: dup_line = 1/2;
                # "a b" 2-gram appears 10× of 19; 5-grams 16 total,
                # distinct windows of the 'a b' alternation = 2
                "a b " * 10,
                "unique words only here",   # 1 line, no repeats
                "",                          # empty doc: all zeros
            ],
        })
        out = gopher_repetition_batch(rows)
        assert out["dup_line_bp"].to_pylist() == [5000, 0, 0]
        # doc 1: 3 all-distinct 2-grams → top fraction 1/3, not 0
        assert out["top_2gram_bp"].to_pylist() == [10000 * 10 // 19,
                                                   10000 * 1 // 3, 0]
        assert out["dup_5gram_bp"].to_pylist() == [10000 * 14 // 16, 0, 0]


class TestGopherQuality:
    def test_hand_computed_signals(self):
        import pyarrow as pa

        from spidey_ray.stages.textstats import gopher_quality_batch

        good = " ".join(["the", "and", "that"] + ["quality"] * 60)
        rows = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": [
                good,                              # passes every rule
                "- a...\n- b...\n- c...",          # bullets+ellipses+short
                "12 34 56 78",                     # zero alpha words
                "",                                # empty doc
            ],
        })
        out = gopher_quality_batch(rows)
        assert out["n_words"].to_pylist() == [63, 6, 4, 0]
        # doc 0: 3 stop words planted, 3+3+4 + 60*7 word chars
        assert out["n_stop_hits"].to_pylist() == [3, 0, 0, 0]
        # doc 1 words are '-' (1 char) and 'a...' (4 chars) per line
        assert out["n_word_chars"].to_pylist() == [10 + 60 * 7, 15, 8, 0]
        assert out["n_bullet_lines"].to_pylist() == [0, 3, 0, 0]
        assert out["n_ellipsis_lines"].to_pylist() == [0, 3, 0, 0]
        assert out["n_symbols"].to_pylist() == [0, 3, 0, 0]
        assert out["n_alpha_words"].to_pylist() == [63, 3, 0, 0]
        assert out["n_lines"].to_pylist() == [1, 3, 1, 1]
        assert out["gopher_pass"].to_pylist() == [True, False, False, False]

    def test_each_rule_gates(self):
        """One failing doc per rule, each otherwise identical to a
        passing base — the conjunction is exactly the 7 A1 rules."""
        import pyarrow as pa

        from spidey_ray.stages.textstats import gopher_quality_batch

        base = " ".join(["the", "and"] + ["word"] * 58)       # 60 words
        docs = {
            "base": base,
            "too_short": " ".join(["the", "and"] + ["word"] * 8),
            "long_words": " ".join(
                ["the", "and"] + ["w" * 11] * 58),            # mean > 10
            "symbols": base + " " + "# " * 7,                 # 7 sym / 67 w
            "bullets": "\n".join(["- x"] * 10 + [base]),      # 10/11 lines
            "ellipses": "\n".join([base] + ["y..."] * 1),     # 1/2 lines
            "no_alpha": " ".join(["the", "and"] + ["4242"] * 58),
            "one_stop": " ".join(["the"] + ["word"] * 59),
        }
        t = pa.table({
            "doc_id": pa.array(range(len(docs)), type=pa.int64()),
            "text": list(docs.values()),
        })
        out = gopher_quality_batch(t)
        got = dict(zip(docs, out["gopher_pass"].to_pylist()))
        assert got == {k: k == "base" for k in docs}


class TestSpanStats:
    def _table(self):
        import pyarrow as pa

        from spidey_ray.stages.round_stage import SPAN_TYPE

        def s(kind, text, ref, off):
            return {"kind": kind, "text": text, "media_ref": ref,
                    "offset": off}

        return pa.table({
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "spans": pa.array([
                [s("text", "ab cd", "", 0), s("image", "", "m1", 1),
                 s("text", "x", "", 2), s("image", "", "m1", 3)],
                [s("text", "hello", "", 0), s("image", "", "m2", 0)],
                [],
            ], type=SPAN_TYPE),
        })

    def test_stats_hand_computed(self):
        from spidey_ray.stages.spans import span_stats_batch

        out = span_stats_batch(self._table())
        assert out["n_spans"].to_pylist() == [4, 2, 0]
        assert out["n_text_spans"].to_pylist() == [2, 1, 0]
        assert out["n_media_spans"].to_pylist() == [2, 1, 0]
        assert out["text_chars"].to_pylist() == [6, 5, 0]
        # doc 0's two media spans share one ref
        assert out["n_media_refs"].to_pylist() == [1, 1, 0]
        # doc 1: offset 0 follows offset 0 — strictly-increasing violated
        assert out["order_ok"].to_pylist() == [True, False, True]

    def test_media_explode(self):
        from spidey_ray.stages.spans import explode_media_refs_batch

        out = explode_media_refs_batch(self._table())
        assert out["doc_id"].to_pylist() == [0, 0, 1]
        assert out["media_ref"].to_pylist() == ["m1", "m1", "m2"]
        assert out["offset"].to_pylist() == [1, 3, 0]


class TestMediaTextPairs:
    """media_text_pairs_batch ≡ per-doc mirror: each media span pairs
    with the nearest PRECEDING non-empty text span, else the following
    one, else no pair."""

    @staticmethod
    def _mirror(doc_id, spans):
        out = []
        for j, s in enumerate(spans):
            if s["kind"] == "text":
                continue
            before = [k for k in range(j) if spans[k]["kind"] == "text"
                      and spans[k]["text"].split()]
            after = [k for k in range(j + 1, len(spans))
                     if spans[k]["kind"] == "text"
                     and spans[k]["text"].split()]
            if before:
                out.append((doc_id, s["media_ref"], j,
                            spans[before[-1]]["text"], "before"))
            elif after:
                out.append((doc_id, s["media_ref"], j,
                            spans[after[0]]["text"], "after"))
        return out

    def test_matches_mirror(self):
        import pyarrow as pa

        from spidey_ray.stages.round_stage import SPAN_TYPE
        from spidey_ray.stages.spans import media_text_pairs_batch

        rng = np.random.default_rng(41)
        vocab = [f"w{i}" for i in range(30)]
        docs = []
        for d in range(80):
            spans = []
            for j in range(int(rng.integers(0, 10))):
                r = rng.random()
                if r < 0.4:
                    spans.append({"kind": "image", "text": "",
                                  "media_ref": f"m{d}_{j}", "offset": j})
                elif r < 0.55:
                    spans.append({"kind": "text", "text": "  ",
                                  "media_ref": "", "offset": j})
                else:
                    n = int(rng.integers(1, 6))
                    spans.append({"kind": "text",
                                  "text": " ".join(rng.choice(vocab, n)),
                                  "media_ref": "", "offset": j})
            docs.append((d, spans))
        # edge docs: media-only (no pair), empty, media before any text
        docs += [(100, [{"kind": "image", "text": "", "media_ref": "solo",
                         "offset": 0}]),
                 (101, []),
                 (102, [{"kind": "image", "text": "", "media_ref": "first",
                         "offset": 0},
                        {"kind": "text", "text": "cap here",
                         "media_ref": "", "offset": 1}])]
        t = pa.table({
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "spans": pa.array([s for _, s in docs], type=SPAN_TYPE)})
        got = [tuple(r.values())
               for r in media_text_pairs_batch(t).to_pylist()]
        exp = [p for d, spans in docs for p in self._mirror(d, spans)]
        assert sorted(got) == sorted(exp)
        # the media-before-text doc pairs 'after'
        assert (102, "first", 0, "cap here", "after") in got
        assert not any(r[0] in (100, 101) for r in got)


class TestChunkInterleaved:
    """chunk_interleaved_batch ≡ a per-doc greedy mirror: first-fit chunks
    in stored span order, text cost = whitespace words, media cost = 4,
    oversize spans form singleton chunks."""

    @staticmethod
    def _mirror(spans, budget, media_tokens=4):
        def cost(s):
            return (len(s["text"].split()) if s["kind"] == "text"
                    else media_tokens)
        chunks, cur, acc = [], [], 0
        for s in spans:
            c = cost(s)
            if cur and acc + c > budget:
                chunks.append((cur, acc))
                cur, acc = [], 0
            cur.append(s)
            acc += c
        if cur:
            chunks.append((cur, acc))
        return chunks

    def _spans_table(self, docs):
        import pyarrow as pa

        from spidey_ray.stages.round_stage import SPAN_TYPE

        return pa.table({
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "spans": pa.array([s for _, s in docs], type=SPAN_TYPE),
        })

    def _check(self, docs, budget):
        from spidey_ray.stages.spans import chunk_interleaved_batch

        out = chunk_interleaved_batch(self._spans_table(docs), budget=budget)
        got = {}
        for r in out.to_pylist():
            got.setdefault(r["doc_id"], []).append(r)
        for d, spans in docs:
            exp = self._mirror(spans, budget)
            rows = got.get(d, [])
            assert len(rows) == len(exp), (d, rows, exp)
            start = 0
            for k, (row, (chunk, acc)) in enumerate(zip(rows, exp)):
                assert row["chunk_id"] == k
                assert row["span_start"] == start
                assert row["n_spans"] == len(chunk)
                assert row["n_positions"] == acc
                assert row["spans"] == chunk
                start += len(chunk)
        # chunks tile the input: concatenated chunk spans == original spans
        flat_out = [s for r in out.to_pylist() for s in r["spans"]]
        flat_in = [s for _, spans in docs for s in spans]
        assert flat_out == flat_in

    def test_hand_cases(self):
        def t(txt, off):
            return {"kind": "text", "text": txt, "media_ref": "",
                    "offset": off}

        def m(ref, off):
            return {"kind": "image", "text": "", "media_ref": ref,
                    "offset": off}

        docs = [
            (0, [t("a b c", 0), m("r1", 1), t("d e", 2)]),   # 3+4+2 @ B=7
            (1, [t("one two three four five six seven eight nine", 0)]),
            (2, []),                                          # zero chunks
            (3, [t("", 0), m("r2", 1)]),                      # empty text
            (4, [m("x", 0), m("y", 1), m("z", 2)]),           # media only
            (5, [t("  ", 0), t("w", 1)]),                     # ws-only span
        ]
        self._check(docs, budget=7)
        self._check(docs, budget=1)    # every span oversize → singletons
        self._check(docs, budget=100)  # everything fits → one chunk/doc

    def test_random_matches_mirror(self):
        rng = np.random.default_rng(29)
        vocab = [f"w{i}" for i in range(40)]
        docs = []
        for d in range(120):
            spans = []
            for j in range(int(rng.integers(0, 14))):
                if rng.random() < 0.3:
                    spans.append({"kind": "image", "text": "",
                                  "media_ref": f"m{int(rng.integers(9))}",
                                  "offset": j})
                else:
                    n = int(rng.integers(0, 12))
                    spans.append({"kind": "text",
                                  "text": " ".join(rng.choice(vocab, n)),
                                  "media_ref": "", "offset": j})
            docs.append((d, spans))
        for budget in (1, 5, 16, 64):
            self._check(docs, budget)

    def test_dataset_layout_independent(self, ray_session):
        import ray.data

        from spidey_ray.stages.spans import chunk_interleaved_batch

        def t(txt, off):
            return {"kind": "text", "text": txt, "media_ref": "",
                    "offset": off}

        docs = [(d, [t(f"tok{d} " * (d % 9 + 1), i) for i in range(d % 5 + 1)])
                for d in range(50)]
        tbl = self._spans_table(docs)
        one = (ray.data.from_arrow(tbl)
               .map_batches(chunk_interleaved_batch, batch_format="pyarrow",
                            fn_kwargs={"budget": 10})
               .to_pandas())
        many = (ray.data.from_arrow(tbl).repartition(7)
                .map_batches(chunk_interleaved_batch, batch_format="pyarrow",
                             fn_kwargs={"budget": 10})
                .to_pandas())
        key = ["doc_id", "chunk_id"]
        a = one.sort_values(key).reset_index(drop=True)
        b = many.sort_values(key).reset_index(drop=True)
        assert a.drop(columns="spans").equals(b.drop(columns="spans"))
        assert a["spans"].map(list).equals(b["spans"].map(list))


class TestLineDedup:
    def _serial(self, rows):
        seen, out = set(), []
        for r in sorted(rows, key=lambda r: r["doc_id"]):
            for i, ln in enumerate(r["text"].split("\n")):
                if ln not in seen:
                    seen.add(ln)
                    out.append((r["doc_id"], i, ln))
        return sorted(out)

    def test_first_occurrence_survives(self, ray_session):
        import ray.data

        from spidey_ray.stages.dedup import line_dedup

        rows = [
            {"doc_id": 0, "text": "alpha beta\ncommon line\nunique zero"},
            {"doc_id": 1, "text": "common line\nunique one\nalpha beta"},
            {"doc_id": 2, "text": "common line\ncommon line\nunique two"},
            {"doc_id": 3, "text": ""},          # empty doc → one empty line
            {"doc_id": 4, "text": "\ncommon line"},  # empty line dup of d3's
        ]
        out = line_dedup(ray.data.from_items(rows)).to_pandas()
        got = sorted(zip(out["doc_id"].astype(int),
                         out["line_idx"].astype(int), out["line"]))
        assert got == self._serial(rows)

    def test_random_corpus_matches_serial(self, ray_session):
        import ray.data

        from spidey_ray.stages.dedup import line_dedup

        rng = np.random.default_rng(13)
        vocab = [f"w{i}" for i in range(30)]
        rows = [{"doc_id": d,
                 "text": "\n".join(
                     " ".join(rng.choice(vocab, 3))
                     for _ in range(int(rng.integers(1, 12))))}
                for d in range(200)]
        out = line_dedup(ray.data.from_items(rows).repartition(8)).to_pandas()
        got = sorted(zip(out["doc_id"].astype(int),
                         out["line_idx"].astype(int), out["line"]))
        assert got == self._serial(rows)


class TestCurationPipeline:
    """One planted victim per gate of pipelines/curation.curate."""

    DOCS = [
        # 0: survivor (and the lm_train_mod=2 train slice with 4)
        (0, "the quick brown fox jumps over the lazy dog today.\n"
            "a calm river flows gently through the green valley now.\n"
            "bright stars shine over the quiet mountain village tonight.\n"
            "warm bread and fresh butter make a fine meal.", "x"),
        # 1: C4 victim — only two terminal-punct lines survive
        (1, "a perfectly good first line for the filter.\n"
            "a perfectly good second line for the filter.\n"
            "this line has no terminal punctuation", "x"),
        # 2: Gopher victim — "ping pong" dominates the 2-gram stream
        (2, "ping pong ping pong ping pong round one.\n"
            "ping pong ping pong ping pong round two.\n"
            "ping pong ping pong ping pong round three.", "x"),
        # 3: LM victim — novel vocabulary, nothing in the train slice
        (3, "zorblat quignax flumpet drazzle worvex snigglet porv here.\n"
            "crindle vapmot slorgan betwixle quandor freemix halt there.\n"
            "gromple zintak prewsel donquat mirvane trosk ends now.", "y"),
        # 4: survivor (train slice), distinct vocabulary from 0
        (4, "heavy engines pull long trains across the open plain.\n"
            "signal lights change slowly beside the empty station yard.\n"
            "old iron bridges cross the wide northern river delta.\n"
            "freight wagons carry coal toward the distant harbor gate.", "y"),
        # 5: MinHash victim — doc 4 with only the last word changed
        (5, "heavy engines pull long trains across the open plain.\n"
            "signal lights change slowly beside the empty station yard.\n"
            "old iron bridges cross the wide northern river delta.\n"
            "freight wagons carry coal toward the distant harbor wall.", "y"),
    ]

    def test_each_gate_drops_its_victim(self, ray_session):
        import ray.data

        from spidey_ray.pipelines.curation import curate

        out = curate(
            ray.data.from_items(
                [{"doc_id": d, "text": t, "lang": g}
                 for d, t, g in self.DOCS]),
            meta_cols=["lang"],
            lm_train_mod=2,
            lm_min_count=1,  # 2-doc train slice: every trigram is a singleton
            lm_min_micro_per_token=-1_000_000,
            mix_key="lang", mix_shares={"x": 0.5, "y": 0.5},
        ).to_pandas().set_index("doc_id").sort_index()
        assert list(out.index) == [0, 4]
        # meta carried through every stage, text is the cleaned text
        assert out.loc[0, "lang"] == "x" and out.loc[4, "lang"] == "y"
        assert out.loc[0, "text"] == self.DOCS[0][1]
        # C4 victim loses its unpunctuated line before dying on min_lines
        assert "no terminal punctuation" not in " ".join(out["text"])


class TestInterleavedTransforms:
    """spans_to_text (VLM render) + strip_duplicate_media_spans (keep-first
    media dedup in the interleave), both branches."""

    @staticmethod
    def _docs():
        from spidey_ray.stages.round_stage import SPAN_TYPE

        return pa.table({
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "spans": pa.array([
                [{"kind": "text", "text": "a b c", "media_ref": "",
                  "offset": 0},
                 {"kind": "image", "text": "", "media_ref": "m0",
                  "offset": 1},
                 {"kind": "text", "text": "", "media_ref": "", "offset": 2},
                 {"kind": "image", "text": "", "media_ref": "m1",
                  "offset": 3},
                 {"kind": "image", "text": "", "media_ref": "m0",
                  "offset": 4}],
                [{"kind": "image", "text": "", "media_ref": "m0",
                  "offset": 0},
                 {"kind": "text", "text": "d e", "media_ref": "",
                  "offset": 1}],
                [],
            ], type=SPAN_TYPE)})

    def test_render(self):
        from spidey_ray.stages.spans import spans_to_text_batch

        r = spans_to_text_batch(self._docs())
        # stored interleave order, empty text pieces vanish
        assert r["rendered_text"].to_pylist() == [
            "a b c <|image|> <|image|> <|image|>", "<|image|> d e", ""]
        assert r["n_text_tokens"].to_pylist() == [3, 2, 0]
        assert r["n_media_spans"].to_pylist() == [3, 1, 0]
        # n_positions = text tokens + 4 per media span
        assert r["n_positions"].to_pylist() == [15, 6, 0]

    def test_word_metric_matches_str_split(self):
        import pyarrow as pa_

        from spidey_ray.stages.round_stage import SPAN_TYPE
        from spidey_ray.stages.spans import (_whitespace_word_counts,
                                             spans_to_text_batch)

        cases = ["a b", "a  b", "a\nb\tc", "   ", "", " x ", "one"]
        got = _whitespace_word_counts(pa_.array(cases)).tolist()
        assert got == [len(c.split()) for c in cases]
        # whitespace-only text span: renders nothing, charges nothing
        t = pa_.table({
            "doc_id": pa_.array([0], type=pa_.int64()),
            "spans": pa_.array([[
                {"kind": "text", "text": "hello\nworld  now",
                 "media_ref": "", "offset": 0},
                {"kind": "text", "text": "   ", "media_ref": "",
                 "offset": 1},
                {"kind": "image", "text": "", "media_ref": "m",
                 "offset": 2}]], type=SPAN_TYPE)})
        r = spans_to_text_batch(t)
        assert r["n_text_tokens"][0].as_py() == 3
        assert r["rendered_text"][0].as_py() == "hello\nworld  now <|image|>"
        assert r["n_positions"][0].as_py() == 7

    def test_media_dedup_keep_first_both_branches(self, ray_session):
        import ray.data

        from spidey_ray.stages.spans import (duplicate_media_positions,
                                             strip_duplicate_media_spans)

        ds = ray.data.from_arrow(self._docs())
        dups = sorted(map(tuple, duplicate_media_positions(ds)
                          .to_pandas().to_numpy()))
        # doc0 pos4 repeats m0 (first at doc0 pos1); doc1 pos0 repeats it
        # cross-document
        assert dups == [(0, 4), (1, 0)]
        for limit in (2_000_000, 0):     # broadcast branch, join branch
            out = (strip_duplicate_media_spans(ds, broadcast_limit=limit)
                   .to_pandas().sort_values("doc_id").reset_index(drop=True))
            assert out["n_media_dropped"].tolist() == [1, 1, 0]
            refs0 = [s["media_ref"] for s in out.loc[0, "spans"]
                     if s["kind"] != "text"]
            assert refs0 == ["m0", "m1"]
            assert [s["kind"] for s in out.loc[1, "spans"]] == ["text"]

    def test_dedup_noop_on_unique_corpus(self, ray_session):
        import ray.data

        from spidey_ray.stages.round_stage import SPAN_TYPE
        from spidey_ray.stages.spans import strip_duplicate_media_spans

        t = pa.table({
            "doc_id": pa.array([5], type=pa.int64()),
            "spans": pa.array([[{"kind": "image", "text": "",
                                 "media_ref": "only", "offset": 0}]],
                              type=SPAN_TYPE)})
        out = strip_duplicate_media_spans(
            ray.data.from_arrow(t)).to_pandas()
        assert out["n_media_dropped"].tolist() == [0]
        assert len(out.loc[0, "spans"]) == 1


class TestInterleavedCuration:
    """Composed VLM pipeline: one planted victim/behavior per stage."""

    def test_each_stage_acts(self, ray_session):
        import ray.data

        from spidey_ray.pipelines.interleaved import curate_interleaved
        from spidey_ray.stages.round_stage import SPAN_TYPE

        long = " ".join(f"w{i}" for i in range(9))
        t = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "spans": pa.array([
                # 0: survivor, keeps its (first-occurrence) media span
                [{"kind": "text", "text": long, "media_ref": "",
                  "offset": 0},
                 {"kind": "image", "text": "", "media_ref": "m0",
                  "offset": 1},
                 {"kind": "text", "text": "", "media_ref": "",
                  "offset": 2}],          # empty text span → gated out
                # 1: duplicate media victim (m0 seen at doc 0)
                [{"kind": "image", "text": "", "media_ref": "m0",
                  "offset": 0},
                 {"kind": "text", "text": "a b c d e f g h i j",
                  "media_ref": "", "offset": 1}],
                # 2: doc-gate victim (< 8 text tokens)
                [{"kind": "text", "text": "tiny doc", "media_ref": "",
                  "offset": 0}],
                # 3: survivor with its own media
                [{"kind": "text", "text": "p q r s t u v w x y z",
                  "media_ref": "", "offset": 0},
                 {"kind": "image", "text": "", "media_ref": "m1",
                  "offset": 1}],
            ], type=SPAN_TYPE)})
        out = (curate_interleaved(ray.data.from_arrow(t), seq_budget=20)
               .to_pandas().set_index("doc_id").sort_index())
        assert list(out.index) == [0, 1, 3]          # doc 2 gated
        # doc 1 lost its duplicate media span → no placeholder
        assert "<|image|>" not in out.loc[1, "rendered_text"]
        assert out.loc[0, "rendered_text"] == f"{long} <|image|>"
        # media costs 4 positions: 9 text + 4
        assert out.loc[0, "n_positions"] == 13
        # packing respects the budget and assigns every doc
        assert (out["bin_fill"] <= 20).all()
        assert out["bin_id"].notna().all()

    def test_chunk_budget_bounds_every_bin(self, ray_session):
        """With chunk_budget set, an over-budget doc splits at span
        boundaries before packing, so NO bin exceeds seq_budget; without
        it the oversize doc rides into FFD whole (over-budget singleton
        bin) — the documented contrast."""
        import ray.data

        from spidey_ray.pipelines.interleaved import curate_interleaved
        from spidey_ray.stages.round_stage import SPAN_TYPE

        big = [{"kind": "text",
                "text": " ".join(f"t{j}_{i}" for i in range(12)),
                "media_ref": "", "offset": j} for j in range(4)]  # 48 toks
        small = [{"kind": "text", "text": "a b c d e f g h i",
                  "media_ref": "", "offset": 0}]
        t = pa.table({
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "spans": pa.array([big, small], type=SPAN_TYPE)})

        whole = curate_interleaved(
            ray.data.from_arrow(t), seq_budget=20).to_pandas()
        assert whole.set_index("doc_id").loc[0, "n_positions"] == 48
        assert (whole.groupby("bin_id")["n_positions"].sum() > 20).any()

        chunked = curate_interleaved(
            ray.data.from_arrow(t), seq_budget=20,
            chunk_budget=20).to_pandas()
        # doc 0 → four 12-token span chunks (no two fit in 20 together)
        d0 = chunked[chunked["doc_id"] == 0].sort_values("chunk_id")
        assert d0["chunk_id"].tolist() == [0, 1, 2, 3]
        assert d0["n_positions"].tolist() == [12, 12, 12, 12]
        assert (chunked.groupby("bin_id")["n_positions"].sum() <= 20).all()
        assert chunked.set_index(["doc_id", "chunk_id"]).loc[
            (1, 0), "n_positions"] == 9

    def test_pack_by_cost_matches_ffd(self, ray_session):
        import ray.data

        from spidey_ray.stages.contamination import pack_by_cost

        rows = [{"doc_id": i, "n_positions": c}
                for i, c in enumerate([9, 8, 7, 3, 3, 2, 1])]
        out = (pack_by_cost(ray.data.from_items(rows).repartition(1),
                            10, "n_positions")
               .to_pandas())
        # FFD on one block: 9+1 | 8+2 | 7+3 | 3 → 4 bins, fills 10/10/10/3
        fills = sorted(out.groupby("bin_id")["n_positions"].sum())
        assert fills == [3, 10, 10, 10]
        # carried columns intact
        assert set(out.columns) >= {"doc_id", "n_positions",
                                    "bin_id", "bin_fill"}


class TestCurationSingleExecution:
    """The physical-plan contract of curate(): the expensive per-doc
    chain executes exactly ONCE even though four downstream consumers
    (LM train slice, MinHash banding, dedup survivor filter, mix) each
    re-consume it — the pre-fix plan re-ran clean ~4× and the LM gate
    3×.  Instrumented by monkeypatching the stage fns (cloudpickle
    captures the wrapper by value, so workers run it) with a wrapper
    that drops one marker file per call on the shared single-node fs."""

    N = 40

    @staticmethod
    def _docs():
        import ray.data

        sents = [
            "the quiet river moves past the old stone mill tonight.",
            "fresh rain falls gently over the wide green valley floor.",
            "a small red boat drifts along the calm northern shore.",
            "the evening train carries apples toward the harbor town.",
        ]
        rows = [{"doc_id": i,
                 "text": "\n".join(f"{s[:-1]} number {i} part {j}."
                                   for j, s in enumerate(sents))}
                for i in range(TestCurationSingleExecution.N)]
        return ray.data.from_items(rows).repartition(4)

    def test_clean_and_lm_each_run_once(self, ray_session, tmp_path,
                                        monkeypatch):
        import os

        import spidey_ray.pipelines.curation as cur
        from spidey_ray.stages.lm import score_batch_micro as real_score
        from spidey_ray.stages.textstats import (
            strip_repeated_lines_batch as real_strip)

        cdir = str(tmp_path / "clean_calls")
        ldir = str(tmp_path / "lm_calls")
        os.makedirs(cdir)
        os.makedirs(ldir)

        def counting_strip(batch, **kw):
            import os
            import uuid

            open(os.path.join(cdir, f"{uuid.uuid4().hex}-{len(batch)}"),
                 "w").close()
            return real_strip(batch, **kw)

        def counting_score(texts, model):
            import os
            import uuid

            open(os.path.join(ldir, f"{uuid.uuid4().hex}-{len(texts)}"),
                 "w").close()
            return real_score(texts, model)

        monkeypatch.setattr(cur, "strip_repeated_lines_batch",
                            counting_strip)
        monkeypatch.setattr(cur, "score_batch_micro", counting_score)

        out = cur.curate(self._docs(), lm_min_count=1,
                         lm_min_micro_per_token=-10_000_000)
        got = out.to_pandas()
        assert len(got) == self.N  # every doc passes every gate

        def rows_seen(d):
            return sum(int(f.rsplit("-", 1)[1]) for f in os.listdir(d))

        # clean saw the corpus exactly once; the LM gate scored exactly
        # the clean survivors (== corpus here) exactly once
        assert rows_seen(cdir) == self.N
        assert rows_seen(ldir) == self.N
        # re-consuming the result reads persisted blocks, not lineage
        out.to_pandas()
        assert rows_seen(cdir) == self.N
        assert rows_seen(ldir) == self.N

    def test_checkpoint_dir_persists_to_disk(self, ray_session, tmp_path):
        import os

        from spidey_ray.pipelines.curation import curate

        out = curate(self._docs(), lm_min_count=1,
                     lm_min_micro_per_token=-10_000_000,
                     checkpoint_dir=str(tmp_path / "ckpt")).to_pandas()
        assert len(out) == self.N
        assert os.path.isdir(tmp_path / "ckpt" / "cleaned")
        assert os.path.isdir(tmp_path / "ckpt" / "gated")


class TestLmModelBound:
    def test_min_count_prunes_the_tail(self, ray_session):
        import ray.data

        from spidey_ray.stages.lm import (build_backoff_model,
                                          ngram_count_rows)

        # head: one sentence repeated 10x; tail: 200 singleton-trigram docs
        rows = [{"doc_id": i, "text": "the cat sat on the mat"}
                for i in range(10)]
        rows += [{"doc_id": 100 + i,
                  "text": f"uniq{i}a uniq{i}b uniq{i}c uniq{i}d"}
                 for i in range(200)]
        counts = ngram_count_rows(
            ray.data.from_items(rows).repartition(4))
        full = build_backoff_model(counts, min_count=1)
        pruned = build_backoff_model(counts, min_count=2)
        # the long tail is gone from the broadcast payload...
        assert all(n >= 2 for n in pruned["big"].values())
        assert all(n >= 2 for n in pruned["tri"].values())
        assert len(pruned["tri"]) == 4      # head trigrams only
        assert len(full["tri"]) == 4 + 200 * 2
        # ...while unigrams (the backstop level) and T are untouched
        assert pruned["uni"] == full["uni"]
        assert pruned["T"] == full["T"]


class TestLmEmptyCorpus:
    def test_empty_train_corpus_yields_floor_model(self, ray_session):
        import ray.data

        from spidey_ray.stages.lm import (build_backoff_model,
                                          ngram_count_rows,
                                          score_batch_micro)

        empty = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "text": pa.array([], type=pa.string())}))
        m = build_backoff_model(ngram_count_rows(empty))
        assert m == {"uni": {}, "big": {}, "tri": {}, "T": 1.0}
        ns, sums = score_batch_micro(["a b c d"], m)
        assert ns[0] == 2 and sums[0] < 0   # α²/T floor per position


class TestScoreBatchMicro:
    def test_matches_per_doc_scorer(self, ray_session):
        import ray.data

        from spidey_ray.stages.lm import (build_backoff_model,
                                          ngram_count_rows,
                                          score_batch_micro,
                                          score_logprob_micro)
        from spidey_ray.stages.textstats import tokens_of

        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(40)]
        texts = ["", "one", "one two",
                 "zz yy xx unseen tokens only here now"]
        texts += [" ".join(rng.choice(vocab, int(rng.integers(3, 60))))
                  for _ in range(60)]
        train = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(texts[4:30])])
        for mc in (1, 2):
            model = build_backoff_model(ngram_count_rows(train),
                                        min_count=mc)
            ns, sums = score_batch_micro(texts, model)
            for i, t in enumerate(texts):
                m, s = score_logprob_micro(tokens_of(t), model)
                assert (ns[i], sums[i]) == (m, s), (mc, i, t)


class TestDomainMix:
    def test_hits_target_proportions(self, ray_session):
        import hashlib

        import ray.data

        from spidey_ray.stages.sampling import mix_to_proportions

        rows = ([{"id": i, "k": "a"} for i in range(600)]
                + [{"id": 10_000 + i, "k": "b"} for i in range(100)]
                + [{"id": 20_000 + i, "k": "c"} for i in range(50)]
                + [{"id": 30_000 + i, "k": "junk"} for i in range(40)])
        shares = {"a": 0.5, "b": 0.3, "c": 0.2}
        out = mix_to_proportions(
            ray.data.from_items(rows), "k", "id", shares).to_pandas()

        # binding group: c (50/0.2=250 < 600/0.5=1200, 100/0.3=333) kept whole
        assert (out["k"] == "c").sum() == 50
        # unlisted key dropped entirely
        assert not (out["k"] == "junk").any()

        # exact membership mirror: rate -> md5-rank threshold per the
        # documented derivation
        n_out = min(600 / 0.5, 100 / 0.3, 50 / 0.2)
        for key, n in (("a", 600), ("b", 100), ("c", 50)):
            rate = shares[key] * n_out / n
            thr = ("g" if rate >= 1.0
                   else format(int(rate * 0x1_0000_0000), "08x"))
            got = set(out.loc[out["k"] == key, "id"])
            want = {r["id"] for r in rows if r["k"] == key
                    and hashlib.md5(str(r["id"]).encode()).hexdigest()[:8]
                    < thr}
            assert got == want
        # proportions land near target (binomial noise at n≈250)
        p = out["k"].value_counts(normalize=True)
        assert abs(p["a"] - 0.5) < 0.1 and abs(p["b"] - 0.3) < 0.1


class TestDsirWeights:
    def test_matches_scalar_reference(self, ray_session):
        import hashlib
        import math

        import ray.data

        from spidey_ray.stages.dsir import (ALPHA, NUM_BUCKETS,
                                            dsir_weights)
        from spidey_ray.stages.textstats import tokens_of

        docs = [
            (0, "the cat sat on the mat"),
            (1, "stock market prices fell sharply today again"),
            (2, "the cat ran on the mat"),
            (3, "a cat sat"),
            (4, ""),                      # no tokens: excluded
        ]
        target = [d for d in docs if d[0] % 2 == 0]

        def grams(toks):
            return toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]

        def bucket(g):
            return int(hashlib.md5(g.encode()).hexdigest()[:3], 16)

        ct = [0] * NUM_BUCKETS
        cr = [0] * NUM_BUCKETS
        for _, t in target:
            for g in grams(tokens_of(t)):
                ct[bucket(g)] += 1
        for _, t in docs:
            for g in grams(tokens_of(t)):
                cr[bucket(g)] += 1
        dt = float(sum(ct)) + ALPHA * NUM_BUCKETS
        dr = float(sum(cr)) + ALPHA * NUM_BUCKETS

        def ref(toks):
            gs = grams(toks)
            tot = 0
            for g in gs:
                b = bucket(g)
                r = ((ct[b] + ALPHA) / dt) / ((cr[b] + ALPHA) / dr)
                tot += math.floor(math.log10(r) * 1e6 + 0.5)
            return len(gs), tot

        out = dsir_weights(
            ray.data.from_items(
                [{"doc_id": d, "text": t} for d, t in docs]),
            ray.data.from_items(
                [{"doc_id": d, "text": t} for d, t in target]),
        ).to_pandas().set_index("doc_id").sort_index()
        assert list(out.index) == [0, 1, 2, 3]
        for d, t in docs[:4]:
            n, tot = ref(tokens_of(t))
            assert out.loc[d, "n_grams"] == n
            assert out.loc[d, "dsir_weight_micro"] == tot
        # target-slice doc scores above the out-of-domain doc
        assert (out.loc[0, "dsir_weight_micro"] / out.loc[0, "n_grams"]
                > out.loc[1, "dsir_weight_micro"] / out.loc[1, "n_grams"])


class TestStripRepeatedLines:
    def test_rules(self, ray_session):
        import pyarrow as _pa

        from spidey_ray.stages.textstats import strip_repeated_lines_batch

        docs = [
            (0, "nav bar\nreal one\nnav bar\nreal two\nnav bar"),
            (1, "only\nunique\nlines"),
            (2, "x\nx\nx\nx"),
            (3, ""),
        ]
        out = strip_repeated_lines_batch(_pa.table({
            "doc_id": _pa.array([d for d, _ in docs], type=_pa.int64()),
            "text": _pa.array([t for _, t in docs]),
        })).to_pandas().set_index("doc_id")
        assert list(out.index) == [0, 1, 2, 3]  # every doc survives
        assert out.loc[0, "clean_text"] == "nav bar\nreal one\nreal two"
        assert out.loc[0, "n_removed"] == 2
        assert out.loc[1, "clean_text"] == "only\nunique\nlines"
        assert out.loc[1, "n_removed"] == 0
        assert out.loc[2, "clean_text"] == "x"
        assert out.loc[2, "n_removed"] == 3
        assert out.loc[3, "clean_text"] == ""
        assert out.loc[3, "n_removed"] == 0


class TestC4LineFilter:
    def test_rules(self, ray_session):
        import pyarrow as _pa

        from spidey_ray.stages.textstats import c4_line_filter_batch

        docs = [
            # survives: 3 good lines (one bad line dropped)
            (0, "good line one here.\nshort.\nanother fine line two!\n"
                'quoted line stays alive"\nno terminal punct line'),
            # dropped: lorem ipsum
            (1, "good line one here.\ngood line two here.\n"
                "good line three here.\nhas lorem ipsum inside."),
            # dropped: brace
            (2, "good line one here.\ngood line two here.\n"
                "good { line three."),
            # dropped: only 2 surviving lines
            (3, "good line one here.\ngood line two here.\nbad line"),
            # javascript line removed, doc survives with exactly 3
            (4, "enable javascript to view.\nreal line one here.\n"
                "real line two here.\nreal line three here."),
        ]
        out = c4_line_filter_batch(_pa.table({
            "doc_id": _pa.array([d for d, _ in docs], type=_pa.int64()),
            "text": _pa.array([t for _, t in docs]),
        })).to_pandas().set_index("doc_id")
        assert sorted(out.index) == [0, 4]
        assert out.loc[0, "n_lines"] == 3
        assert out.loc[0, "clean_text"] == (
            "good line one here.\nanother fine line two!\n"
            'quoted line stays alive"')
        assert out.loc[4, "n_lines"] == 3
        assert "javascript" not in out.loc[4, "clean_text"]


class TestLmPerplexity:
    def test_matches_scalar_reference(self, ray_session):
        import math

        import ray.data

        from spidey_ray.stages.lm import lm_perplexity
        from spidey_ray.stages.textstats import tokens_of

        docs = [
            (0, "the cat sat on the mat and the cat ran"),
            (1, "the dog sat on the mat and the dog ran"),
            (2, "a completely different sentence with novel words here"),
            (3, "the cat sat on the mat"),   # high-prob under the model
            (4, "xx"),                        # < 3 tokens: excluded
        ]
        train = [d for d in docs if d[0] % 2 == 0]

        # independent scalar stupid-backoff reference
        from collections import Counter
        c1, c2, c3 = Counter(), Counter(), Counter()
        for _, t in train:
            tk = tokens_of(t)
            c1.update(tk)
            c2.update(" ".join(p) for p in zip(tk, tk[1:]))
            c3.update(" ".join(p) for p in zip(tk, tk[1:], tk[2:]))
        T = float(sum(c1.values()))

        def ref(toks):
            tot, m = 0, 0
            for i in range(len(toks) - 2):
                a, b, w = toks[i], toks[i + 1], toks[i + 2]
                if c3.get(f"{a} {b} {w}", 0) and c2.get(f"{a} {b}", 0):
                    p = c3[f"{a} {b} {w}"] / c2[f"{a} {b}"]
                elif c2.get(f"{b} {w}", 0) and c1.get(b, 0):
                    p = 0.4 * (c2[f"{b} {w}"] / c1[b])
                elif c1.get(w, 0):
                    p = 0.16 * (c1[w] / T)
                else:
                    p = 0.16 * (1.0 / T)
                tot += math.floor(math.log10(p) * 1e6 + 0.5)
                m += 1
            return m, tot

        out = lm_perplexity(
            ray.data.from_items(
                [{"doc_id": d, "text": t} for d, t in docs]),
            ray.data.from_items(
                [{"doc_id": d, "text": t} for d, t in train]),
        ).to_pandas().set_index("doc_id").sort_index()
        assert list(out.index) == [0, 1, 2, 3]
        for d, t in docs[:4]:
            m, tot = ref(tokens_of(t))
            assert out.loc[d, "n_scored"] == m
            assert out.loc[d, "sum_log10p_micro"] == tot
        # sanity: the in-model doc scores better (less negative per
        # token) than the doc with OOV words ("dog" unseen in train)
        per_tok = out["sum_log10p_micro"] / out["n_scored"]
        assert per_tok[3] > per_tok[1]

    def test_min_count_prunes(self, ray_session):
        import ray.data

        from spidey_ray.stages.lm import (build_backoff_model,
                                          ngram_count_rows)

        ds = ray.data.from_items(
            [{"text": "a b c a b c x y z"}, {"text": "a b c"}])
        full = build_backoff_model(ngram_count_rows(ds))
        pruned = build_backoff_model(ngram_count_rows(ds), min_count=2)
        assert "x y" in full["big"] and "x y" not in pruned["big"]
        assert "a b" in pruned["big"]          # count 3 survives
        assert pruned["uni"] == full["uni"]    # unigrams kept (OOV floor)


class TestDuplicateSpans:
    K = 4

    @pytest.fixture(scope="class")
    def corpus(self):
        boiler = "all rights reserved contact us for more information today"
        docs = [
            (0, f"alpha beta gamma delta {boiler} unique tail zero"),
            (1, f"different head words here {boiler} another ending one"),
            (2, "totally novel content with no repeats at all whatsoever"),
            (3, "self repeat self repeat self repeat self repeat done"),
            (4, ""),
        ]
        return docs

    def _reference_spans(self, docs, k):
        from spidey_ray.stages.textstats import tokens_of

        counts = {}
        toks = {d: tuple(tokens_of(t)) for d, t in docs}
        for d, tk in toks.items():
            for i in range(len(tk) - k + 1):
                counts[tk[i:i + k]] = counts.get(tk[i:i + k], 0) + 1
        spans = []
        for d, tk in toks.items():
            hits = [i for i in range(len(tk) - k + 1)
                    if counts[tk[i:i + k]] >= 2]
            start = None
            prev = None
            for p in hits:
                if start is None:
                    start, prev = p, p
                elif p - prev <= k:
                    prev = p
                else:
                    spans.append((d, start, prev + k))
                    start, prev = p, p
            if start is not None:
                spans.append((d, start, prev + k))
        return sorted(spans)

    def test_spans_match_bruteforce(self, ray_session, corpus):
        import ray.data

        from spidey_ray.stages.dedup import duplicate_spans

        ds = ray.data.from_items(
            [{"doc_id": d, "text": t} for d, t in corpus])
        got = duplicate_spans(ds, k=self.K).to_pandas()
        got_set = sorted(map(tuple, got[["doc_id", "span_start",
                                         "span_end"]].values))
        assert got_set == self._reference_spans(corpus, self.K)

    def test_strip_removes_only_span_tokens(self, ray_session, corpus):
        import ray.data

        from spidey_ray.stages.dedup import strip_duplicate_spans
        from spidey_ray.stages.textstats import tokens_of

        ds = ray.data.from_items(
            [{"doc_id": d, "text": t} for d, t in corpus])
        out = (strip_duplicate_spans(ds, k=self.K).to_pandas()
               .set_index("doc_id")["clean_text"])
        spans = {}
        for d, s, e in self._reference_spans(corpus, self.K):
            spans.setdefault(d, []).append((s, e))
        for d, t in corpus:
            toks = tokens_of(t)
            cut = set()
            for s, e in spans.get(d, []):
                cut.update(range(s, e))
            expected = " ".join(
                tok for i, tok in enumerate(toks) if i not in cut)
            assert out[d] == expected
        # doc 2 (novel) untouched; doc 3 (self-repeat) fully cut or reduced
        assert out[2] == " ".join(tokens_of(corpus[2][1]))
        assert len(out[3]) < len(corpus[3][1])

    def test_strip_join_branch_equals_broadcast(self, ray_session, corpus):
        import ray.data

        from spidey_ray.stages.dedup import strip_duplicate_spans

        ds = ray.data.from_items(
            [{"doc_id": d, "text": t} for d, t in corpus])
        bc = (strip_duplicate_spans(ds, k=self.K).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
        jn = (strip_duplicate_spans(ds, k=self.K, broadcast_limit=0)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(bc, jn)


class TestHeavyHitters:
    def _zipf_table(self, n=60_000, seed=7):
        import numpy as np
        import pandas as pd

        rng = np.random.default_rng(seed)
        # zipf-ish over ~2k items with a genuinely heavy head
        vals = rng.zipf(1.3, size=n) % 2000
        return pd.DataFrame({"item": np.char.add("w", vals.astype(str))})

    def test_guarantee_and_bounds(self, ray_session):
        import ray.data

        from spidey_ray.stages.sketches import heavy_hitters

        df = self._zipf_table()
        exact = df["item"].value_counts()
        n = len(df)
        k, phi = 64, 0.01
        ds = ray.data.from_pandas(df).repartition(16)
        out = heavy_hitters(ds, "item", k=k, threshold_frac=phi)
        got = dict(zip(out["item"], out["est"]))
        err = int(out["err"].iloc[0]) if len(out) else 0
        assert err <= n // (k + 1)
        # recall: every true heavy hitter above the threshold is present
        for item, true in exact.items():
            if true > phi * n:
                assert item in got, (item, true)
        # soundness: true count in [est, est + err] for every return
        for item, est in got.items():
            true = int(exact.get(item, 0))
            assert est <= true <= est + err, (item, est, true, err)

    def test_exact_when_under_k(self, ray_session):
        import pandas as pd
        import ray.data

        from spidey_ray.stages.sketches import heavy_hitters

        df = pd.DataFrame({"item": ["a"] * 5 + ["b"] * 3 + ["c"] * 2})
        out = heavy_hitters(ray.data.from_pandas(df).repartition(3),
                            "item", k=16)
        assert int(out["err"].iloc[0]) == 0
        assert dict(zip(out["item"], out["est"])) == {"a": 5, "b": 3, "c": 2}
        assert list(out["item"]) == ["a", "b", "c"]   # est desc


class TestTDigest:
    def test_rank_accuracy_heavy_tail(self):
        from spidey_ray.stages.sketches import TDigest

        rng = np.random.default_rng(1)
        vals = rng.lognormal(0, 1.5, 100_000)
        d = TDigest.of(vals)
        assert len(d.means) < 1500          # compressed
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            rank = (vals <= d.quantile(q)).mean()
            assert abs(rank - q) < 0.005, q

    def test_merge_associative_accuracy(self):
        from spidey_ray.stages.sketches import TDigest

        rng = np.random.default_rng(7)
        vals = rng.standard_normal(60_000) * 10
        parts = [TDigest.of(vals[i::6]) for i in range(6)]
        m = parts[0]
        for p in parts[1:]:
            m = m.merge(p)
        for q in (0.05, 0.5, 0.95):
            rank = (vals <= m.quantile(q)).mean()
            assert abs(rank - q) < 0.01, q

    def test_distributed_matches_exact(self, ray_session):
        import ray.data

        from spidey_ray.stages.sketches import approx_quantiles

        rng = np.random.default_rng(9)
        vals = rng.gamma(2.0, 3.0, 20_000)
        ds = ray.data.from_items([{"v": float(x)} for x in vals])
        out = approx_quantiles(ds, "v", [0.25, 0.5, 0.9])
        for q, est in out:
            rank = (vals <= est).mean()
            assert abs(rank - q) < 0.01, (q, est)

    def test_edge_cases(self):
        from spidey_ray.stages.sketches import TDigest

        assert np.isnan(TDigest.of(np.array([])).quantile(0.5))
        single = TDigest.of(np.array([42.0]))
        assert single.quantile(0.0) == single.quantile(1.0) == 42.0
        with_nan = TDigest.of(np.array([1.0, np.nan, 3.0]))
        assert 1.0 <= with_nan.quantile(0.5) <= 3.0


class TestDeterministicSampling:
    @pytest.fixture(scope="class")
    def keyed_ds(self, ray_session):
        import ray.data

        rows = [{"id": i, "k": ["a", "b", "c"][i % 3]} for i in range(3000)]
        return ray.data.from_items(rows)

    def test_hash_sample_fraction_and_determinism(self, keyed_ds):
        import hashlib

        from spidey_ray.stages.sampling import hash_sample

        a = hash_sample(keyed_ds, "id", fraction=0.3).to_pandas()
        b = hash_sample(keyed_ds, "id", fraction=0.3).to_pandas()
        assert sorted(a["id"]) == sorted(b["id"])       # deterministic
        assert 0.25 < len(a) / 3000 < 0.35              # ~fraction
        # membership is exactly the md5 rule
        for i in a["id"][:50]:
            assert hashlib.md5(str(i).encode()).hexdigest()[:8] < "4ccccccc"

    def test_shuffle_to_shards(self, keyed_ds):
        import hashlib

        from spidey_ray.stages.sampling import shuffle_to_shards

        out = shuffle_to_shards(keyed_ds, "id", n_shards=8).to_pandas()
        # permutation: every row exactly once, all columns carried
        assert sorted(out["id"]) == list(range(3000))
        assert set(out.columns) == {"id", "k", "shard_id", "shard_pos"}
        # shard assignment is exactly the md5 rule; positions contiguous
        for sid, g in out.groupby("shard_id"):
            assert sorted(g["shard_pos"]) == list(range(len(g)))
            ranks = [hashlib.md5(f"42:{i}".encode()).hexdigest()[:8]
                     for i in g["id"]]
            assert all(int(r, 16) % 8 == sid for r in ranks)
            # within-shard order is (rank, id)
            ordered = g.sort_values("shard_pos")
            keys = [(hashlib.md5(f"42:{i}".encode()).hexdigest()[:8], i)
                    for i in ordered["id"]]
            assert keys == sorted(keys)
        # md5 uniformity: shards even-sized (3000/8 = 375 ± slack)
        sizes = out.groupby("shard_id").size()
        assert len(sizes) == 8 and sizes.min() > 300 and sizes.max() < 450

    def test_shuffle_layout_and_seed(self, keyed_ds):
        from spidey_ray.stages.sampling import shuffle_to_shards

        a = (shuffle_to_shards(keyed_ds, "id", n_shards=4)
             .to_pandas().sort_values(["shard_id", "shard_pos"])
             .reset_index(drop=True))
        b = (shuffle_to_shards(keyed_ds.repartition(13), "id", n_shards=4)
             .to_pandas().sort_values(["shard_id", "shard_pos"])
             .reset_index(drop=True))
        assert a.equals(b)                       # layout-independent
        c = shuffle_to_shards(keyed_ds, "id", n_shards=4,
                              seed="other").to_pandas()
        ord_a = a.sort_values(["shard_id", "shard_pos"])["id"].tolist()
        ord_c = (c.sort_values(["shard_id", "shard_pos"])["id"].tolist())
        assert ord_a != ord_c                    # fresh permutation

    def test_export_shards_resumable(self, keyed_ds, tmp_path):
        import shutil

        import pyarrow.parquet as pq

        from spidey_ray.pipelines.export import export_shards, read_shards

        out = str(tmp_path / "exp")
        s1 = export_shards(keyed_ds, out, "id", n_shards=8)
        assert s1["shard_id"].tolist() == list(range(8))
        assert not s1["skipped"].any()
        assert s1["n_rows"].sum() == 3000
        # every shard finished: data file + marker
        for sid in range(8):
            d = tmp_path / "exp" / f"shard={sid:05d}"
            assert (d / "_SUCCESS").exists() and (d / "part.parquet").exists()
        first = pq.read_table(str(tmp_path / "exp/shard=00003/part.parquet"))

        # full re-run: everything skipped, nothing rewritten
        before = (tmp_path / "exp/shard=00003/part.parquet").stat().st_mtime_ns
        s2 = export_shards(keyed_ds, out, "id", n_shards=8)
        assert s2["skipped"].all()
        assert (tmp_path / "exp/shard=00003/part.parquet"
                ).stat().st_mtime_ns == before

        # lose one shard → resume completes ONLY it, byte-identical rows
        shutil.rmtree(tmp_path / "exp/shard=00003")
        s3 = export_shards(keyed_ds, out, "id", n_shards=8)
        assert s3.set_index("shard_id")["skipped"].tolist() == [
            True, True, True, False, True, True, True, True]
        again = pq.read_table(str(tmp_path / "exp/shard=00003/part.parquet"))
        assert again.equals(first)

        # read side sees only finished shards
        (tmp_path / "exp/shard=00005/_SUCCESS").unlink()
        back = read_shards(out).to_pandas()
        assert sorted(back["shard_id"].unique()) == [0, 1, 2, 3, 4, 6, 7]
        (tmp_path / "exp/shard=00005/_SUCCESS").touch()
        back = read_shards(out).to_pandas()
        assert sorted(back["id"]) == list(range(3000))

    def test_stratified_fractions(self, keyed_ds):
        from spidey_ray.stages.sampling import hash_sample

        out = hash_sample(keyed_ds, "id", key_col="k",
                          fraction_by_key={"a": 0.5, "b": 0.1, "c": 1.0}
                          ).to_pandas()
        by = out.groupby("k").size()
        assert 0.4 < by["a"] / 1000 < 0.6
        assert 0.05 < by["b"] / 1000 < 0.16
        assert by["c"] == 1000                  # fraction 1.0 keeps all

    def test_cap_per_key(self, keyed_ds):
        import hashlib

        from spidey_ray.stages.sampling import cap_per_key

        out = cap_per_key(keyed_ds, "k", "id", cap=7).to_pandas()
        assert (out.groupby("k").size() == 7).all()
        # winners are exactly the 7 smallest (md5rank, id) per key
        full = keyed_ds.to_pandas()
        full["r"] = [hashlib.md5(str(i).encode()).hexdigest()[:8]
                     for i in full["id"]]
        for k, grp in full.groupby("k"):
            want = set(grp.sort_values(["r", "id"]).head(7)["id"])
            assert set(out[out["k"] == k]["id"]) == want


class TestGroupbyAggExact:
    def test_same_bits_on_1_7_64_blocks(self, ray_session):
        """``groupby_agg`` sums in scaled int64, so the block layout cannot
        move a bit: 1, 7 and 64 input blocks give identical frames, each
        value the nearest double to the exact decimal sum."""
        import ray.data

        import __ray_entry__ as entry

        rng = np.random.default_rng(7)
        n = 300_000                     # two groups of ~5e9 sums, as at sf0.1
        price_c = rng.integers(90_000, 10_500_000, n)      # cents
        disc_c = rng.integers(0, 11, n)                     # hundredths
        qty_c = rng.integers(1, 51, n) * 100
        t = pa.table({
            "l_returnflag": rng.choice(["A", "R"], n),
            "l_linestatus": np.full(n, "F"),
            "l_quantity": qty_c / 100, "l_extendedprice": price_c / 100,
            "l_discount": disc_c / 100})

        def run(n_blocks):
            bounds = np.linspace(0, n, n_blocks + 1).astype(int)
            parts = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
            ds = ray.data.from_arrow(parts)
            assert ds.num_blocks() == n_blocks
            return (entry.groupby_agg(ds)
                    .sort_values(["l_returnflag", "l_linestatus"])
                    .reset_index(drop=True))

        one = run(1)
        for k in (7, 64):
            pd.testing.assert_frame_equal(run(k), one, check_exact=True)

        keys = pd.DataFrame({"f": t["l_returnflag"].to_numpy(zero_copy_only=False),
                             "s": t["l_linestatus"].to_numpy(zero_copy_only=False),
                             "q": qty_c, "p": price_c,
                             "d": price_c * (100 - disc_c)})
        exact = keys.groupby(["f", "s"]).sum().sort_index()
        assert one["sum_qty"].tolist() == (exact["q"] / 100).tolist()
        assert one["sum_base_price"].tolist() == (exact["p"] / 100).tolist()
        assert one["sum_disc_price"].tolist() == (exact["d"] / 10_000).tolist()
        assert one["n"].sum() == n
