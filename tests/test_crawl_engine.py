"""Engine-vs-oracle conformance (SURVEY.md §5.1, north_rule invariants):
crawl order, final URL-seen set, span sequences, blacklist, metrics,
checkpoint/resume.  The serial oracle pins the canonical semantics; the
distributed engine must reproduce them bit-for-bit."""

import shutil

import numpy as np
import pytest

from spidey_ray.sources.synthetic_web import WebConfig
from spidey_ray.state.cuckoo import CuckooFilter
from spidey_ray.state.politeness import admit_round


@pytest.fixture(scope="module")
def small_web():
    return WebConfig()  # 8 hosts × 12 pages, every feature present


@pytest.fixture(scope="module")
def oracle_result(small_web):
    from spidey_ray.pipelines.oracle import crawl_serial

    return crawl_serial(small_web)


@pytest.fixture(scope="module")
def engine_result(ray_session, small_web, tmp_path_factory):
    from spidey_ray.pipelines.crawl import CrawlEngine

    ckpt = str(tmp_path_factory.mktemp("ckpt"))
    return CrawlEngine(small_web, ckpt_dir=ckpt).run()


class TestEngineMatchesOracle:
    def test_crawl_order(self, engine_result, oracle_result):
        assert engine_result.fetch_log == oracle_result.fetch_log

    def test_url_seen_set(self, engine_result, oracle_result):
        assert engine_result.seen_hashes == oracle_result.seen_hashes

    def test_unique_count(self, engine_result, oracle_result):
        assert engine_result.gate.unique_url_count == oracle_result.gate.unique_url_count

    def test_host_counts(self, engine_result, oracle_result):
        oc = {h: s.n_urls for h, s in oracle_result.hosts.items()
              if s.robots_processed}
        assert engine_result.host_counts() == oc

    def test_blacklists(self, engine_result, oracle_result):
        assert dict(engine_result.blacklist.permanent) == dict(
            oracle_result.blacklist.permanent)
        assert engine_result.blacklist.temp == oracle_result.blacklist.temp

    def test_token_counts(self, engine_result, oracle_result):
        assert engine_result.token_counts == oracle_result.token_counts

    def test_longest_pages(self, engine_result, oracle_result):
        assert [tuple(x) for x in engine_result.longest] == oracle_result.longest

    def test_span_sequence_equality(self, engine_result, oracle_result):
        """Per-row invariant: span-sequence equality on
        (kind, text, media_ref, order) — BASELINE.json input_hint."""
        docs = engine_result.documents()
        assert docs is not None
        got = {d: s for d, s in zip(docs["doc_id"].to_pylist(),
                                    docs["spans"].to_pylist())}
        assert set(got) == set(oracle_result.documents)
        for doc_id, spans in got.items():
            assert spans == oracle_result.documents[doc_id], doc_id

    def test_trap_and_query_features_exercised(self, oracle_result):
        # the fixture web must actually exercise the interesting paths
        reasons = set(oracle_result.blacklist.permanent.values())
        assert "repeating path trap" in reasons
        assert "low info value" in reasons
        assert any("list" in p for p in oracle_result.blacklist.temp)


class TestDistributedPath:
    def test_forced_distributed_matches_oracle(self, ray_session, small_web,
                                               oracle_result, tmp_path):
        """inline_threshold=0 forces every round through the streaming
        executor — the distributed fused stage must match the oracle too."""
        from spidey_ray.pipelines.crawl import CrawlEngine

        eng = CrawlEngine(small_web, ckpt_dir=str(tmp_path / "ck"),
                          inline_threshold=0)
        res = eng.run()
        # the benchmark's traced crawl reads these keys: a renamed phase
        # would read 0 there instead of failing
        assert set(eng.timings) == {
            "engine_init", "admit", "fetch_parse_exec", "fetch_parse",
            "gates", "token_counts", "link_check", "robots", "additions",
            "boundary", "checkpoint"}
        assert res.fetch_log == oracle_result.fetch_log
        assert res.seen_hashes == oracle_result.seen_hashes
        assert res.token_counts == oracle_result.token_counts
        docs = res.documents()
        got = {d: s for d, s in zip(docs["doc_id"].to_pylist(),
                                    docs["spans"].to_pylist())}
        assert set(got) == set(oracle_result.documents)
        for k, v in got.items():
            assert v == oracle_result.documents[k], k


class TestMediumWeb:
    def test_medium_web_distributed_equality(self, ray_session, tmp_path):
        """24 hosts × 20 pages, forced distributed, multi-wave rounds —
        ordering bugs that only appear with bigger rounds must not exist."""
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        cfg = WebConfig(n_hosts=24, pages_per_host=20, n_seeds=8)
        o = crawl_serial(cfg)
        e = CrawlEngine(cfg, ckpt_dir=str(tmp_path / "ck"), inline_threshold=0,
                        n_seen_shards=4, n_host_shards=3).run()
        assert e.fetch_log == o.fetch_log
        assert e.seen_hashes == o.seen_hashes
        assert e.token_counts == o.token_counts
        assert dict(e.blacklist.permanent) == dict(o.blacklist.permanent)
        docs = e.documents()
        got = {d: s for d, s in zip(docs["doc_id"].to_pylist(),
                                    docs["spans"].to_pylist())}
        assert set(got) == set(o.documents)
        for k in got:
            assert got[k] == o.documents[k], k


class TestAlternateSeed:
    def test_different_seed_web_still_exact(self, ray_session, tmp_path):
        """Guard against seed-42 coincidences: a different web (different
        content, graph, trap shapes) must still match the oracle exactly."""
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        cfg = WebConfig(seed=7, n_hosts=10, pages_per_host=14, n_seeds=5)
        o = crawl_serial(cfg)
        e = CrawlEngine(cfg, ckpt_dir=str(tmp_path / "ck")).run()
        assert e.fetch_log == o.fetch_log
        assert e.seen_hashes == o.seen_hashes
        assert e.token_counts == o.token_counts
        assert dict(e.blacklist.permanent) == dict(o.blacklist.permanent)
        assert e.blacklist.temp == o.blacklist.temp


class TestResume:
    def test_resume_from_checkpoint_identical(self, ray_session, small_web, tmp_path):
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        ckpt = str(tmp_path / "ckpt")
        # run only rounds 0..2, as if the job was killed
        partial = CrawlEngine(small_web, ckpt_dir=ckpt).run(stop_after_round=2)
        assert partial.rounds == 3
        # resume from the checkpoint and finish
        resumed = CrawlEngine.resume(ckpt, small_web).run()
        oracle = crawl_serial(small_web)
        assert resumed.fetch_log == oracle.fetch_log
        assert resumed.seen_hashes == oracle.seen_hashes
        assert resumed.token_counts == oracle.token_counts
        assert dict(resumed.blacklist.permanent) == dict(oracle.blacklist.permanent)
        docs = resumed.documents()
        got = {d: s for d, s in zip(docs["doc_id"].to_pylist(),
                                    docs["spans"].to_pylist())}
        assert set(got) == set(oracle.documents)
        shutil.rmtree(ckpt, ignore_errors=True)

    def test_delta_checkpoints_resume_identical(self, ray_session, small_web,
                                                tmp_path):
        """KV pools checkpoint DELTAS with periodic full blobs: resuming
        across a compaction boundary (full at rounds 0/2/4, deltas between)
        must replay the chain bit-identically, and a delta round's
        footprint bytes must stay proportional to the round, not the
        corpus."""
        import os
        import pickle

        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        ckpt = str(tmp_path / "ckd")
        CrawlEngine(small_web, ckpt_dir=ckpt,
                    ckpt_compact_every=2).run(stop_after_round=3)
        # round 3 is a delta round (3 % 2 == 1): its footprint file must
        # hold only that round's new keys, not the accumulated corpus
        d3 = os.path.join(ckpt, "round=00003", "footprints_delta_shard0.pkl")
        f2 = os.path.join(ckpt, "round=00002", "footprints_full_shard0.pkl")
        assert os.path.exists(d3) and os.path.exists(f2)

        def rows(path):
            with open(path, "rb") as f:
                return len(pickle.load(f)["url"])

        assert rows(d3) <= rows(f2)
        resumed = CrawlEngine.resume(ckpt, small_web,
                                     ckpt_compact_every=2).run()
        oracle = crawl_serial(small_web)
        assert resumed.fetch_log == oracle.fetch_log
        assert resumed.seen_hashes == oracle.seen_hashes
        assert resumed.token_counts == oracle.token_counts
        shutil.rmtree(ckpt, ignore_errors=True)

    def test_resume_returns_with_actors_up(self, ray_session, small_web,
                                           tmp_path):
        """``resume`` (like ``__init__``) returns only once every state
        partition actor is up, and times that wait as
        ``timings["engine_init"]`` — before, actor start-up landed untimed in
        the first round of ``run()``.  The four facades share one actor per
        partition index: ``max(n_seen_shards, n_host_shards)`` actors."""
        import ray
        from ray._private import state

        from spidey_ray.pipelines.crawl import CrawlEngine

        ckpt = str(tmp_path / "ckup")
        eng = CrawlEngine(small_web, ckpt_dir=ckpt)
        assert eng.timings["engine_init"] > 0
        eng.run(stop_after_round=1)
        del eng
        resumed = CrawlEngine.resume(ckpt, small_web)
        assert resumed.timings["engine_init"] > 0
        handles = (resumed.seen.shards + resumed.footprints.shards
                   + resumed.frontier.shards + resumed.host_shards)
        actors = list({a._actor_id: a for a in handles}.values())
        assert len(actors) == max(resumed.n_seen_shards,
                                  resumed.n_host_shards)
        assert len(actors) == 4
        states = [state.actors(actor_id=a._actor_id.hex())["State"]
                  for a in actors]
        assert states == ["ALIVE"] * len(actors)
        ready, _ = ray.wait([a.__ray_ready__.remote() for a in actors],
                            num_returns=len(actors), timeout=30)
        assert len(ready) == len(actors)
        shutil.rmtree(ckpt, ignore_errors=True)

    def test_resume_derives_shard_count_from_checkpoint(self, ray_session,
                                                        small_web, tmp_path):
        """A checkpoint written with a NON-default n_host_shards must resume
        correctly without re-passing the kwarg (pre-fix: the frontier was
        restored with the default shard count while the politeness pool used
        the on-disk count — hash(host)%N disagreement, silent divergence) —
        and a CONFLICTING explicit kwarg must be rejected, not half-used."""
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        ckpt = str(tmp_path / "ckpt3")
        CrawlEngine(small_web, ckpt_dir=ckpt,
                    n_host_shards=3).run(stop_after_round=2)
        with pytest.raises(ValueError, match="n_host_shards"):
            CrawlEngine.resume(ckpt, small_web, n_host_shards=2)
        resumed = CrawlEngine.resume(ckpt, small_web).run()
        assert resumed.fetch_log == crawl_serial(small_web).fetch_log
        shutil.rmtree(ckpt, ignore_errors=True)


class TestStateLayout:
    def test_empty_round_writes_its_own_lineage(self, ray_session,
                                                tmp_path):
        """A 1.5 s round window on a 6 × 8 web leaves a round in which
        politeness admits no URL.  The crawl still equals the oracle's, and
        every round's lineage row names its own round and the number of
        URLs its fetched delta holds."""
        import os

        import pyarrow.parquet as pq

        from spidey_ray.pipelines.crawl import (
            CrawlEngine, _complete_rounds, _manifest)
        from spidey_ray.pipelines.oracle import crawl_serial
        from spidey_ray.state.politeness import CrawlSettings

        cfg = WebConfig(n_hosts=6, pages_per_host=8, n_seeds=3)
        settings = CrawlSettings(round_window=1.5)
        ckpt = str(tmp_path / "ck")
        res = CrawlEngine(cfg, settings, ckpt_dir=ckpt).run()
        oracle = crawl_serial(cfg, settings)
        assert res.fetch_log == oracle.fetch_log
        assert res.seen_hashes == oracle.seen_hashes
        assert res.token_counts == oracle.token_counts
        fetched = []
        for rd in _complete_rounds(ckpt):
            lin = _manifest(rd)["lineage"]
            n = pq.read_metadata(
                os.path.join(rd, "fetched_delta.parquet")).num_rows
            assert (lin["round"], lin["urls_fetched"]) \
                == (int(rd.rsplit("=", 1)[1]), n)
            fetched.append(n)
        assert 0 in fetched

    def test_footprints_live_in_their_seen_shard(self, ray_session,
                                                 small_web, tmp_path):
        """After a crawl, every fetched URL's footprint is held by exactly
        one URL shard, and that shard's cuckoo filter holds the URL's seen
        key."""
        import ray

        from spidey_ray.functions.urltools import url_hash
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.state.cuckoo import key64

        eng = CrawlEngine(small_web, ckpt_dir=str(tmp_path / "ck"),
                          n_seen_shards=3)
        urls = eng.run().fetch_log
        keys = np.array([key64(url_hash(u)) for u in urls], dtype=np.uint64)
        shards = eng.footprints.shards
        held = ray.get([s.get_many.remote(urls) for s in shards])
        seen = ray.get([s.contains.remote(keys) for s in shards])
        owners = {}
        for i, fps in enumerate(held):
            for u in fps:
                assert u not in owners, u
                owners[u] = i
        assert len(owners) > len(urls) // 2      # most pages have a footprint
        for j, u in enumerate(urls):
            if u in owners:
                assert seen[owners[u]][j], u

    def test_resume_refuses_other_layout(self, ray_session, small_web,
                                         tmp_path):
        """A checkpoint whose last round carries no layout version, or
        another one (version 2 wrote its footprints as Parquet), is refused
        with the directory and both versions named — its footprints would
        restore into the wrong shards or not at all.  So is a checkpoint of
        layout 3 or older, whose rounds carry ``_SUCCESS`` and no manifest:
        it has no complete round of this layout, and resume must not start
        a fresh crawl over it."""
        import json
        import os

        from spidey_ray.pipelines.crawl import CHECKPOINT_LAYOUT, CrawlEngine

        ckpt = str(tmp_path / "ckl")
        CrawlEngine(small_web, ckpt_dir=ckpt).run(stop_after_round=1)
        rd = os.path.join(ckpt, "round=00001")
        path = os.path.join(rd, "manifest.json")
        with open(path) as f:
            saved = json.load(f)
        assert saved["layout"] == CHECKPOINT_LAYOUT
        for other in sorted({2, 3, CHECKPOINT_LAYOUT - 1}):
            saved["layout"] = other
            with open(path, "w") as f:
                json.dump(saved, f)
            with pytest.raises(ValueError) as err:
                CrawlEngine.resume(ckpt, small_web)
            msg = str(err.value)
            assert rd in msg
            assert f"version {other}" in msg
            assert f"version {CHECKPOINT_LAYOUT}" in msg
        del saved["layout"]
        with open(path, "w") as f:
            json.dump(saved, f)
        with pytest.raises(ValueError, match="layout version none"):
            CrawlEngine.resume(ckpt, small_web)

        # a layout-3 checkpoint: the same rounds marked the old way
        old = str(tmp_path / "ck3")
        for r in ("round=00000", "round=00001"):
            os.makedirs(os.path.join(old, r))
            with open(os.path.join(old, r, "_SUCCESS"), "w") as f:
                f.write("ok")
        with pytest.raises(ValueError) as err:
            CrawlEngine.resume(old, small_web)
        msg = str(err.value)
        assert os.path.join(old, "round=00001") in msg
        assert "version 3 or older" in msg
        assert f"version {CHECKPOINT_LAYOUT}" in msg
        assert sorted(os.listdir(old)) == ["round=00000", "round=00001"]

    def test_torn_manifest_resumes_from_round_before(self, ray_session,
                                                     small_web, tmp_path):
        """A crash while the last round's manifest was being written leaves
        a ``manifest.json.tmp`` and no ``manifest.json``: that round is not
        complete, resume restarts from the round before it, and the crawl
        equals the serial oracle's."""
        import os

        from spidey_ray.pipelines.crawl import CrawlEngine, _complete_rounds
        from spidey_ray.pipelines.oracle import crawl_serial

        ckpt = str(tmp_path / "ckt")
        CrawlEngine(small_web, ckpt_dir=ckpt).run()
        rounds = _complete_rounds(ckpt)
        last = rounds[-1]
        os.remove(os.path.join(last, "manifest.json"))
        with open(os.path.join(last, "manifest.json.tmp"), "w") as f:
            f.write('{"layout": ')
        assert _complete_rounds(ckpt) == rounds[:-1]
        eng = CrawlEngine.resume(ckpt, small_web)
        assert eng.start_round == len(rounds) - 1
        res = eng.run()
        oracle = crawl_serial(small_web)
        assert res.fetch_log == oracle.fetch_log
        assert res.seen_hashes == oracle.seen_hashes
        assert res.token_counts == oracle.token_counts
        assert dict(res.blacklist.permanent) == dict(
            oracle.blacklist.permanent)
        assert _complete_rounds(ckpt) == rounds
        assert not os.path.exists(os.path.join(last, "manifest.json.tmp"))

    def test_round_dir_holds_three_driver_files(self, ray_session,
                                                small_web, tmp_path):
        """At 4 URL shards and 2 host partitions with nothing spilled, each
        round dir holds exactly the driver's three files and the
        partitions' own: a pending frontier and a host snapshot per host
        partition, and a seen and a footprint blob (full every
        ``ckpt_compact_every`` rounds, else a delta) per URL shard."""
        import os

        from spidey_ray.pipelines.crawl import CrawlEngine, _complete_rounds

        ckpt = str(tmp_path / "ckf")
        CrawlEngine(small_web, ckpt_dir=ckpt, n_seen_shards=4,
                    n_host_shards=2, ckpt_compact_every=2).run()
        rounds = _complete_rounds(ckpt)
        assert len(rounds) > 2
        for k, rd in enumerate(rounds):
            kind = "full" if k % 2 == 0 else "delta"
            want = {"fetched_delta.parquet", "token_partials.parquet",
                    "manifest.json"}
            want |= {f"{n}_shard{i}.{x}" for i in range(2)
                     for n, x in (("pending", "parquet"), ("host", "json"))}
            want |= {f"{n}_{kind}_shard{i}.pkl" for i in range(4)
                     for n in ("seen", "footprints")}
            assert sorted(os.listdir(rd)) == sorted(want), rd

    def test_state_actors_load_only_their_libraries(self, ray_session,
                                                     small_web, tmp_path):
        """After a checkpointed two-round crawl on 3 URL shards and 2 host
        partitions (4 partitions, the last holding only a URL shard), no
        state actor holds ``ray.data`` — frontier rows cross as Arrow IPC
        bytes, never as pickled tables — and none holds pandas.  The
        URL-only partition has not loaded ``pyarrow.parquet`` either.  Ray
        2.49 itself imports ``pyarrow`` into every worker when it builds its
        serialization context, so that check is on the Parquet module,
        which only state code loads."""
        import ray

        from spidey_ray.pipelines.crawl import CrawlEngine

        eng = CrawlEngine(small_web, ckpt_dir=str(tmp_path / "ck"),
                          n_seen_shards=3, n_host_shards=2)
        eng.run(stop_after_round=1)

        def held(_actor):
            import sys
            return sorted(m for m in ("ray.data", "pandas", "pyarrow.parquet")
                          if m in sys.modules)

        assert ray.get([h.__ray_call__.remote(held)
                        for h in eng.host_shards]) == [["pyarrow.parquet"]] * 2
        assert ray.get([s.__ray_call__.remote(held)
                        for s in eng.seen.shards]) == [
            ["pyarrow.parquet"], ["pyarrow.parquet"], []]
        assert [h._actor_id for h in eng.host_shards] == \
            [s._actor_id for s in eng.seen.shards[:2]]

    def test_resume_without_kwargs_keeps_settings(self, ray_session,
                                                  small_web, tmp_path):
        """A resume given no options gets the options and crawl settings of
        the engine that wrote the checkpoint (shard counts, seen buckets,
        fetch width, window...), and finishes the same crawl."""
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial
        from spidey_ray.state.politeness import CrawlSettings

        settings = CrawlSettings(round_window=7.0)
        ckpt = str(tmp_path / "cks")
        eng = CrawlEngine(small_web, settings, ckpt_dir=ckpt,
                          n_seen_shards=3, n_host_shards=3,
                          fetch_concurrency=3, fetch_batch_size=5,
                          seen_buckets=1 << 10, inline_threshold=0,
                          frontier_mem_rows_per_host=16,
                          ckpt_compact_every=2)
        eng.run(stop_after_round=1)
        options = dict(eng.options)
        del eng
        with pytest.raises(ValueError, match="n_seen_shards"):
            CrawlEngine.resume(ckpt, small_web, n_seen_shards=4)
        resumed = CrawlEngine.resume(ckpt, small_web)
        assert resumed.options == options
        assert resumed.settings == settings
        assert len(resumed.seen.shards) == 3
        assert len(resumed.host_shards) == 3
        res = resumed.run()
        oracle = crawl_serial(small_web, settings)
        assert res.fetch_log == oracle.fetch_log
        assert res.seen_hashes == oracle.seen_hashes

    def test_lost_url_shard_aborts_cleanly_then_resumes(self, ray_session,
                                                        small_web, tmp_path):
        """A URL-shard actor killed between rounds ends ``run()`` with a
        RuntimeError that names the last complete round checkpoint and the
        resume call; resuming from it gives the serial oracle's crawl."""
        import os

        import ray

        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        ckpt = str(tmp_path / "ckk")
        eng = CrawlEngine(small_web, ckpt_dir=ckpt)
        eng.run(stop_after_round=1)
        ray.kill(eng.seen.shards[1])
        with pytest.raises(RuntimeError) as err:
            eng.run()
        msg = str(err.value)
        assert os.path.join(ckpt, "round=00001") in msg
        assert "CrawlEngine.resume" in msg
        assert isinstance(err.value.__cause__, ray.exceptions.RayActorError)
        del eng, err
        res = CrawlEngine.resume(ckpt, small_web).run()
        oracle = crawl_serial(small_web)
        assert res.fetch_log == oracle.fetch_log
        assert res.seen_hashes == oracle.seen_hashes


class TestHotHostSkew:
    def test_hot_host_crawl_balanced_and_identical(self, ray_session,
                                                   tmp_path):
        """A web where one host holds ~90% of the pages (north_rule 'salted
        splits for hot domains'): the crawl must equal the oracle AND the
        round stage's blocks must stay uniform — the hot host's admitted
        rows are spread by the driver's row-range slicing, so no block
        (and hence no task) holds more than ceil(round/blocks) rows."""
        from spidey_ray.pipelines.crawl import (
            CrawlEngine, _complete_rounds, _manifest)
        from spidey_ray.pipelines.oracle import crawl_serial

        cfg = WebConfig(n_hosts=8, pages_per_host=3, hot_host_pages=150,
                        n_seeds=4)
        o = crawl_serial(cfg)
        ckpt = str(tmp_path / "ckhot")
        res = CrawlEngine(cfg, ckpt_dir=ckpt, inline_threshold=0).run()
        assert res.fetch_log == o.fetch_log
        assert res.token_counts == o.token_counts
        hot_seen = False
        for rd in _complete_rounds(ckpt):
            lin = _manifest(rd)["lineage"]
            assert sum(lin["rows_in_per_shard"]) == lin["rows_in"]
            if lin["rows_in"] and lin["hot_host_rows"] > 0.5 * lin["rows_in"]:
                hot_seen = True   # telemetry catches the skewed round
            # balance invariant: biggest stage block == uniform ceiling
            if lin["urls_fetched"]:
                ceil = -(-lin["urls_fetched"] // lin["stage_blocks"])
                assert lin["stage_max_block"] <= ceil
        assert hot_seen
        shutil.rmtree(ckpt, ignore_errors=True)


class TestCuckoo:
    def test_seen_or_add_first_seen_wins(self):
        f = CuckooFilter(1 << 10)
        keys = np.array([1, 2, 1, 3, 2], dtype=np.uint64)
        assert f.seen_or_add(keys).tolist() == [False, False, True, False, True]

    def test_delete_allows_readd(self):
        # cancel semantics: frontier.py:80-92 deletes so URLs can be re-added
        f = CuckooFilter(1 << 10)
        keys = np.array([42], dtype=np.uint64)
        f.seen_or_add(keys)
        assert f.contains(keys).tolist() == [True]
        assert f.delete(keys) == 1
        assert f.contains(keys).tolist() == [False]
        assert f.seen_or_add(keys).tolist() == [False]

    def test_serialize_roundtrip(self):
        f = CuckooFilter(1 << 10)
        keys = np.arange(500, dtype=np.uint64)
        f.seen_or_add(keys)
        g = CuckooFilter.restore(f.serialize())
        assert g.contains(keys).all()
        assert g.count == f.count

    def test_no_false_positives_at_test_scale(self):
        f = CuckooFilter(1 << 14)
        present = np.arange(10_000, dtype=np.uint64)
        absent = np.arange(10_000, 20_000, dtype=np.uint64)
        f.seen_or_add(present)
        assert f.contains(present).all()
        # cuckoo filters admit rare false positives; at this fill they must
        # be (nearly) absent for oracle-equality tests to be meaningful
        assert f.contains(absent).sum() < 5

    def test_scalable_grows_past_flat_capacity(self):
        # the 512-host smoke crashed here in round 3: a flat filter raises
        # "over capacity" at ~95% load; the scalable chain must keep going
        from spidey_ray.state.cuckoo import ScalableCuckoo

        f = ScalableCuckoo(1 << 8)          # flat capacity 1024
        keys = np.arange(20_000, dtype=np.uint64)
        # approximate filter: a handful of first-add false "seen" hits are
        # inherent (16-bit fp collisions), but never a crash past capacity
        assert f.seen_or_add(keys).sum() < 40         # 20× flat capacity
        assert len(f.segments) > 1                    # actually grew
        assert f.contains(keys).all()                 # no false negatives
        assert f.seen_or_add(keys).all()              # first-seen-wins holds
        absent = np.arange(20_000, 40_000, dtype=np.uint64)
        assert f.contains(absent).sum() < 40          # fp rate still tiny

    def test_false_positive_rate_at_a_million_keys(self):
        """The seen set's error budget: 10^6 random keys, added in 20
        batches, grow a ScalableCuckoo to 5 segments.  A lookup compares
        2 buckets × 4 slots of 16-bit fingerprints (0 is the empty
        sentinel) per segment, so the false-positive rate is at most
        8 / (2^16 - 1) per segment, and about 8·load / (2^16 - 1) at a
        segment's load.  Both the first inserts reported as seen and the
        disjoint probes reported as present stay under that bound, and
        the probes match the load-weighted rate."""
        from spidey_ray.state.cuckoo import ScalableCuckoo

        rng = np.random.default_rng(20231)
        keys = rng.permutation(np.unique(
            rng.integers(0, 2**63, size=2_000_100, dtype=np.uint64)))
        n = 10**6
        load, probe = keys[:n], keys[n:2 * n]
        f = ScalableCuckoo()
        first_fp = sum(int(f.seen_or_add(b).sum())
                       for b in np.array_split(load, 20))
        probe_fp = int(f.contains(probe).sum())
        assert len(f.segments) == 5
        per_slot = 1 / (2**16 - 1)
        bound = n * len(f.segments) * 2 * f.slots * per_slot     # 610
        expect = n * sum(2 * s.count / s.n_buckets * per_slot
                         for s in f.segments)                   # 468
        # each insert met a filter no fuller than the final one
        assert 0 < first_fp <= expect + 5 * np.sqrt(expect) < bound
        assert abs(probe_fp - expect) <= 5 * np.sqrt(expect)
        assert probe_fp / n < 0.0006        # the documented 0.048 %

    def test_kick_exhaustion_unwinds_no_key_lost(self):
        # on kick-chain exhaustion the swap chain used to orphan the final
        # evicted fingerprint (silent false negative) — it must unwind so
        # ScalableCuckoo can retry the key in a fresh segment safely
        f = CuckooFilter(1 << 2)            # capacity 16
        keys = np.arange(100, dtype=np.uint64)
        inserted = []
        for k in keys:
            one = np.array([k], dtype=np.uint64)
            if f.insert_absent(one)[0]:
                inserted.append(k)
        assert 0 < len(inserted) < 100      # some failed past capacity
        bad = f.insert_absent(np.arange(200, 260, dtype=np.uint64))
        assert not bad.all()                # at least one kick-exhausted
        present = f.contains(np.array(inserted, dtype=np.uint64))
        assert present.all()                # no previously-inserted key lost
        assert f.count == (f.table != 0).sum()  # count consistent w/ table

    def test_scalable_delete_and_readd_across_segments(self):
        from spidey_ray.state.cuckoo import ScalableCuckoo

        f = ScalableCuckoo(1 << 8)
        keys = np.arange(5_000, dtype=np.uint64)
        f.seen_or_add(keys)
        victims = keys[::7].copy()          # spread over several segments
        assert f.delete(victims) == len(victims)
        assert not f.contains(victims).any()
        assert not f.seen_or_add(victims).any()       # re-add allowed

    def test_delta_replay_across_growth_membership_identical(self):
        # delta checkpoints replay adds-then-deletes per round; replay on a
        # fresh chain must reproduce membership even when the original
        # crossed several segment-growth boundaries mid-round
        from spidey_ray.state.cuckoo import ScalableCuckoo

        rng = np.random.default_rng(11)
        rounds = [rng.choice(np.arange(r * 4000, (r + 1) * 4000),
                             size=3000, replace=False).astype(np.uint64)
                  for r in range(5)]
        live = ScalableCuckoo(1 << 8)       # grows several times over 15k keys
        deltas = []
        for r, keys in enumerate(rounds):
            seen = live.seen_or_add(keys)
            added = keys[~seen]
            deleted = keys[::11][:50].astype(np.uint64)  # cancel some
            live.delete(deleted)
            deltas.append((added.copy(), deleted.copy()))
        assert len(live.segments) > 2

        replay = ScalableCuckoo(1 << 8)
        for added, deleted in deltas:
            replay.seen_or_add(added)
            replay.delete(deleted)
        allk = np.concatenate(rounds)
        # identical membership answers (modulo nothing: same insert/delete
        # sequence, same deterministic hash/growth schedule)
        assert np.array_equal(live.contains(allk), replay.contains(allk))
        assert replay.count == live.count

    def test_delta_oplog_add_delete_readd_one_window(self, ray_session,
                                                     tmp_path):
        # deltas are an ORDERED op log: a key added, deleted, then re-added
        # within ONE checkpoint window must restore as PRESENT (a flat
        # adds-then-deletes replay would restore it absent)
        import ray

        from spidey_ray.state.partition import Partition

        shard = Partition.remote(0, [], dict(n_buckets=1 << 8), None)
        k = np.array([42], dtype=np.uint64)
        others = np.arange(100, 200, dtype=np.uint64)
        ray.get(shard.seen_or_add.remote(np.concatenate([k, others])))
        ray.get(shard.delete.remote(k))
        ray.get(shard.seen_or_add.remote(k))          # re-add, same window
        gone = np.array([150], dtype=np.uint64)
        ray.get(shard.delete.remote(gone))            # stays deleted
        rd = tmp_path / "round=00000"
        rd.mkdir()
        ray.get(shard.checkpoint_seen.remote(str(rd), False))
        assert (rd / "seen_delta_shard0.pkl").exists()

        restored = Partition.remote(0, [str(rd)], {}, None)
        assert ray.get(restored.contains.remote(k)).all()
        assert not ray.get(restored.contains.remote(gone)).any()
        assert ray.get(restored.contains.remote(others[:5])).all()

    def test_scalable_serialize_roundtrip(self):
        from spidey_ray.state.cuckoo import ScalableCuckoo

        f = ScalableCuckoo(1 << 8)
        keys = np.arange(10_000, dtype=np.uint64)
        f.seen_or_add(keys)
        g = ScalableCuckoo.restore(f.serialize())
        assert g.contains(keys).all()
        assert g.count == f.count and len(g.segments) == len(f.segments)


class TestDataContextScope:
    """Only modules that build Ray Data plans apply the engine's
    DataContext settings; the state actors' modules do not import Ray
    Data.  Each case runs in a fresh interpreter."""

    @staticmethod
    def _fresh(code: str) -> str:
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                             cwd=root, capture_output=True, text=True,
                             timeout=120, check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_state_modules_do_not_import_ray_data(self):
        assert self._fresh(
            "import sys, spidey_ray.state.cuckoo, spidey_ray.state.frontier,"
            " spidey_ray.state.partition; print('ray.data' in sys.modules)"
        ) == "False"

    def test_url_state_loads_no_arrow(self, tmp_path):
        """A URL shard runs on numpy and pickle alone: importing the
        partition module, using a shard's seen set and footprints,
        checkpointing both and restoring them loads neither pyarrow nor
        pandas."""
        assert self._fresh(
            "import sys, numpy as np\n"
            "import spidey_ray.state.partition\n"
            "from spidey_ray.state.cuckoo import UrlShard\n"
            f"d = {str(tmp_path)!r}\n"
            "s = UrlShard(0)\n"
            "s.seen_or_add(np.arange(10, dtype=np.uint64))\n"
            "s.put_arrays(['u'], np.array([7], dtype=np.uint64),"
            " np.array([3]))\n"
            "s.checkpoint_seen(d, True), s.checkpoint_footprints(d, True)\n"
            "r = UrlShard(0, [d])\n"
            "assert r.count() == 10 and r.get_many(['u']) == {'u': (7, 3)}\n"
            "print(sorted(m for m in ('pyarrow', 'pandas', 'ray.data')"
            " if m in sys.modules))") == "[]"

    @pytest.mark.parametrize("module", [
        "spidey_ray.pipelines.filter_index", "spidey_ray.pipelines.crawl",
        "__ray_entry__"])
    def test_plan_modules_apply_settings(self, module):
        assert self._fresh(
            f"import os, {module}\n"
            "from ray.data import DataContext\n"
            "c = DataContext.get_current()\n"
            "cap = min(DataContext().read_op_min_num_blocks,"
            " max(2 * (os.cpu_count() or 16), 16))\n"
            "print(c.shuffle_strategy == 'sort_shuffle_push_based',"
            " c.read_op_min_num_blocks == cap)"
        ) == "True True"


class TestAdmission:
    def test_admit_count_bit_identical_to_admit_round(self):
        # HostShard.grant uses the O(admitted) counting form; it must give
        # the same count AND the bit-identical float clock as the shared
        # admit_round oracle path for every (clock, delay, window) shape,
        # including zero crawl-delay and clocks past the window
        from spidey_ray.state.politeness import admit_count, admit_round

        import itertools
        clocks0 = [0.0, 0.3, 1.0, 7.77, 1e9 + 0.1]
        delays = [0.0, 0.1, 0.5, 0.7000000001, 3.0]
        for clock0, delay, round_k, n in itertools.product(
                clocks0, delays, (0, 1, 13), (0, 1, 2, 7, 1000)):
            window = 1.0
            cands = [("", "h")] * n
            adm, clocks = admit_round(cands, {"h": clock0}, {"h": delay},
                                      round_k, window)
            k, clock = admit_count(n, clock0, delay, round_k, window)
            assert k == len(adm), (clock0, delay, round_k, n)
            ref_clock = clocks.get("h", clock0)
            if len(adm) == 0:
                # admit_round leaves the stored clock untouched when nothing
                # admits; admit_count returns the max()-advanced value the
                # NEXT call would recompute identically — both paths feed
                # the same future arithmetic
                ref_clock = max(clock0, round_k * window)
            assert clock == ref_clock, (clock0, delay, round_k, n)

    def test_politeness_budget_per_round(self):
        # W=1.0, delay=0.5 → 2 fetches per host per round
        cands = [(f"u{i}", "h") for i in range(5)]
        admitted, clocks = admit_round(cands, {}, {"h": 0.5}, 0, 1.0)
        assert admitted == [0, 1]
        assert clocks["h"] == 1.0
        # next round: two more
        admitted2, clocks = admit_round(cands[2:], clocks, {"h": 0.5}, 1, 1.0)
        assert admitted2 == [0, 1]

    def test_crawl_delay_respected(self):
        cands = [(f"u{i}", "h") for i in range(5)]
        admitted, _ = admit_round(cands, {}, {"h": 2.0}, 0, 1.0)
        assert admitted == [0]  # delay 2.0 > window → one fetch

    def test_hosts_independent(self):
        cands = [("a1", "a"), ("b1", "b"), ("a2", "a"), ("b2", "b")]
        admitted, _ = admit_round(cands, {}, {"a": 0.5, "b": 0.5}, 0, 1.0)
        assert admitted == [0, 1, 2, 3]


def _host_partition(spill_dir, window):
    """A state partition holding only host partition 0, with the synthetic
    fetcher, an 8-row-per-host memory cap and a politeness clock that
    admits ``window`` URLs per host in round 0."""
    from dataclasses import asdict

    from spidey_ray.state.partition import Partition
    from spidey_ray.state.politeness import CrawlSettings

    return Partition.remote(0, [], None, dict(
        settings=CrawlSettings(politeness=1.0, round_window=window),
        fetch_spec=("spidey_ray.sources.synthetic_web", "make_fetch_fn",
                    asdict(WebConfig())),
        spill_dir=spill_dir, mem_rows_per_host=8))


class TestFrontierSpill:
    def test_forced_spill_crawl_identical(self, ray_session, small_web,
                                          oracle_result, tmp_path):
        """mem_rows_per_host=8 forces constant per-host tail spill +
        compaction in the frontier shards — the crawl must be bit-identical
        (admission order, seen set, tokens) to the no-spill oracle."""
        from spidey_ray.pipelines.crawl import CrawlEngine

        res = CrawlEngine(small_web, ckpt_dir=str(tmp_path / "ck"),
                          frontier_mem_rows_per_host=8).run()
        assert res.fetch_log == oracle_result.fetch_log
        assert res.seen_hashes == oracle_result.seen_hashes
        assert res.token_counts == oracle_result.token_counts
        assert dict(res.blacklist.permanent) == dict(
            oracle_result.blacklist.permanent)

    def test_forced_spill_resume(self, ray_session, small_web, tmp_path):
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        ckpt = str(tmp_path / "ckpt")
        CrawlEngine(small_web, ckpt_dir=ckpt,
                    frontier_mem_rows_per_host=8).run(stop_after_round=2)
        resumed = CrawlEngine.resume(
            ckpt, small_web, frontier_mem_rows_per_host=8).run()
        oracle = crawl_serial(small_web)
        assert resumed.fetch_log == oracle.fetch_log
        assert resumed.seen_hashes == oracle.seen_hashes

    def test_rerun_round_reads_no_stale_spill(self, ray_session, tmp_path):
        """A round re-run after a crash before its manifest starts from an
        empty round dir.  Here the crashed attempt spilled and the re-run,
        with a larger in-memory cap, does not, so it writes no spill
        manifest; the next resume must not read the crashed attempt's one
        (its rows would be pending twice)."""
        import os

        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.oracle import crawl_serial

        web = WebConfig(n_hosts=3, pages_per_host=60, n_seeds=3)
        ckpt = str(tmp_path / "ck")
        rd = os.path.join(ckpt, "round=00000")

        def spill_manifests():
            return [f for f in os.listdir(rd) if f.endswith(".spill.json")]

        CrawlEngine(web, ckpt_dir=ckpt,
                    frontier_mem_rows_per_host=8).run(stop_after_round=0)
        assert spill_manifests()
        os.remove(os.path.join(rd, "manifest.json"))
        CrawlEngine.resume(ckpt, web, frontier_mem_rows_per_host=10**6).run(
            stop_after_round=0)
        assert not spill_manifests()
        res = CrawlEngine.resume(ckpt, web).run()
        oracle = crawl_serial(web)
        assert res.fetch_log == oracle.fetch_log
        assert res.seen_hashes == oracle.seen_hashes

    def test_shard_spill_mechanics(self, ray_session, tmp_path):
        """Direct shard check: tail spills to disk, counts include spilled
        rows, admission that crosses the spill boundary compacts and still
        returns the exact canonical prefix."""
        import os

        import pyarrow as pa
        import ray

        from spidey_ray.state.frontier import from_ipc, to_ipc

        spill = str(tmp_path / "sp")
        shard = _host_partition(spill, window=25.0)
        rows = {
            "url": [f"https://h.example.com/p/{i:03d}" for i in range(30)],
            "url_hash": [bytes([i]) * 20 for i in range(30)],
            "host": ["h.example.com"] * 30,
            "depth": [i % 3 for i in range(30)],
            "parent_url": [""] * 30,
            "round_added": [0] * 30,
        }
        ray.get(shard.add.remote(to_ipc(pa.table(rows))))
        assert ray.get(shard.pending.remote()) == 30
        spill_files = [f for f in os.listdir(os.path.join(spill, "shard0"))
                       if f.endswith(".parquet")]
        assert spill_files, "tail must have spilled to disk"
        # canonical order over ALL 30 rows (depth asc, url asc); the
        # politeness clock grants 25 of them
        expected = sorted(zip(rows["depth"], rows["url"]))
        got, stats = ray.get(shard.admit_with.remote(0))
        assert stats == {"rows_in": 30, "hot_host": "h.example.com",
                         "hot_rows": 30}
        got = from_ipc(got)
        assert list(zip(got["depth"].to_pylist(), got["url"].to_pylist())) \
            == expected[:25]
        assert ray.get(shard.pending.remote()) == 5

    def test_cancel_filters_spill_without_compacting(self, ray_session,
                                                     tmp_path):
        """cancel() must drop matching SPILLED rows file-by-file (bounded
        memory), keep counts/spill-min consistent, and admission must still
        return the exact canonical prefix afterward."""
        import os

        import pyarrow as pa
        import ray

        from spidey_ray.state.frontier import from_ipc, to_ipc

        spill = str(tmp_path / "sp")
        shard = _host_partition(spill, window=100.0)
        rows = {
            "url": [f"https://h.example.com/p/{i:03d}" for i in range(40)],
            "url_hash": [bytes([i]) * 20 for i in range(40)],
            "host": ["h.example.com"] * 40,
            "depth": [i % 4 for i in range(40)],
            "parent_url": [""] * 40,
            "round_added": [0] * 40,
        }
        ray.get(shard.add.remote(to_ipc(pa.table(rows))))
        # cancel every url ending in an odd digit (hits mem AND spill rows)
        removed = ray.get(shard.cancel.remote([r".*[13579]$"]))
        surviving = [(d, u) for d, u in zip(rows["depth"], rows["url"])
                     if not u.endswith(("1", "3", "5", "7", "9"))]
        assert len(removed) == 40 - len(surviving)
        assert ray.get(shard.pending.remote()) == len(surviving)
        # spill dir still holds files (no full compaction happened)
        assert any(f.endswith(".parquet")
                   for f in os.listdir(os.path.join(spill, "shard0")))
        got, stats = ray.get(shard.admit_with.remote(0))
        assert stats["rows_in"] == len(surviving)
        got = from_ipc(got)
        assert list(zip(got["depth"].to_pylist(), got["url"].to_pylist())) \
            == sorted(surviving)
        assert ray.get(shard.pending.remote()) == 0


class TestRetryIdempotency:
    def test_round_stage_rerun_overwrites_same_sidefile(self, ray_session,
                                                        small_web, tmp_path):
        """Ray may retry a (synthetic-fetch) stage task: the documents
        side-write is named by the block's first seq, so a retry OVERWRITES
        the same file — rerunning the stage on the same batch must leave an
        identical single file set and identical rows."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from dataclasses import asdict

        from spidey_ray.stages.round_stage import round_process_batch
        from spidey_ray.state.politeness import CrawlSettings

        batch = pa.table({
            "seq": pa.array([0, 1, 2], type=pa.int64()),
            "url": pa.array([f"https://h0.example.com/p/{i}" for i in range(3)]),
            "depth": pa.array([1, 1, 1], type=pa.int32()),
            "parent_url": pa.array(["", "", ""]),
        })
        doc_dir = str(tmp_path / "docs")
        kwargs = dict(web_cfg=asdict(small_web),
                      blacklist_patterns=[], settings=CrawlSettings(),
                      doc_dir=doc_dir, base_seq=0)
        out1 = round_process_batch(batch, **kwargs)
        files1 = sorted(os.listdir(doc_dir))
        rows1 = pq.read_table(os.path.join(doc_dir, files1[0])).to_pydict()
        out2 = round_process_batch(batch, **kwargs)   # "retry"
        files2 = sorted(os.listdir(doc_dir))
        rows2 = pq.read_table(os.path.join(doc_dir, files2[0])).to_pydict()
        assert files1 == files2 == ["part-000000000.parquet"]
        assert rows1 == rows2
        assert out1.to_pydict() == out2.to_pydict()

    def test_round_stage_token_partial_is_a_first_seen_count(
            self, small_web, oracle_result):
        """The block's 'tok' row equals a dict count over the crawl tokens
        of its non-empty, non-sitemap pages, keys in first-seen order
        across pages (what ``token_partials.parquet`` stores).  A 404 page
        in the batch counts nothing."""
        from dataclasses import asdict

        import pyarrow as pa

        from spidey_ray.pipelines.crawl_logic import parse_fetch
        from spidey_ray.sources import synthetic_web as sw
        from spidey_ray.stages.round_stage import round_process_batch
        from spidey_ray.state.politeness import CrawlSettings

        want: dict[str, int] = {}
        urls, skipped = [], 0
        for u in oracle_result.fetch_log + ["https://h0.example.com/nope"]:
            p = sw.fetch(small_web, u)
            if p.final_url != u:       # redirects pass extra stage gates
                continue
            rec, _, tokens = parse_fetch(u, p.final_url, p.status, p.content,
                                         1, "")
            urls.append(u)
            if not rec.empty and not rec.is_sitemap:
                for t in tokens:
                    want[t] = want.get(t, 0) + 1
            else:
                skipped += 1
        assert skipped and len(want) > 100
        batch = pa.table({
            "seq": pa.array(range(len(urls)), type=pa.int64()),
            "url": pa.array(urls),
            "depth": pa.array([1] * len(urls), type=pa.int32()),
            "parent_url": pa.array([""] * len(urls)),
        })
        out = round_process_batch(
            batch, web_cfg=asdict(small_web), blacklist_patterns=[],
            settings=CrawlSettings(), doc_dir=None, base_seq=0)
        tok = out.filter(pa.compute.equal(out["kind"], "tok")).to_pylist()
        assert len(tok) == 1
        assert tok[0]["tok_tokens"] == list(want)
        assert tok[0]["tok_counts"] == list(want.values())


class _LinksStub:
    """A ShardedFrontier stand-in that answers ``filter_links`` from a
    fixed per-host table and records each call."""

    def __init__(self, answers: dict[str, dict]):
        self.answers = answers
        self.calls: list[dict] = []

    def filter_links(self, links_by_host, blacklist_patterns):
        self.calls.append(links_by_host)
        return {h: {"unchecked": [], "checked": [], "allow_all": True,
                    **self.answers[h](links)}
                for h, links in links_by_host.items()}


class TestArrowRoundPath:
    """The round phases work on Arrow tables: ``_robots`` keeps the
    canonical order and first-seen-wins, and no phase uses pandas."""

    A1, C2 = "https://a.example.com/1", "https://c.example.com/2"

    @staticmethod
    def _engine(stub):
        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.pipelines.crawl_logic import BlacklistState

        eng = CrawlEngine.__new__(CrawlEngine)
        eng.frontier = stub
        eng.blacklist = BlacklistState()
        eng._host_allow_all = {"a.example.com"}
        eng._host_rules = {"r.example.com": "User-agent: *\nDisallow: /no"}
        return eng

    @staticmethod
    def _cands(rows: list[tuple[str, int, str]]):
        """Candidate outlinks from (link, depth, parent_url) rows."""
        import pyarrow as pa

        from spidey_ray.functions import urltools
        from spidey_ray.pipelines.crawl import CAND_COLS
        from spidey_ray.stages.round_stage import ROUND_SCHEMA

        cols = {c: [] for c in CAND_COLS}
        for link, depth, parent in rows:
            norm = urltools.normalize(link)
            for c, v in zip(CAND_COLS, (
                    link, link, norm, urltools.url_hash(norm),
                    urltools.url_host(link), depth, parent)):
                cols[c].append(v)
        return pa.table(cols, schema=pa.schema(
            [ROUND_SCHEMA.field(c) for c in CAND_COLS]))

    def test_canonical_order_and_first_seen_wins(self):
        """One round: ``b/x`` is reached from two parents and is also in
        ``c``'s sitemap, ``a/w`` from two parents; ``a`` (rule-free) and
        ``r`` (rules known) bypass the partitions, ``b`` and ``c`` are
        checked there.  The sitemap row (parent "") sorts first and wins
        ``b/x``; the parent that sorts first wins ``a/w``."""
        stub = _LinksStub({
            "b.example.com": lambda links: {
                "mask": [not s.endswith("/private") for s, _ in links],
                "allow_all": False, "robots_txt": "Disallow: /private"},
            "c.example.com": lambda links: {
                "mask": [True] * len(links),
                "unchecked": ["https://b.example.com/x"],
                "checked": ["https://c.example.com/s1/"]},
        })
        eng = self._engine(stub)
        out = eng._robots(self._cands([
            ("https://r.example.com/q", 3, self.C2),
            ("https://b.example.com/x", 3, self.C2),
            ("https://a.example.com/w", 3, self.C2),
            ("https://c.example.com/z", 2, self.A1),
            ("https://b.example.com/private", 2, self.A1),
            ("https://b.example.com/x", 2, self.A1),
            ("https://a.example.com/w", 2, self.A1),
        ]))
        assert len(stub.calls) == 1
        assert stub.calls[0] == {
            "b.example.com": [
                ("https://b.example.com/private",) * 2,
                ("https://b.example.com/x",) * 2,
                ("https://b.example.com/x",) * 2],
            "c.example.com": [("https://c.example.com/z",) * 2]}
        # sitemap rows take the depth of their host's first canonical row
        assert list(zip(*(out[c].to_pylist() for c in (
            "raw_url", "parent_url", "url", "depth")))) == [
            ("https://a.example.com/w", self.A1, "https://a.example.com/w", 2),
            ("https://b.example.com/x", "", "https://b.example.com/x", 2),
            ("https://c.example.com/s1/", "", "https://c.example.com/s1", 2),
            ("https://c.example.com/z", self.A1, "https://c.example.com/z", 2),
            ("https://r.example.com/q", self.C2, "https://r.example.com/q", 3),
        ]
        from spidey_ray.functions.urltools import url_hash

        assert out["url_hash"].to_pylist() == [
            url_hash(u) for u in out["url"].to_pylist()]
        assert eng._host_allow_all == {"a.example.com", "c.example.com"}
        assert set(eng._host_rules) == {"r.example.com", "b.example.com"}

    def test_empty_candidate_set(self):
        stub = _LinksStub({})
        out = self._engine(stub)._robots(self._cands([]))
        assert stub.calls == []
        assert out.num_rows == 0
        assert out.column_names == ["raw_url", "parent_url", "url",
                                    "url_hash", "host", "depth"]

    def test_round_phases_use_no_pandas(self):
        """No round phase names ``pd`` or calls ``to_pandas``."""
        import ast
        import inspect
        import textwrap

        from spidey_ray.pipelines.crawl import CrawlEngine
        from spidey_ray.state.frontier import ShardedFrontier

        phases = [getattr(CrawlEngine, m) for m in (
            "_seed", "_add_rows", "run", "_run_round", "_admit",
            "_number_fetches", "_prefetch_footprints", "_fetch_parse",
            "_gates", "_token_counts", "_link_check", "_robots",
            "_boundary", "_checkpoint")]
        phases += [ShardedFrontier.add_df, ShardedFrontier.admit_with]
        for fn in phases:
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            attrs = {n.attr for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute)}
            assert "pd" not in names, fn.__qualname__
            assert "to_pandas" not in attrs, fn.__qualname__
