"""Property-based tests (hypothesis) for the pure kernels the engine's
correctness leans on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spidey_ray.functions import porter, simhash as sh, tokenize, urltools
from spidey_ray.state.cuckoo import CuckooFilter

url_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           whitelist_characters="-._~"),
    min_size=1, max_size=12)


@st.composite
def urls(draw):
    host = f"h{draw(st.integers(0, 99))}.example.com"
    segs = draw(st.lists(url_text, min_size=0, max_size=4))
    path = "/" + "/".join(segs) if segs else ""
    q = draw(st.one_of(st.just(""), st.just("b=2&a=1"), st.just("x=1")))
    trail = draw(st.booleanss()) if False else draw(st.booleans())
    u = f"https://{host}{path}" + ("?" + q if q else "") + ("/" if trail else "")
    return u


class TestUrlProperties:
    @given(urls(), st.integers(1, 16))
    @settings(max_examples=200)
    def test_footprint_routes_with_seen_key(self, u, n):
        """A URL's footprint goes to the shard its seen key goes to."""
        from spidey_ray.state.cuckoo import ShardedFootprints, key64

        u = urltools.normalize(u)
        by_shard = ShardedFootprints([None] * n)._by_shard([u])
        seen_shard = int(np.uint64(key64(urltools.url_hash(u)))
                         % np.uint64(n))
        assert by_shard[seen_shard] == [u]


    @given(urls())
    @settings(max_examples=200)
    def test_normalize_idempotent(self, u):
        assert urltools.normalize(urltools.normalize(u)) == urltools.normalize(u)

    @given(urls())
    @settings(max_examples=200)
    def test_hash_scheme_insensitive(self, u):
        assert urltools.url_hash(u) == urltools.url_hash(
            u.replace("https://", "http://", 1))

    @given(urls())
    @settings(max_examples=200)
    def test_sort_by_query_idempotent(self, u):
        once = urltools.sort_by_query(u)
        assert urltools.sort_by_query(once) == once


text_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs"),
                           whitelist_characters="'-.,!\n"),
    max_size=300)


class TestTokenizeProperties:
    @given(text_strategy)
    @settings(max_examples=200)
    def test_positions_strictly_increasing(self, text):
        toks = list(tokenize.tokenize(text))
        positions = [p for _, p in toks]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    @given(text_strategy)
    @settings(max_examples=200)
    def test_retokenization_fixpoint(self, text):
        """The filter writes space-joined tokens and the indexer re-tokenizes
        that file (Filter.py:77, Indexer.py:56-61): tokenization of the
        joined token stream must reproduce the same tokens AND positions."""
        toks = list(tokenize.tokenize(text))
        joined = "".join(t + " " for t, _ in toks)
        again = list(tokenize.tokenize(joined))
        assert [t for t, _ in again] == [t for t, _ in toks]
        # positions in the joined file are the running offsets
        expected_pos = []
        acc = 0
        for t, _ in toks:
            expected_pos.append(acc)
            acc += len(t) + 1
        assert [p for _, p in again] == expected_pos

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll",)),
                   min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_porter_deterministic_and_bounded(self, w):
        s1, s2 = porter.stem(w), porter.stem(w)
        assert s1 == s2
        assert 0 < len(s1) <= len(w) + 1


class TestSimhashProperties:
    freq = st.dictionaries(
        st.text(alphabet=st.characters(whitelist_categories=("Ll",)),
                min_size=1, max_size=8),
        st.integers(1, 20), min_size=0, max_size=30)

    @given(freq)
    @settings(max_examples=100)
    def test_order_invariant(self, f):
        items = list(f.items())
        assert sh.simhash64(dict(items)) == sh.simhash64(dict(reversed(items)))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_similarity_symmetric_and_bounded(self, a, b):
        s = sh.bit_similarity(a, b)
        assert s == sh.bit_similarity(b, a)
        assert 0.0 <= s <= 1.0
        assert sh.bit_similarity(a, a) == 1.0

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_popcount_matches_python(self, xs):
        arr = np.array(xs, dtype=np.uint64)
        assert sh.hamming_popcount(arr ^ np.uint64(0)).tolist() == \
            [bin(x).count("1") for x in xs]


class TestCuckooProperties:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300,
                    unique=True))
    @settings(max_examples=50)
    def test_add_then_contains(self, keys):
        f = CuckooFilter(1 << 12)
        arr = np.array(keys, dtype=np.uint64)
        first = f.seen_or_add(arr)
        assert not first.any()            # unique keys: none seen before
        assert f.contains(arr).all()
        second = f.seen_or_add(arr)
        assert second.all()               # all seen now

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=100,
                    unique=True))
    @settings(max_examples=50)
    def test_delete_restores_unseen(self, keys):
        f = CuckooFilter(1 << 12)
        arr = np.array(keys, dtype=np.uint64)
        f.seen_or_add(arr)
        half = arr[: len(arr) // 2]
        assert f.delete(half) == len(half)
        assert not f.seen_or_add(half).any()   # re-addable after delete

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=500,
                    unique=True))
    @settings(max_examples=30)
    def test_serialize_roundtrip(self, keys):
        f = CuckooFilter(1 << 12)
        arr = np.array(keys, dtype=np.uint64)
        f.seen_or_add(arr)
        g = CuckooFilter.restore(f.serialize())
        assert g.contains(arr).all()


class TestJoinProperties:
    """hash_join vs pandas merge on adversarial keys (includes NUL and
    unicode — guards the factorize-truncation class of bucket-hash bug)."""

    @given(
        keys=st.lists(
            st.one_of(st.text(min_size=0, max_size=6),
                      st.sampled_from(["a\x00b", "a\x00c", "\x00", "é", ""])),
            min_size=0, max_size=30),
        rkeys=st.lists(
            st.one_of(st.text(min_size=0, max_size=6),
                      st.sampled_from(["a\x00b", "a\x00c", "\x00", "é", ""])),
            min_size=0, max_size=30),
    )
    @settings(max_examples=10, deadline=None)
    def test_inner_semi_anti_match_pandas(self, ray_session, keys, rkeys):
        import pandas as pd
        import ray.data

        from spidey_ray.stages.joins import hash_join

        l_df = pd.DataFrame({"k": keys, "lv": range(len(keys))})
        r_df = pd.DataFrame({"k": rkeys, "rv": range(len(rkeys))})
        l_ds = ray.data.from_pandas(l_df).repartition(3)
        r_ds = ray.data.from_pandas(r_df).repartition(2)

        def canon(df, cols):
            # Ray's to_pandas yields a column-less frame for EMPTY results
            # (the dataset schema itself is correct) — reindex to compare
            return df.reindex(columns=cols)

        inner = canon(hash_join(l_ds, r_ds, on="k", num_buckets=5).to_pandas(),
                      ["k", "lv", "rv"])
        exp = l_df.merge(r_df, on="k")
        assert sorted(map(tuple, inner[["k", "lv", "rv"]].values)) == \
            sorted(map(tuple, exp[["k", "lv", "rv"]].values))

        semi = canon(hash_join(l_ds, r_ds, on="k", how="semi",
                               num_buckets=5).to_pandas(), ["k", "lv"])
        anti = canon(hash_join(l_ds, r_ds, on="k", how="anti",
                               num_buckets=5).to_pandas(), ["k", "lv"])
        rset = set(rkeys)
        assert sorted(semi["lv"]) == sorted(
            l_df[l_df["k"].isin(rset)]["lv"])
        assert sorted(anti["lv"]) == sorted(
            l_df[~l_df["k"].isin(rset)]["lv"])


class TestScalableCuckooProperties:
    @given(st.lists(st.tuples(st.sampled_from(["add", "del"]),
                              st.integers(0, 400)),
                    min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_never_false_negative_vs_reference_set(self, ops):
        """Random interleaved add/delete sequences against a Python-set
        reference: every key the reference holds MUST be reported present
        (false positives are allowed; false negatives never)."""
        from spidey_ray.state.cuckoo import ScalableCuckoo

        f = ScalableCuckoo(1 << 6)          # tiny → forces growth
        ref = set()
        for op, k in ops:
            key = np.array([k], dtype=np.uint64)
            if op == "add":
                f.seen_or_add(key)
                ref.add(k)
            elif k in ref:
                # delete only keys we know are present (partial-key delete
                # of absent keys may evict a colliding fingerprint)
                f.delete(key)
                ref.discard(k)
        if ref:
            present = f.contains(np.array(sorted(ref), dtype=np.uint64))
            assert present.all()

    @given(st.integers(1, 5000))
    @settings(max_examples=20, deadline=None)
    def test_count_tracks_inserts(self, n):
        from spidey_ray.state.cuckoo import ScalableCuckoo

        f = ScalableCuckoo(1 << 6)
        keys = np.arange(n, dtype=np.uint64)
        seen = f.seen_or_add(keys)
        # count == unique inserts (first-add false positives reduce it)
        assert f.count == int((~seen).sum())


class TestTDigestProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=2000))
    @settings(max_examples=60, deadline=None)
    def test_quantiles_monotone_and_bounded(self, vals):
        from spidey_ray.stages.sketches import TDigest

        arr = np.asarray(vals, dtype=np.float64)
        d = TDigest.of(arr)
        qs = [d.quantile(q) for q in (0.0, 0.1, 0.5, 0.9, 1.0)]
        assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))
        assert arr.min() - 1e-9 <= qs[0] and qs[-1] <= arr.max() + 1e-9

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=1000),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_merge_order_irrelevant_to_rank(self, vals, nparts):
        from spidey_ray.stages.sketches import TDigest

        arr = np.asarray(vals, dtype=np.float64)
        parts = [TDigest.of(arr[i::nparts]) for i in range(nparts)
                 if len(arr[i::nparts])]
        fwd = parts[0]
        for p in parts[1:]:
            fwd = fwd.merge(p)
        rev = parts[-1]
        for p in reversed(parts[:-1]):
            rev = rev.merge(p)
        span = float(arr.max() - arr.min())
        for q in (0.25, 0.75):
            fa, fb = fwd.quantile(q), rev.quantile(q)
            # merge order changes the estimate only within digest error,
            # and both stay inside the data range (rank-space comparison
            # is meaningless for duplicate-heavy tiny inputs)
            assert abs(fa - fb) <= span * 0.25 + 1e-9
            for v in (fa, fb):
                assert arr.min() - 1e-9 <= v <= arr.max() + 1e-9


class TestHashSampleProperties:
    @given(st.integers(1, 99), st.integers(1, 99))
    @settings(max_examples=30, deadline=None)
    def test_nested_fractions_are_subsets(self, a, b):
        """Thresholds nest: the f-sample is a subset of every g-sample with
        g >= f — the property that makes deterministic sampling refreshable
        (growing a sample never discards previously selected docs)."""
        import hashlib

        lo, hi = sorted((a, b))
        ids = range(500)
        def picked(pct):
            thr = format(int(pct / 100 * 0x1_0000_0000), "08x")
            return {i for i in ids
                    if hashlib.md5(str(i).encode()).hexdigest()[:8] < thr}
        assert picked(lo) <= picked(hi)

    @given(st.floats(0.0, 1.5), st.lists(st.integers(-10**6, 10**6),
                                         max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_integer_ranks_keep_the_hex_string_contract(self, frac, ids):
        """``hash_sample`` compares uint64 ranks with integer thresholds;
        they keep exactly the rows the md5 hex-prefix comparison keeps
        (the SQL oracles' form), with 2^32 as keep-all."""
        import hashlib

        from spidey_ray.stages.sampling import _md5_rank, _thresh

        thr = "g" if frac >= 1.0 else format(int(frac * 0x1_0000_0000), "08x")
        want = [hashlib.md5(str(i).encode()).hexdigest()[:8] < thr
                for i in ids]
        assert (_md5_rank(ids) < np.uint64(_thresh(frac))).tolist() == want


_block = st.one_of(
    st.just([]),                                            # empty block
    st.lists(st.just((None, None)), min_size=1, max_size=5),  # all-null
    st.tuples(st.integers(0, 3), st.integers(200_000, 1_500_000)).map(
        lambda kn: [(kn[0], "x" * kn[1])]),                 # one huge row
    st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),
                       st.one_of(st.none(), st.text(max_size=8))),
             min_size=1, max_size=20),
)


class TestBlockPartialsProperties:
    """``io.block_partials`` + a driver merge == a serial fold over the
    rows, on block layouts with empty, all-null and one-huge-row blocks."""

    @given(blocks=st.lists(_block, min_size=1, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_merge_matches_serial_fold(self, ray_session, blocks):
        import pyarrow as pa
        import ray.data

        from spidey_ray.io import block_partials

        def kv_partial(t):
            # (k, rows, chars) for every non-null k of the block; defined
            # here so workers get it by value, not by test-module import
            df = t.to_pandas().dropna(subset=["k"])
            df["chars"] = df["text"].fillna("").str.len()
            g = df.groupby("k").agg(rows=("k", "size"), chars=("chars", "sum"))
            return pa.table({
                "k": pa.array(g.index.to_numpy().astype("int64")),
                "rows": pa.array(g["rows"].to_numpy(), type=pa.int64()),
                "chars": pa.array(g["chars"].to_numpy(), type=pa.int64())})

        tables = [pa.table({"k": pa.array([k for k, _ in b], type=pa.int64()),
                            "text": pa.array([s for _, s in b],
                                             type=pa.string())})
                  for b in blocks]
        got: dict[int, list[int]] = {}
        for part in block_partials(ray.data.from_arrow(tables), kv_partial):
            for k, n, c in zip(*(part[x].to_pylist()
                                 for x in ("k", "rows", "chars"))):
                acc = got.setdefault(k, [0, 0])
                acc[0] += n
                acc[1] += c
        want: dict[int, list[int]] = {}
        for b in blocks:
            for k, s in b:
                if k is not None:
                    acc = want.setdefault(k, [0, 0])
                    acc[0] += 1
                    acc[1] += len(s or "")
        assert got == want


class TestBlockPartials:
    def test_fn_runs_once_per_block(self, ray_session, tmp_path):
        """One UDF call per input block: no second (schema-probe) run of
        the plan, which ``Dataset.to_arrow_refs`` makes in Ray 2.49."""
        import os
        import uuid

        import pyarrow as pa
        import ray.data

        from spidey_ray.io import block_partials

        calls = str(tmp_path)

        def fn(t):
            open(os.path.join(calls, uuid.uuid4().hex), "w").close()
            return pa.table({"n": [len(t)]})

        tables = [pa.table({"v": list(range(i, i + 10))}) for i in range(16)]
        total = sum(p["n"].to_numpy().sum()
                    for p in block_partials(ray.data.from_arrow(tables), fn))
        assert total == 160
        assert len(os.listdir(calls)) == 16

    def test_no_to_arrow_refs_calls(self):
        """Bounded-key merges go through ``io.block_partials``; a call of
        ``to_arrow_refs`` would run its plan twice."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        files = [*root.joinpath("spidey_ray").rglob("*.py"),
                 root / "__ray_entry__.py"]
        hits = [f"{f.relative_to(root)}:{i}"
                for f in files
                for i, line in enumerate(f.read_text().splitlines(), 1)
                if "to_arrow_refs(" in line]
        assert not hits, hits


class TestExchange:
    """``io.exchange``: the engine's one groupby → map_groups path."""

    @staticmethod
    def _rows(n=600, seed=5):
        import pandas as pd

        rng = np.random.default_rng(seed)
        return pd.DataFrame({
            "k": [f"key{i}" for i in rng.integers(0, 90, size=n)],
            "v": rng.integers(0, 1000, size=n),
        })

    def test_matches_serial_fold_at_any_block_count(self, ray_session):
        import pandas as pd
        import ray.data

        from spidey_ray.io import exchange, hash_bucket

        df = self._rows()
        want = (df.groupby("k", as_index=False)["v"].sum()
                .sort_values("k").reset_index(drop=True))

        def fold(g):
            assert "_bucket" not in g.columns
            return g.groupby("k", as_index=False)["v"].sum()

        for n_blocks in (1, 7, 64):
            ds = ray.data.from_pandas(df).repartition(n_blocks)
            for by in (lambda t: hash_bucket(t["k"], 8, "test-exchange-00"),
                       "k"):
                got = (exchange(ds, by, fold).to_pandas()
                       .sort_values("k").reset_index(drop=True))
                got["v"] = got["v"].astype("int64")
                pd.testing.assert_frame_equal(got, want)

    def test_fn_never_sees_bucket(self, ray_session):
        import pyarrow as pa
        import ray.data

        from spidey_ray.io import exchange

        df = self._rows(n=200)

        def by(t):
            return (np.arange(len(t)) % 5).astype(np.int32)

        def cols_pd(g):
            return g.assign(cols=",".join(g.columns))[["cols"]]

        def cols_pa(g):
            return pa.table({"cols": [",".join(g.column_names)] * len(g)})

        ds = ray.data.from_pandas(df).repartition(7)
        tagged = ds.map_batches(lambda t: t.append_column(
            "_bucket", pa.array(np.zeros(len(t), dtype=np.int32))),
            batch_format="pyarrow")
        for got in (exchange(ds, by, cols_pd),
                    exchange(ds, by, cols_pa, batch_format="pyarrow"),
                    exchange(tagged, "_bucket", cols_pd)):
            assert set(got.to_pandas()["cols"]) == {"k,v"}

    def test_empty_input_gives_no_rows(self, ray_session):
        import ray.data

        from spidey_ray.io import exchange, hash_bucket

        empty = ray.data.from_pandas(self._rows()).filter(expr="v < 0")
        out = exchange(empty,
                       lambda t: hash_bucket(t["k"], 8, "test-exchange-00"),
                       lambda g: g)
        assert out.count() == 0

    def test_map_groups_is_called_only_in_io(self):
        """Every exchange goes through ``io.exchange``, which materializes
        its input and hides the bucket column; a bare ``.map_groups(``
        call elsewhere would skip both."""
        import ast
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        files = [*root.joinpath("spidey_ray").rglob("*.py"),
                 *root.joinpath("tools").rglob("*.py"),
                 root / "__ray_entry__.py"]
        hits = [f"{f.relative_to(root)}:{node.lineno}"
                for f in files if f != root / "spidey_ray" / "io.py"
                for node in ast.walk(ast.parse(f.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"]
        assert not hits, hits
