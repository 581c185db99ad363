"""Unit tests for the general distributed equi-join (stages/joins.py) — the
both-sides-stream hash-bucket join, checked against pandas merge."""

import numpy as np
import pandas as pd
import pytest


def _mk(ray, left_n=200, right_n=150, seed=3):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "k": rng.integers(0, 60, size=left_n),
        "lv": rng.integers(0, 1000, size=left_n),
        "name": [f"l{i}" for i in range(left_n)],
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 80, size=right_n),
        "rv": rng.integers(0, 1000, size=right_n),
        "name": [f"r{i}" for i in range(right_n)],
    })
    import ray.data
    return (left, right,
            ray.data.from_pandas(left).repartition(7),
            ray.data.from_pandas(right).repartition(5))


def _canon(df, cols):
    return (df[cols].sort_values(cols, kind="mergesort")
            .reset_index(drop=True).astype({c: "int64" for c in cols
                                            if df[c].dtype != object}))


class TestHashJoin:
    def test_inner_matches_pandas(self, ray_session):
        import ray
        from spidey_ray.stages.joins import hash_join

        l_df, r_df, l_ds, r_ds = _mk(ray)
        out = hash_join(l_ds, r_ds, on="k", num_buckets=8).to_pandas()
        exp = l_df.merge(r_df.rename(columns={"name": "name_right"}), on="k")
        cols = ["k", "lv", "rv"]
        pd.testing.assert_frame_equal(_canon(out, cols), _canon(exp, cols))
        # collision column got the suffix
        assert "name_right" in out.columns and "name" in out.columns

    def test_left_join_keeps_unmatched(self, ray_session):
        import ray
        from spidey_ray.stages.joins import hash_join

        l_df, r_df, l_ds, r_ds = _mk(ray)
        out = hash_join(l_ds, r_ds, on="k", how="left").to_pandas()
        exp = l_df.merge(r_df.rename(columns={"name": "name_right"}),
                         on="k", how="left")
        assert len(out) == len(exp)
        assert out["rv"].isna().sum() == exp["rv"].isna().sum()

    def test_semi_and_anti(self, ray_session):
        import ray
        from spidey_ray.stages.joins import semi_join, anti_join

        l_df, r_df, l_ds, r_ds = _mk(ray)
        semi = semi_join(l_ds, r_ds, on="k").to_pandas()
        anti = anti_join(l_ds, r_ds, on="k").to_pandas()
        rkeys = set(r_df["k"])
        exp_semi = l_df[l_df["k"].isin(rkeys)]
        exp_anti = l_df[~l_df["k"].isin(rkeys)]
        assert sorted(semi["name"]) == sorted(exp_semi["name"])
        assert sorted(anti["name"]) == sorted(exp_anti["name"])
        assert len(semi) + len(anti) == len(l_df)

    def test_multi_key(self, ray_session):
        import ray.data
        from spidey_ray.stages.joins import hash_join

        l_df = pd.DataFrame({"a": [1, 1, 2, 2], "b": ["x", "y", "x", "y"],
                             "lv": [10, 11, 12, 13]})
        r_df = pd.DataFrame({"a": [1, 2, 2], "b": ["y", "x", "z"],
                             "rv": [7, 8, 9]})
        out = hash_join(ray.data.from_pandas(l_df), ray.data.from_pandas(r_df),
                        on=["a", "b"]).to_pandas()
        exp = l_df.merge(r_df, on=["a", "b"])
        cols = ["a", "lv", "rv"]
        pd.testing.assert_frame_equal(_canon(out, cols), _canon(exp, cols))

    def test_int_dtypes_survive_union_nullfill(self, ray_session):
        """The union null-fills the other side's columns; int64 must be
        restored before the merge so output values stay integral."""
        import ray
        from spidey_ray.stages.joins import hash_join

        _, _, l_ds, r_ds = _mk(ray)
        out = hash_join(l_ds, r_ds, on="k").to_pandas()
        assert out["lv"].dtype == np.int64
        assert out["rv"].dtype == np.int64


    def test_side_without_typed_blocks(self, ray_session):
        """A side whose plan yields no typed block (every row filtered
        out) or only zero-row blocks: no left rows → no output; no right
        rows → inner/semi empty, left/anti keep every left row."""
        import ray
        import ray.data
        from spidey_ray.stages.joins import hash_join

        l_df, r_df, l_ds, r_ds = _mk(ray)
        none = lambda ds: ds.filter(lambda r: False)  # noqa: E731
        zero_rows = lambda df: ray.data.from_pandas(df.iloc[:0])  # noqa: E731
        for how in ("inner", "left", "semi", "anti"):
            for empty_l in (none(l_ds), zero_rows(l_df)):
                assert hash_join(empty_l, r_ds, on="k", how=how).count() == 0
            for empty_r in (none(r_ds), zero_rows(r_df)):
                out = hash_join(l_ds, empty_r, on="k", how=how).to_pandas()
                keep = how in ("left", "anti")
                assert len(out) == (len(l_df) if keep else 0), how
                if keep:
                    assert sorted(out["name"]) == sorted(l_df["name"])


class TestJoinFrontDoor:
    def test_broadcast_and_shuffle_strategies_agree(self, ray_session):
        import ray
        from spidey_ray.stages.joins import join

        l_df, r_df, l_ds, r_ds = _mk(ray)
        for how in ("inner", "semi", "anti"):
            bc = join(l_ds, r_ds, on="k", how=how,
                      broadcast_limit=10**6).to_pandas()
            sh = join(l_ds, r_ds, on="k", how=how,
                      broadcast_limit=0).to_pandas()
            cols = [c for c in bc.columns]
            key = lambda df: sorted(map(tuple, df[cols].astype(str).values))  # noqa: E731
            assert key(bc) == key(sh), how

    def test_strategies_agree_on_empty_result_columns(self, ray_session):
        """Both strategies must expose the SAME typed schema when the join
        result is empty (pre-fix: the broadcast path had no zero-row typed
        block, so its empty output carried no column information at all;
        note this Ray version's to_pandas drops columns on ANY zero-row
        dataset, so the dataset-level schema IS the contract)."""
        import pandas as pd
        import ray
        from spidey_ray.stages.joins import join

        l_df = pd.DataFrame({"k": [1, 2, 3], "a": ["x", "y", "z"]})
        r_df = pd.DataFrame({"k": [9, 10], "b": [1.5, 2.5]})  # no overlap
        l_ds = ray.data.from_pandas(l_df)
        r_ds = ray.data.from_pandas(r_df)
        for how, want in (("inner", ["k", "a", "b"]), ("semi", ["k", "a"])):
            bc = join(l_ds, r_ds, on="k", how=how, broadcast_limit=10**6)
            shf = join(l_ds, r_ds, on="k", how=how, broadcast_limit=0)
            assert bc.count() == 0 and shf.count() == 0, how
            assert sorted(bc.schema().names) == sorted(want), how
            assert sorted(shf.schema().names) == sorted(want), how


class TestHyperLogLog:
    def test_accuracy_within_two_percent(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data
        from spidey_ray.stages.sketches import approx_distinct

        rng = np.random.default_rng(11)
        vals = rng.integers(0, 40_000, size=200_000)   # ~39.7k distinct
        ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(9)
        exact = len(set(vals.tolist()))
        est = approx_distinct(ds, "v")
        assert abs(est - exact) / exact < 0.02

    def test_small_range_linear_counting(self, ray_session):
        import pandas as pd
        import ray.data
        from spidey_ray.stages.sketches import approx_distinct

        ds = ray.data.from_pandas(pd.DataFrame({"v": list(range(50)) * 10}))
        assert approx_distinct(ds, "v") == 50

    def test_strings_and_merge_associativity(self, ray_session):
        import pandas as pd
        import ray.data
        from spidey_ray.stages.sketches import approx_distinct

        df = pd.DataFrame({"v": [f"user-{i%997}" for i in range(30_000)]})
        a = approx_distinct(ray.data.from_pandas(df).repartition(2), "v")
        b = approx_distinct(ray.data.from_pandas(df).repartition(17), "v")
        assert a == b            # partition layout must not change the sketch
        assert abs(a - 997) / 997 < 0.03


class TestSaltedJoin:
    def test_skewed_key_same_result(self, ray_session):
        import ray.data
        from spidey_ray.stages.joins import hash_join, salted_join

        rng = np.random.default_rng(5)
        # one key owns half the left side (the straggler-bucket case)
        keys = np.where(rng.random(4000) < 0.5, 7, rng.integers(0, 200, 4000))
        l_df = pd.DataFrame({"k": keys, "lv": np.arange(4000)})
        r_df = pd.DataFrame({"k": np.arange(0, 200), "rv": np.arange(0, 200) * 10})
        l_ds = ray.data.from_pandas(l_df).repartition(8)
        r_ds = ray.data.from_pandas(r_df).repartition(3)
        for how in ("inner", "left", "semi", "anti"):
            plain = hash_join(l_ds, r_ds, on="k", how=how).to_pandas()
            salted = salted_join(l_ds, r_ds, on="k", how=how,
                                 hot_keys=[7], n_salts=4).to_pandas()
            cols = sorted(plain.columns)
            canon = lambda df: sorted(map(tuple, df[cols].astype(str).values))  # noqa: E731
            assert canon(plain) == canon(salted), how

    def test_auto_hot_detection(self, ray_session):
        import ray.data
        from spidey_ray.stages.joins import hash_join, salted_join

        rng = np.random.default_rng(9)
        keys = np.where(rng.random(3000) < 0.4, 42, rng.integers(0, 100, 3000))
        l_ds = ray.data.from_pandas(
            pd.DataFrame({"k": keys, "lv": np.arange(3000)}))
        r_ds = ray.data.from_pandas(
            pd.DataFrame({"k": np.arange(100), "rv": np.arange(100)}))
        a = hash_join(l_ds, r_ds, on="k").to_pandas()
        b = salted_join(l_ds, r_ds, on="k").to_pandas()   # auto-detect 42
        cols = sorted(a.columns)
        canon = lambda df: sorted(map(tuple, df[cols].values))  # noqa: E731
        assert canon(a) == canon(b)


class TestExactQuantiles:
    def test_matches_numpy_order_statistics(self, ray_session):
        import pandas as pd
        import ray.data
        from spidey_ray.stages.sketches import exact_quantiles

        rng = np.random.default_rng(13)
        vals = rng.random(5000) * 1000
        ds = ray.data.from_pandas(
            pd.DataFrame({"id": np.arange(5000), "v": vals})).repartition(11)
        got = exact_quantiles(ds, "v", [0.0, 0.25, 0.5, 0.9, 1.0],
                              tiebreak_cols=["id"])
        srt = np.sort(vals)
        for q, v in got:
            assert v == srt[min(4999, int(q * 4999))], q

    def test_empty_and_single(self, ray_session):
        import pandas as pd
        import ray.data
        from spidey_ray.stages.sketches import exact_quantiles

        empty = ray.data.from_pandas(
            pd.DataFrame({"v": pd.Series(dtype=float)}))
        assert exact_quantiles(empty, "v", [0.5]) == []
        one = ray.data.from_pandas(pd.DataFrame({"v": [42.0]}))
        assert exact_quantiles(one, "v", [0.1, 0.9]) == [(0.1, 42.0), (0.9, 42.0)]
