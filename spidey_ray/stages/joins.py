"""General distributed equi-join where BOTH sides stream (no broadcast, no
driver-side key sets).

This is the operator the reference's large join shapes need at corpus scale
(``backend/Indexer.py:188`` postings ⋈ docInfo, ``backend/Query.py:281-286``
docInfo lookup): the small-side broadcast pattern in ``__ray_entry__`` stops
working when both sides are corpus-sized.

Shape (generalizing the co-partition pattern proven in
``stages/windows.py:20-62``): tag each side, hash-bucket the join key into
``num_buckets`` FAT groups (not one group per distinct key — millions of
one-row groups is the slow path; 64-512 fat buckets is the scale path, same
as the stem-hash buckets in ``pipelines/filter_index.py``), co-partition
with ONE ``groupby(_bucket)`` shuffle, and run an ordinary pandas hash merge
inside each bucket.  Blocks stay Arrow through the shuffle — Arrow
null-fills the other side's columns (including list columns) losslessly,
and each side is converted to pandas only AFTER the side split, so no
column ever sees null-fill in pandas and int dtypes survive untouched.

The bucket hash is deterministic (``pandas.util.hash_pandas_object`` with a
fixed hash key, ``categorize=False`` — factorize's C hashtable truncates
strings at NUL and would collide distinct composite keys) so the same key
always lands in the same bucket on every node.

Skew note: one bucket holds ~1/num_buckets of the key space; a single hot
key cannot be split further by bucketing alone — salt the hot key upstream
(duplicate the small side per salt) as documented in ray_guide.md.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_HASH_KEY = "spidey-join-0000"  # 16 bytes, fixed: deterministic across workers


def _bucket_of(t: pa.Table, on: list[str], num_buckets: int) -> pa.Array:
    df = t.select(on).to_pandas()
    if len(on) > 1:
        # vectorized string concat — .agg("\x1f".join, axis=1) is a
        # per-row Python loop (same values, C speed)
        key = df[on[0]].astype(str)
        for c in on[1:]:
            key = key + "\x1f" + df[c].astype(str)
    else:
        key = df[on[0]]
    h = pd.util.hash_pandas_object(
        key, index=False, hash_key=_HASH_KEY, categorize=False)
    return pa.array((h % num_buckets).astype(np.int32).to_numpy())


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str | list[str],
    how: str = "inner",
    num_buckets: int = 64,
    suffix: str = "_right",
) -> "ray.data.Dataset":
    """Distributed equi-join of two streaming Datasets.

    ``how``: ``inner`` | ``left`` | ``semi`` | ``anti`` (semi/anti return
    left columns only).  Right-side non-key columns that collide with left
    names get ``suffix``.  For ``left``, unmatched right-side int columns
    surface as Arrow nulls (pandas shows NaN), not a float reinterpretation.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    on = [on] if isinstance(on, str) else list(on)

    def tag_left(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        return t.append_column("_side", pa.array(np.zeros(len(t), dtype=np.int8))) \
                .append_column("_bucket", _bucket_of(t, on, num_buckets))

    def tag_right(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        t = t.rename_columns([c + suffix if c in left_cols and c not in on
                              else c for c in t.column_names])
        return t.append_column("_side", pa.array(np.ones(len(t), dtype=np.int8))) \
                .append_column("_bucket", _bucket_of(t, on, num_buckets))

    # ONE schema probe per side, on the tagged sides materialized first: a
    # lazy plan's probe is a limit(1) run that cancels the tasks it does
    # not need, and Ray 2.49 has aborted the driver in that cancel
    # (task_manager.cc:930).  schema() None = no typed block: short-circuit.
    # The probes type every column, so BOTH sides get padded to one schema
    # before the union: Ray's shuffle concat mishandles blocks with
    # differing column sets when any column is an extension type, and
    # identical schemas also skip unify entirely.
    l_tag = left.map_batches(tag_left, batch_format="pyarrow").materialize()
    l_schema = l_tag.schema()
    if l_schema is None:
        return left                     # no left rows → no output rows
    left_cols = l_schema.names[:-2]     # tag_left appends _side, _bucket
    r_tag = right.map_batches(tag_right, batch_format="pyarrow").materialize()
    r_schema = r_tag.schema()
    if r_schema is None:
        if how in ("inner", "semi"):
            return left.limit(0)
        return left                     # anti/left: every left row survives

    out_right_cols = [c for c in r_schema.names[:-2] if c not in on]
    out_cols = (left_cols if how in ("semi", "anti")
                else left_cols + out_right_cols)
    field_types: dict[str, pa.DataType] = {}
    for f in list(l_schema.base_schema) + list(r_schema.base_schema):
        field_types.setdefault(f.name, f.type)
    out_schema = pa.schema([(c, field_types[c]) for c in out_cols])
    all_cols = list(field_types)

    def pad(t: pa.Table) -> pa.Table:
        for c, typ in field_types.items():
            if c not in t.column_names:
                t = t.append_column(c, pa.nulls(len(t), type=typ))
        return t.select(all_cols)

    l_tag = l_tag.map_batches(pad, batch_format="pyarrow")
    r_tag = r_tag.map_batches(pad, batch_format="pyarrow")

    def _empty() -> pa.Table:
        return pa.table({c: pa.array([], type=field_types[c])
                         for c in out_cols})

    def per_bucket(g: pa.Table) -> pa.Table:
        # g carries the union's unified Arrow schema: both sides' columns
        # with correct types, null-filled crosswise.  Split sides FIRST so
        # each pandas frame only ever holds its own (null-free) columns.
        for c, typ in field_types.items():
            if c not in g.column_names:
                g = g.append_column(c, pa.nulls(len(g), type=typ))
        side = g["_side"]
        lg = g.filter(pc.equal(side, 0)).select(left_cols).to_pandas()
        rg = g.filter(pc.equal(side, 1)).select(on + out_right_cols).to_pandas()
        if how == "semi":
            if rg.empty or lg.empty:
                return _empty()
            out = lg.merge(rg[on].drop_duplicates(), on=on, how="inner")
        elif how == "anti":
            if rg.empty:
                out = lg
            else:
                m = lg.merge(rg[on].drop_duplicates(), on=on, how="left",
                             indicator=True)
                out = m.loc[m["_merge"] == "left_only", left_cols]
        else:
            if lg.empty or (rg.empty and how == "inner"):
                return _empty()
            out = lg.merge(rg, on=on, how=how)
        if out.empty:
            return _empty()
        return pa.Table.from_pandas(out[out_cols], schema=out_schema,
                                    preserve_index=False)

    joined = l_tag.union(r_tag).groupby("_bucket").map_groups(
        per_bucket, batch_format="pyarrow")
    # one zero-row TYPED block is always present: empty shuffle partitions
    # yield schema-less blocks, and an all-empty result would otherwise
    # lose its columns in to_pandas()
    return joined.union(ray.data.from_arrow(_empty()))


def join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str | list[str],
    how: str = "inner",
    broadcast_limit: int = 1_000_000,
    num_buckets: int = 64,
    suffix: str = "_right",
) -> "ray.data.Dataset":
    """Strategy-selecting join front door (the broadcast-threshold pattern):
    when the RIGHT side is small (≤ ``broadcast_limit`` rows) it is
    collected once, ``ray.put``, and each left batch merges against it with
    no shuffle; otherwise the hash-bucket co-partition join runs.  Same
    semantics as :func:`hash_join` for every ``how``."""
    n_right = right.count()
    if n_right > broadcast_limit:
        return hash_join(left, right, on, how=how, num_buckets=num_buckets,
                         suffix=suffix)
    on_l = [on] if isinstance(on, str) else list(on)
    if left.schema() is None:
        return left
    if right.schema() is None or n_right == 0:
        if how in ("inner", "semi"):
            return left.limit(0)
        return left
    left_cols = list(left.schema().names)
    rdf = right.to_pandas()
    rename = {c: (c + suffix if c in left_cols else c)
              for c in right.schema().names if c not in on_l}
    rdf = rdf.rename(columns=rename)
    r_ref = ray.put(rdf)

    out_cols_bc = (left_cols if how in ("semi", "anti")
                   else left_cols + [c for c in rdf.columns if c not in on_l])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(r_ref)
        if not len(df.columns):          # schema-less empty shuffle block
            return pd.DataFrame(columns=out_cols_bc)
        if how == "semi":
            return df.merge(r[on_l].drop_duplicates(), on=on_l, how="inner")
        if how == "anti":
            m = df.merge(r[on_l].drop_duplicates(), on=on_l, how="left",
                         indicator=True)
            return m.loc[m["_merge"] == "left_only", list(df.columns)]
        return df.merge(r, on=on_l, how=how)

    # Same guard as hash_join: one zero-row TYPED block is always present so
    # an all-empty broadcast result keeps its columns through to_pandas —
    # without it the two strategies this front door switches between return
    # differently-shaped outputs for the same (empty-result) inputs.
    # left may be pandas-blocked (base_schema a PandasBlockSchema namedtuple
    # whose types are numpy dtypes / python classes, not Arrow types)
    def _pa_type(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except (TypeError, ValueError, pa.ArrowNotImplementedError):
            return pa.string()      # object dtype: strings in practice

    _ls = left.schema()
    l_fields = [(n, _pa_type(t)) for n, t in zip(_ls.names, _ls.types)]
    r_schema = pa.Schema.from_pandas(rdf, preserve_index=False)
    l_names = {n for n, _ in l_fields}
    out_fields = list(l_fields)
    if how not in ("semi", "anti"):
        out_fields += [(c, r_schema.field(c).type) for c in rdf.columns
                       if c not in on_l and c not in l_names]
    empty_block = pa.schema(out_fields).empty_table()

    return left.map_batches(merge, batch_format="pandas").union(
        ray.data.from_arrow(empty_block))


def salted_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    how: str = "inner",
    hot_keys: list | None = None,
    n_salts: int = 8,
    hot_fraction: float = 0.05,
    sample_rows: int = 100_000,
    num_buckets: int = 64,
    suffix: str = "_right",
) -> "ray.data.Dataset":
    """Skew-mitigated equi-join (the docstring's "salt the hot keys
    upstream", made concrete): a single hot key cannot be split by hash
    bucketing alone — all its rows land in one bucket and one straggler
    task.  Here the hot keys' LEFT rows scatter uniformly over ``n_salts``
    sub-keys (a deterministic per-batch round-robin) while their RIGHT rows
    are replicated once per salt; the join key becomes (key, _salt), so the
    hot key's work spreads over ``n_salts`` buckets.  Non-hot keys pay
    nothing (salt 0, no replication).

    ``hot_keys=None`` auto-detects: keys above ``hot_fraction`` of a
    ``sample_rows`` sample of the left side.  Same results as
    :func:`hash_join` for every ``how`` (single-column keys)."""
    if hot_keys is None:
        n_left = left.count()
        frac = min(1.0, sample_rows / max(n_left, 1))
        sample = (left.random_sample(frac, seed=7) if frac < 1.0 else left)
        counts = sample.select_columns([on]).to_pandas()[on].value_counts()
        hot_keys = list(counts[counts / max(counts.sum(), 1)
                               >= hot_fraction].index)
    hot = set(hot_keys)
    if not hot:
        return hash_join(left, right, on, how=how, num_buckets=num_buckets,
                         suffix=suffix)

    def salt_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        salt = np.zeros(len(df), dtype=np.int32)
        mask = df[on].isin(hot).to_numpy()
        salt[mask] = np.arange(int(mask.sum()), dtype=np.int32) % n_salts
        df["_salt"] = salt
        return df

    def salt_right(df: pd.DataFrame) -> pd.DataFrame:
        mask = df[on].isin(hot).to_numpy()
        cold = df[~mask].copy()
        cold["_salt"] = np.int32(0)
        hots = df[mask]
        if len(hots):
            reps = [hots.assign(_salt=np.int32(s)) for s in range(n_salts)]
            return pd.concat([cold] + reps, ignore_index=True)
        return cold

    l_s = left.map_batches(salt_left, batch_format="pandas")
    r_s = right.map_batches(salt_right, batch_format="pandas")
    out = hash_join(l_s, r_s, on=[on, "_salt"], how=how,
                    num_buckets=num_buckets, suffix=suffix)
    return out.map_batches(lambda df: df.drop(columns=["_salt"]),
                           batch_format="pandas")


def semi_join(left, right, on, num_buckets: int = 64):
    """Left rows whose key appears in right (both sides stream)."""
    return hash_join(left, right, on, how="semi", num_buckets=num_buckets)


def anti_join(left, right, on, num_buckets: int = 64):
    """Left rows whose key does NOT appear in right (both sides stream)."""
    return hash_join(left, right, on, how="anti", num_buckets=num_buckets)
