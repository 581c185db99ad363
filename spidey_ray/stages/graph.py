"""Iterative link-graph analytics over edge Datasets: integer-exact
PageRank.

A crawl corpus IS a link graph (the reference crawler extracts and
canonicalizes outlinks per page — ``backend/crawler/worker.py`` /
``scraper.py`` — but only consumes them for frontier admission); at
100 TB the principled way to prioritize a recrawl frontier or weight a
curation mix is a global link-quality score, which means PageRank — the
canonical *iterative* dataflow workload, and the one shape this engine's
operator inventory didn't yet cover (everything else is single-pass or
fixed-depth).

**Integer-exact arithmetic.**  Ranks live in integer micro-units
(``scale`` = 1e12 by default) and every step is an int64
multiply / floor-divide, so per-destination sums are order-independent:
the result is bit-identical on any block layout, task order, or cluster
size, and a SQL engine can replay the exact iterations (the driver
oracle unrolls them as CTE stages).  Floats would make the groupby sum
depend on reduction order — unverifiable at scale.

Update rule (damping ``d = damping_bp / 10000``, ``n`` nodes, iteration
``k → k+1``), with every division a floor-division::

    share_u  = (r_u * damping_bp) // (10000 * out_u)     per edge u→v
    dangling = Σ_{out_u = 0} (r_u * damping_bp) // 10000
    r'_v     = ((10000 - damping_bp) * scale) // (10000 * n)
               + Σ_{u→v} share_u
               + dangling // n

Floor truncation leaks a few micro-units per step (total rank drifts
slightly below ``scale``); that is the price of exactness and is
identical in every engine that replays the rule.

Two physical plans behind one front door (the repo's adaptive
broadcast↔join convention, cf. ``stages/dedup.py`` /
``stages/spans.py``):

- **broadcast** (``n_nodes ≤ broadcast_limit``): the rank vector is a
  single int64 numpy array ``ray.put`` once per iteration (zero-copy
  reads in workers); each edge block emits a *compacted* (dst, partial
  sum) table that ``io.block_partials`` hands to the driver as its block
  lands, where ``np.add.at`` adds it in (the outdegree vector, once, the
  same way; ids outside ``[0, n_nodes)`` raise).  Driver memory is
  O(n_nodes) — the branch's stated assumption.  The edge Dataset is
  materialized once so ``iters`` passes don't re-execute its lineage.
- **join** (beyond the limit): ranks are a Dataset co-partitioned with
  the (static, materialized-once) outdegree-decorated edges; each
  iteration is one hash-bucket join (ranks → edges on src), one
  fat-bucket groupby-sum on dst, one tiny dangling aggregate (the
  dangling flag is computed ONCE and carried on the rank rows — no
  per-iteration anti-join), and one left join back onto the node set —
  the textbook Pregel/GraphX per-superstep cost (the dangling sum: one
  int64 per block via ``io.block_partials``).  Ranks materialize per
  iteration (O(nodes) rows, spillable) so lineage doesn't compound.

Both plans produce byte-identical tables (tested).

Exchanges: two ``io.exchange`` sites on the join plan, the outdegree
merge (once) and the per-iteration contribution sum; each iteration
also runs two hash joins.  The broadcast plan runs none.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..io import block_partials, exchange, strip_schema_metadata


def _scatter_add(n_nodes: int, parts, id_col: str, val_col: str,
                 what: str) -> np.ndarray:
    """int64[n_nodes] sum of the (id, value) partials ``io.block_partials``
    yields.  Ids outside ``[0, n_nodes)`` — negative ones would wrap
    silently — raise a ``ValueError`` naming them, once all are in."""
    out = np.zeros(n_nodes, dtype=np.int64)
    bad: list[int] = []
    for part in parts:
        ids, vals = part[id_col].to_numpy(), part[val_col].to_numpy()
        ok = (ids >= 0) & (ids < n_nodes)
        bad.extend(ids[~ok].tolist())
        np.add.at(out, ids[ok], vals[ok])
    if bad:
        raise ValueError(f"{what} ids outside [0, n_nodes={n_nodes}): "
                         f"{sorted(set(bad))[:50]}")
    return out


def _pagerank_broadcast(edges: "ray.data.Dataset", n_nodes: int,
                        iters: int, damping_bp: int, scale: int,
                        src_col: str, dst_col: str) -> "ray.data.Dataset":
    edges = edges.materialize()          # iters passes over one pinned copy

    def src_partial(t: pa.Table) -> pa.Table:
        src = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u, cnt = np.unique(src, return_counts=True)
        return pa.table({"src": u, "cnt": cnt.astype(np.int64)})

    od = _scatter_add(n_nodes, block_partials(edges, src_partial),
                      "src", "cnt", src_col)
    dangling_mask = od == 0
    base = ((10000 - damping_bp) * scale) // (10000 * n_nodes)
    rank = np.full(n_nodes, scale // n_nodes, dtype=np.int64)
    od_ref = ray.put(od)

    for _ in range(iters):
        rank_ref = ray.put(rank)

        def contrib_partial(t: pa.Table) -> pa.Table:
            r = ray.get(rank_ref)        # numpy: zero-copy object-store map
            o = ray.get(od_ref)
            src = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
            share = (r[src] * damping_bp) // (10000 * o[src])
            u, inv = np.unique(dst, return_inverse=True)
            sums = np.zeros(len(u), dtype=np.int64)
            np.add.at(sums, inv, share)
            return pa.table({"dst": u, "contrib": sums})

        contrib = _scatter_add(n_nodes, block_partials(edges, contrib_partial),
                               "dst", "contrib", dst_col)
        dangling = int(((rank[dangling_mask] * damping_bp) // 10000).sum())
        rank = base + contrib + dangling // n_nodes

    return ray.data.from_arrow(pa.table({
        "node": np.arange(n_nodes, dtype=np.int64),
        "rank": rank,
    }))


def _pagerank_join(edges: "ray.data.Dataset", n_nodes: int,
                   iters: int, damping_bp: int, scale: int,
                   src_col: str, dst_col: str,
                   num_buckets: int) -> "ray.data.Dataset":
    from .joins import hash_join

    base = ((10000 - damping_bp) * scale) // (10000 * n_nodes)

    # static per-source outdegree, attached to the edges ONCE (the edge
    # set doesn't change across supersteps, so neither does this join)
    def od_explode(t: pa.Table) -> pa.Table:
        src = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u, cnt = np.unique(src, return_counts=True)
        return pa.table({src_col: u, "_od_part": cnt.astype(np.int64)})

    def od_merge(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(src_col, sort=False)["_od_part"].sum().reset_index()
        return s.rename(columns={"_od_part": "out_deg"})

    def by_id(col: str):
        return lambda t: (t[col].to_numpy(zero_copy_only=False)
                          % num_buckets).astype(np.int32)

    outdeg = exchange(edges.map_batches(od_explode, batch_format="pyarrow"),
                      by_id(src_col), od_merge)
    edges_od = hash_join(edges, outdeg, on=src_col,
                         num_buckets=num_buckets).materialize()

    # node set with a STATIC dangling flag (out_deg null after the left
    # join = no outlinks) — per-iteration dangling mass is then a pure
    # filtered sum over the rank rows, not an anti-join
    nodes = ray.data.range(n_nodes).map_batches(
        lambda t: strip_schema_metadata(
            t.rename_columns([src_col])), batch_format="pyarrow")
    flagged = hash_join(nodes, outdeg, on=src_col, how="left",
                        num_buckets=num_buckets)

    def init_rank(t: pa.Table) -> pa.Table:
        n = len(t)
        node = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        od = t["out_deg"].to_numpy(zero_copy_only=False)
        dang = pd.isna(od)
        return pa.table({
            "node": node,
            "rank": np.full(n, scale // n_nodes, dtype=np.int64),
            "dangling": pa.array(np.asarray(dang, dtype=bool)),
        })

    ranks = flagged.map_batches(
        init_rank, batch_format="pyarrow").materialize()

    def dangling_mass(rds: "ray.data.Dataset") -> int:
        def part(t: pa.Table) -> pa.Table:
            r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = t["dangling"].to_numpy(zero_copy_only=False)
            s = int(((r[d] * damping_bp) // 10000).sum())
            return pa.table({"s": np.array([s], dtype=np.int64)})
        return sum(int(p["s"].to_numpy().sum())
                   for p in block_partials(rds, part))

    for _ in range(iters):
        dang_share = dangling_mass(ranks) // n_nodes

        rank_keyed = ranks.map_batches(
            lambda t: strip_schema_metadata(
                t.select(["node", "rank"])
                .rename_columns([src_col, "rank"])),
            batch_format="pyarrow")
        joined = hash_join(edges_od, rank_keyed, on=src_col,
                           num_buckets=num_buckets)

        def shares(t: pa.Table) -> pa.Table:
            r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
            od = t["out_deg"].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
            share = (r * damping_bp) // (10000 * od)
            u, inv = np.unique(dst, return_inverse=True)
            sums = np.zeros(len(u), dtype=np.int64)
            np.add.at(sums, inv, share)
            return pa.table({"node": u, "_c_part": sums})

        def merge_contrib(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby("node", sort=False)["_c_part"].sum().reset_index()
            return s.rename(columns={"_c_part": "contrib"})

        contribs = exchange(joined.map_batches(shares, batch_format="pyarrow"),
                            by_id("node"), merge_contrib)

        updated = hash_join(ranks.select_columns(["node", "dangling"]),
                            contribs, on="node", how="left",
                            num_buckets=num_buckets)

        def apply_rule(t: pa.Table) -> pa.Table:
            c = t["contrib"].to_numpy(zero_copy_only=False)
            c = np.where(pd.isna(c), 0, c).astype(np.int64)
            return pa.table({
                "node": t["node"].to_numpy(zero_copy_only=False)
                        .astype(np.int64),
                "rank": base + c + dang_share,
                "dangling": t["dangling"],
            })

        ranks = updated.map_batches(
            apply_rule, batch_format="pyarrow").materialize()

    return ranks.select_columns(["node", "rank"])


def pagerank(edges: "ray.data.Dataset", n_nodes: int, *,
             iters: int = 10, damping_bp: int = 8500,
             scale: int = 10 ** 12,
             src_col: str = "src", dst_col: str = "dst",
             broadcast_limit: int = 5_000_000,
             num_buckets: int = 64) -> "ray.data.Dataset":
    """Integer-exact PageRank over an edge Dataset; nodes are the dense
    ids ``0..n_nodes-1`` (map sparse keys through a rank-assignment pass
    first).  Returns a Dataset ``(node int64, rank int64)`` — rank in
    ``scale`` micro-units.  See the module docstring for the exact update
    rule and the two physical plans.
    """
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if not (0 < damping_bp < 10000):
        raise ValueError("damping_bp must be in (0, 10000)")
    if n_nodes <= broadcast_limit:
        return _pagerank_broadcast(edges, n_nodes, iters, damping_bp,
                                   scale, src_col, dst_col)
    return _pagerank_join(edges, n_nodes, iters, damping_bp, scale,
                          src_col, dst_col, num_buckets)


def pagerank_reference(src: np.ndarray, dst: np.ndarray, n_nodes: int,
                       iters: int = 10, damping_bp: int = 8500,
                       scale: int = 10 ** 12) -> np.ndarray:
    """Serial numpy mirror of the exact update rule (tests + docs)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    od = np.bincount(src, minlength=n_nodes).astype(np.int64)
    base = ((10000 - damping_bp) * scale) // (10000 * n_nodes)
    r = np.full(n_nodes, scale // n_nodes, dtype=np.int64)
    for _ in range(iters):
        share = (r[src] * damping_bp) // (10000 * od[src])
        contrib = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(contrib, dst, share)
        dang = int(((r[od == 0] * damping_bp) // 10000).sum())
        r = base + contrib + dang // n_nodes
    return r
