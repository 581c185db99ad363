"""Similarity search over an embedding column (list<float>).

- ``cosine_topk``: brute-force scan — numpy matmul per batch against a
  broadcast query matrix (``ray.put`` once, fetched in each task), per-batch
  partial top-k, tiny global merge.  The baseline and the exactness oracle.
- ``IvfIndex``: IVF-flat scale path — k-means coarse centroids, vectors
  bucketed by nearest centroid (a groupby shuffle), queries probe the
  ``n_probe`` nearest buckets only.  (Jégou et al., "Product Quantization
  for Nearest Neighbor Search", PAMI'11 — coarse quantizer part.)

Exchanges: two ``io.exchange`` sites on the cluster id, ``IvfIndex.build``
and ``semdedup``; ``semdedup`` adds one anti join past its broadcast
limit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..io import exchange


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def spherical_kmeans(x: np.ndarray, k: int, seed: int = 42,
                     iters: int = 10) -> np.ndarray:
    """Deterministic spherical k-means over UNIT row vectors: seeded
    choice init, argmax-cosine assignment, re-normalized mean update.
    Shared by ``IvfIndex`` (coarse quantizer) and ``semdedup`` (cluster
    stage) so both sides of a test can reproduce identical centroids."""
    rng = np.random.default_rng(seed)
    c = x[rng.choice(len(x), size=min(k, len(x)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(x @ c.T, axis=1)
        for j in range(len(c)):
            members = x[assign == j]
            if len(members):
                m = members.mean(axis=0)
                n = np.linalg.norm(m)
                if n > 0:
                    c[j] = m / n
    return c


def cosine_topk(ds: "ray.data.Dataset", query_vecs: np.ndarray, k: int = 10,
                emb_col: str = "embedding", id_col: str = "vec_id") -> pa.Table:
    """Exact top-k by cosine for each query row. Returns
    (query_idx, vec_id, cosine, rank) — ties broken by vec_id asc."""
    q = _unit(np.atleast_2d(np.asarray(query_vecs, dtype=np.float64)))
    q_ref = ray.put(q)

    def score(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        mat = _unit(np.array(batch[emb_col].to_pylist(), dtype=np.float64))
        sims = mat @ qm.T                                  # (n, nq)
        ids = np.array(batch[id_col].to_pylist(), dtype=np.int64)
        out_q, out_id, out_c = [], [], []
        for qi in range(qm.shape[0]):
            col = sims[:, qi]
            take = min(k, len(ids))
            idx = np.argpartition(-col, take - 1)[:take]
            for i in idx:
                out_q.append(qi)
                out_id.append(int(ids[i]))
                out_c.append(float(col[i]))
        return pa.table({
            "query_idx": pa.array(out_q, type=pa.int32()),
            "vec_id": pa.array(out_id, type=pa.int64()),
            "cosine": pa.array(out_c, type=pa.float64()),
        })

    partials = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    rows = {"query_idx": [], "vec_id": [], "cosine": [], "rank": []}
    for qi, g in partials.groupby("query_idx"):
        g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        for rank, (vid, cos) in enumerate(zip(g["vec_id"], g["cosine"]), 1):
            rows["query_idx"].append(int(qi))
            rows["vec_id"].append(int(vid))
            rows["cosine"].append(round(float(cos), 4))
            rows["rank"].append(rank)
    return pa.table({
        "query_idx": pa.array(rows["query_idx"], type=pa.int32()),
        "vec_id": pa.array(rows["vec_id"], type=pa.int64()),
        "cosine": pa.array(rows["cosine"], type=pa.float64()),
        # int64 to match SQL row_number() (the driver hash is dtype-aware)
        "rank": pa.array(rows["rank"], type=pa.int64()),
    })


def filtered_cosine_topk(ds: "ray.data.Dataset", query_vecs: np.ndarray,
                         k: int = 10, predicate=None,
                         emb_col: str = "embedding",
                         id_col: str = "vec_id") -> pa.Table:
    """Exact cosine top-k restricted to rows matching ``predicate``
    (a callable ``pa.Table -> bool Array``) — the *pre-filtering* ANN
    strategy: the predicate is applied inside each scan batch BEFORE any
    vector is scored, so only qualifying vectors pay the matmul.

    Scale posture: at 100 TB this is the right default whenever the
    predicate is available as a column — the filter runs in the read
    tasks (combine it with ``read_parquet(columns=...)`` pruning and
    row-group statistics), the scored stream shrinks by the predicate's
    selectivity, and the global merge stays a tiny per-query top-k.  The
    alternative (post-filtering an unfiltered ANN with over-fetch) is
    exposed on ``IvfIndex.search(predicate=...)`` for index-resident
    corpora where re-scanning is worse than over-probing."""
    if predicate is None:
        return cosine_topk(ds, query_vecs, k=k, emb_col=emb_col,
                           id_col=id_col)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(predicate(batch))

    return cosine_topk(ds.map_batches(keep, batch_format="pyarrow"),
                       query_vecs, k=k, emb_col=emb_col, id_col=id_col)


@ray.remote
def _block_list_ids(block: pa.Table) -> set:
    if "list_id" not in block.column_names:   # empty shuffle block
        return set()
    return set(block["list_id"].to_pylist())


@ray.remote
def _probe_block(block: pa.Table, q: np.ndarray, k: int,
                 wanted: list[int],
                 predicate=None) -> tuple[np.ndarray, np.ndarray]:
    """Partial top-k over one bucket block, restricted to the probed lists
    (and, when given, to rows passing ``predicate`` — post-filtering ANN:
    the filter runs where the block lives, never on the driver)."""
    import pyarrow.compute as pc

    t = block.filter(pc.is_in(block["list_id"],
                              value_set=pa.array(wanted, type=pa.int32())))
    if predicate is not None and len(t):
        t = t.filter(predicate(t))
    if len(t) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(t["unit"].to_pylist(), dtype=np.float64)
    sims = mat @ q
    idx = np.lexsort((ids, -sims))[:k]
    return ids[idx], sims[idx]


@ray.remote
def _pq_scan_block(block: pa.Table, dist_table: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """ADC scan of one code block: distance = Σ_m dist_table[m, code_m]
    (pure table lookups — the raw vectors never exist here)."""
    if "codes" not in block.column_names or len(block) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    ids = np.asarray(block["vec_id"].to_pylist(), dtype=np.int64)
    codes = np.array(block["codes"].to_pylist(), dtype=np.uint8)   # (n, M)
    m = codes.shape[1]
    dists = dist_table[np.arange(m)[None, :], codes].sum(axis=1)
    idx = np.lexsort((ids, dists))[:k]
    return ids[idx], dists[idx]


class PqIndex:
    """Product-quantization ANN (Jégou et al., PAMI'11): unit vectors split
    into M subspaces, each encoded as one of 256 k-means codewords — a
    D-float vector becomes M bytes (e.g. 16 floats → 4 bytes, 16×
    compression).  Search is asymmetric distance (ADC): the query builds an
    (M, 256) distance table once, and every corpus block is scanned with
    pure table lookups.

    Scale posture mirrors IvfIndex: code blocks stay in the object store,
    scanned by targeted Ray tasks returning per-block top-k partials; the
    driver holds only the codebooks (M × 256 × D/M floats) and block refs.
    Cosine on unit vectors is served via L2 (‖a−b‖² = 2 − 2·cos)."""

    def __init__(self, m: int = 4, seed: int = 42, train_iters: int = 12):
        self.m = m
        self.seed = seed
        self.train_iters = train_iters
        self.codebooks: np.ndarray | None = None     # (M, 256, dsub)
        self._block_refs: list = []

    def _train_subspace(self, x: np.ndarray, rng) -> np.ndarray:
        k = min(256, len(x))
        c = x[rng.choice(len(x), size=k, replace=False)]
        for _ in range(self.train_iters):
            d = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            for j in range(len(c)):
                members = x[assign == j]
                if len(members):
                    c[j] = members.mean(axis=0)
        if len(c) < 256:                      # pad so codes stay uint8-valid
            c = np.vstack([c, np.repeat(c[-1:], 256 - len(c), axis=0)])
        return c

    def build(self, ds: "ray.data.Dataset", emb_col: str = "embedding",
              id_col: str = "vec_id", sample_fraction: float = 0.5) -> "PqIndex":
        sample = ds.random_sample(sample_fraction, seed=self.seed).to_pandas()
        train = _unit(np.array(sample[emb_col].tolist(), dtype=np.float64))
        dim = train.shape[1]
        assert dim % self.m == 0, "dim must divide by m"
        dsub = dim // self.m
        rng = np.random.default_rng(self.seed)
        self.codebooks = np.stack([
            self._train_subspace(train[:, i * dsub:(i + 1) * dsub], rng)
            for i in range(self.m)
        ])
        cb_ref = ray.put(self.codebooks)
        m, _ = self.m, dsub

        def encode(batch: pa.Table) -> pa.Table:
            cb = ray.get(cb_ref)
            mat = _unit(np.array(batch[emb_col].to_pylist(), dtype=np.float64))
            codes = np.empty((len(mat), m), dtype=np.uint8)
            for i in range(m):
                sub = mat[:, i * dsub:(i + 1) * dsub]
                d = ((sub[:, None, :] - cb[i][None, :, :]) ** 2).sum(axis=2)
                codes[:, i] = d.argmin(axis=1).astype(np.uint8)
            return pa.table({
                "vec_id": batch[id_col],
                "codes": pa.array([c.tolist() for c in codes],
                                  type=pa.list_(pa.uint8())),
            })

        encoded = ds.map_batches(encode, batch_format="pyarrow").materialize()
        self._block_refs = [
            ref for b in encoded.iter_internal_ref_bundles()
            for ref in b.block_refs
        ]
        return self

    def search(self, query_vec: np.ndarray, k: int = 10) -> list[tuple[int, float]]:
        q = _unit(np.atleast_2d(np.asarray(query_vec, dtype=np.float64)))[0]
        dsub = self.codebooks.shape[2]
        dist_table = np.stack([
            ((self.codebooks[i] - q[i * dsub:(i + 1) * dsub][None, :]) ** 2
             ).sum(axis=1)
            for i in range(self.m)
        ])                                             # (M, 256)
        parts = ray.get([
            _pq_scan_block.remote(ref, dist_table, k)
            for ref in self._block_refs
        ])
        ids = np.concatenate([p[0] for p in parts])
        dists = np.concatenate([p[1] for p in parts])
        if len(ids) == 0:
            return []
        idx = np.lexsort((ids, dists))[:k]
        # approx cosine back from L2 on unit vectors
        return [(int(ids[i]), round(float(1 - dists[i] / 2), 4)) for i in idx]


class IvfIndex:
    """IVF-flat index: centroids trained on a sample, vectors assigned to
    nearest centroid via map_batches.

    Scale posture: the driver holds ONLY the centroids and a tiny
    block→list_ids index.  Assigned vectors stay in the object store as
    Arrow blocks, clustered by ``list_id`` (one groupby shuffle), and each
    query probes only the blocks containing its ``n_probe`` nearest lists
    via targeted Ray tasks — nothing corpus-sized ever materializes on the
    driver."""

    def __init__(self, n_lists: int = 16, n_probe: int = 4, seed: int = 42):
        self.n_lists = n_lists
        self.n_probe = n_probe
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._block_refs: list = []
        self._block_lists: list[set] = []

    def _kmeans(self, x: np.ndarray, iters: int = 10) -> np.ndarray:
        return spherical_kmeans(x, self.n_lists, seed=self.seed, iters=iters)

    def build(self, ds: "ray.data.Dataset", emb_col: str = "embedding",
              id_col: str = "vec_id", sample_fraction: float = 0.25,
              meta_cols: tuple = ()) -> "IvfIndex":
        """``meta_cols`` are carried verbatim into the clustered blocks so
        ``search(predicate=...)`` can post-filter without a second scan."""
        sample = ds.random_sample(sample_fraction, seed=self.seed).to_pandas()
        train = _unit(np.array(sample[emb_col].tolist(), dtype=np.float64))
        self.centroids = self._kmeans(train)
        c_ref = ray.put(self.centroids)

        def assign(batch: pa.Table) -> pa.Table:
            c = ray.get(c_ref)
            mat = _unit(np.array(batch[emb_col].to_pylist(), dtype=np.float64))
            lst = np.argmax(mat @ c.T, axis=1).astype(np.int32)
            cols = {
                "list_id": pa.array(lst),
                "vec_id": batch[id_col],
                "unit": pa.array([r.tolist() for r in mat],
                                 type=pa.list_(pa.float64())),
            }
            for m in meta_cols:
                cols[m] = batch[m]
            return pa.table(cols)

        # cluster by list_id (one shuffle) so each Arrow block holds few
        # lists, keep the blocks in the object store, record which lists
        # live in which block (tiny driver metadata)
        assigned = exchange(ds.map_batches(assign, batch_format="pyarrow"),
                            "list_id", lambda g: g,
                            batch_format="pyarrow").materialize()
        self._block_refs = [
            ref for bundle in assigned.iter_internal_ref_bundles()
            for ref in bundle.block_refs
        ]
        self._block_lists = ray.get(
            [_block_list_ids.remote(b) for b in self._block_refs])
        return self

    def search(self, query_vec: np.ndarray, k: int = 10,
               predicate=None, overfetch: int = 4) -> list[tuple[int, float]]:
        """Optional ``predicate`` (``pa.Table -> bool Array`` over the
        block's meta_cols) post-filters inside each probe task; each probe
        over-fetches ``overfetch * k`` partials so a selective filter
        doesn't starve the merge (standard post-filtering ANN tradeoff —
        raise ``n_probe``/``overfetch`` as selectivity drops)."""
        q = _unit(np.atleast_2d(np.asarray(query_vec, dtype=np.float64)))[0]
        order = np.argsort(-(self.centroids @ q))[: self.n_probe]
        wanted = set(int(x) for x in order)
        probe_k = k if predicate is None else max(k, overfetch * k)
        tasks = [
            _probe_block.remote(ref, q, probe_k, sorted(wanted), predicate)
            for ref, lists in zip(self._block_refs, self._block_lists)
            if lists & wanted
        ]
        if not tasks:
            return []
        parts = ray.get(tasks)
        ids = np.concatenate([p[0] for p in parts])
        sims = np.concatenate([p[1] for p in parts])
        if len(ids) == 0:
            return []
        idx = np.lexsort((ids, -sims))[:k]
        return [(int(ids[i]), round(float(sims[i]), 4)) for i in idx]

# ---------------------------------------------------------------------------
# sharded HNSW (graph ANN)
# ---------------------------------------------------------------------------


class _HnswGraph:
    """In-memory HNSW graph over unit vectors (Malkov & Yashunin,
    "Efficient and robust approximate nearest neighbor search using
    Hierarchical Navigable Small World graphs", TPAMI'18).  Cosine is
    served as inner-product distance (1 − a·b on unit vectors).  Pure
    numpy + heapq; neighbor-expansion distances are one matvec per pop."""

    def __init__(self, vecs: np.ndarray, ids: np.ndarray, m: int = 16,
                 ef_construction: int = 100, seed: int = 7):
        self.vecs = vecs
        self.ids = ids
        self.m = m
        self.m0 = 2 * m
        self.efc = max(ef_construction, m + 1)
        rng = np.random.default_rng(seed)
        ml = 1.0 / np.log(m)
        self.node_level = (-np.log(1.0 - rng.random(len(vecs))) * ml).astype(
            np.int64)
        self.links: list[list[list[int]]] = []
        self.entry = -1
        self.max_level = -1
        for i in range(len(vecs)):
            self._insert(i)

    def _dist(self, q: np.ndarray, nodes) -> np.ndarray:
        return 1.0 - self.vecs[nodes] @ q

    def _greedy(self, q: np.ndarray, cur: int, level: int) -> int:
        curd = float(1.0 - self.vecs[cur] @ q)
        improved = True
        while improved:
            improved = False
            nbrs = self.links[cur][level]
            if not nbrs:
                break
            d = self._dist(q, nbrs)
            j = int(d.argmin())
            if d[j] < curd:
                cur, curd = nbrs[j], float(d[j])
                improved = True
        return cur

    def _search_layer(self, q: np.ndarray, entry_points: list[int], ef: int,
                      level: int) -> list[tuple[float, int]]:
        """Beam search on one layer → up to ef (dist, node), dist asc."""
        import heapq

        visited = set(entry_points)
        d0 = self._dist(q, entry_points)
        cand = sorted(zip((float(x) for x in d0), entry_points))
        best = [(-d, n) for d, n in cand]   # max-heap of the ef best
        heapq.heapify(best)
        while len(best) > ef:
            heapq.heappop(best)
        cand = list(cand)
        heapq.heapify(cand)
        while cand:
            d, node = heapq.heappop(cand)
            if d > -best[0][0] and len(best) >= ef:
                break
            nbrs = [x for x in self.links[node][level] if x not in visited]
            if not nbrs:
                continue
            visited.update(nbrs)
            nd = self._dist(q, nbrs)
            for dn, nb in zip(nd, nbrs):
                dn = float(dn)
                if len(best) < ef or dn < -best[0][0]:
                    heapq.heappush(cand, (dn, nb))
                    heapq.heappush(best, (-dn, nb))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, n) for d, n in best)

    def _insert(self, i: int) -> None:
        lvl = int(self.node_level[i])
        self.links.append([[] for _ in range(lvl + 1)])
        if self.entry < 0:
            self.entry, self.max_level = i, lvl
            return
        q = self.vecs[i]
        cur = self.entry
        for lev in range(self.max_level, lvl, -1):
            cur = self._greedy(q, cur, lev)
        eps = [cur]
        for lev in range(min(lvl, self.max_level), -1, -1):
            found = self._search_layer(q, eps, self.efc, lev)
            mmax = self.m0 if lev == 0 else self.m
            sel = [n for _, n in found[: self.m]]
            self.links[i][lev] = list(sel)
            for nb in sel:                      # bidirectional + prune
                lnk = self.links[nb][lev]
                lnk.append(i)
                if len(lnk) > mmax:
                    d = self._dist(self.vecs[nb], lnk)
                    keep = np.argsort(d, kind="stable")[:mmax]
                    self.links[nb][lev] = [lnk[j] for j in keep]
            eps = [n for _, n in found]
        if lvl > self.max_level:
            self.max_level, self.entry = lvl, i

    def search(self, q: np.ndarray, k: int, ef: int) -> list[tuple[int, float]]:
        if self.entry < 0:
            return []
        cur = self.entry
        for lev in range(self.max_level, 0, -1):
            cur = self._greedy(q, cur, lev)
        found = self._search_layer(q, [cur], max(ef, k), 0)
        out = [(int(self.ids[n]), round(float(1.0 - d), 4))
               for d, n in found[:k]]
        # ties broken by vec_id asc like the other indexes
        out.sort(key=lambda x: (-x[1], x[0]))
        return out


@ray.remote
def _hnsw_build_shard(block_refs: list, m: int, efc: int,
                      seed: int) -> "_HnswGraph":
    tables = [t for t in ray.get(block_refs)
              if "unit" in t.column_names and len(t)]
    if not tables:
        return _HnswGraph(np.empty((0, 1)), np.empty(0, dtype=np.int64),
                          m=m, ef_construction=efc, seed=seed)
    t = pa.concat_tables(tables)
    vecs = np.array(t["unit"].to_pylist(), dtype=np.float64)
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    return _HnswGraph(vecs, ids, m=m, ef_construction=efc, seed=seed)


@ray.remote
def _hnsw_search_shard(graph: "_HnswGraph", q: np.ndarray, k: int,
                       ef: int) -> list[tuple[int, float]]:
    return graph.search(q, k, ef)


class HnswIndex:
    """Sharded HNSW graph ANN — the third ANN family next to IVF-flat and
    PQ (graph beats partition methods on recall/latency for high-recall
    regimes).

    Scale posture: the corpus splits into ``n_shards`` disjoint shards;
    each shard builds its own graph in a parallel Ray task and the GRAPH
    OBJECT stays in the object store — the driver holds only shard refs.
    A query fans out one search task per shard (greedy descent + beam) and
    merges the per-shard top-k; recall is ≥ single-graph HNSW at equal ef
    because every shard is searched exhaustively at the top (the standard
    sharded-serving layout of DiskANN/Vamana-style deployments).  Build is
    embarrassingly parallel; at cluster scale each shard graph lives on
    (and is searched on) the node that built it."""

    def __init__(self, n_shards: int = 8, m: int = 16,
                 ef_construction: int = 100, ef_search: int = 64,
                 seed: int = 42):
        self.n_shards = n_shards
        self.m = m
        self.efc = ef_construction
        self.efs = ef_search
        self.seed = seed
        self._shard_refs: list = []

    def build(self, ds: "ray.data.Dataset", emb_col: str = "embedding",
              id_col: str = "vec_id") -> "HnswIndex":
        def norm(batch: pa.Table) -> pa.Table:
            mat = _unit(np.array(batch[emb_col].to_pylist(), dtype=np.float64))
            return pa.table({
                "vec_id": batch[id_col],
                "unit": pa.array([r.tolist() for r in mat],
                                 type=pa.list_(pa.float64())),
            })

        normalized = ds.map_batches(norm, batch_format="pyarrow").materialize()
        refs = [
            ref for bundle in normalized.iter_internal_ref_bundles()
            for ref in bundle.block_refs
        ]
        n = min(self.n_shards, max(1, len(refs)))
        shards: list[list] = [[] for _ in range(n)]
        for i, ref in enumerate(refs):          # round-robin block→shard
            shards[i % n].append(ref)
        self._shard_refs = [
            _hnsw_build_shard.remote(blocks, self.m, self.efc,
                                     self.seed + si)
            for si, blocks in enumerate(shards)
        ]
        return self

    def search(self, query_vec: np.ndarray, k: int = 10) -> list[tuple[int, float]]:
        q = _unit(np.atleast_2d(np.asarray(query_vec, dtype=np.float64)))[0]
        parts = ray.get([
            _hnsw_search_shard.remote(ref, q, k, self.efs)
            for ref in self._shard_refs
        ])
        allhits = [h for p in parts for h in p]
        allhits.sort(key=lambda x: (-x[1], x[0]))
        return allhits[:k]


# ---------------------------------------------------------------------------
# SemDeDup — semantic (embedding-cluster) deduplication
# ---------------------------------------------------------------------------


def greedy_centroid_dedup(unit: np.ndarray, eps: float,
                          chunk: int = 8192) -> np.ndarray:
    """Exact greedy keep-first over unit rows ALREADY in priority order:
    row i survives iff no earlier SURVIVING row has cosine > ``eps`` with
    it.  Vectorized in chunks — each chunk scores against the kept set
    with one matmul plus its own pairwise matrix, and the sequential walk
    only touches rows still alive (dup-heavy clusters converge in a few
    kept rows).  O(m·kept) FLOPs, O(chunk²) peak memory."""
    m = len(unit)
    keep = np.zeros(m, dtype=bool)
    kept: list[int] = []
    for s in range(0, m, chunk):
        blk = unit[s:s + chunk]
        if kept:
            alive = (blk @ unit[kept].T).max(axis=1) <= eps
        else:
            alive = np.ones(len(blk), dtype=bool)
        inner = blk @ blk.T
        for j in range(len(blk)):
            if not alive[j]:
                continue
            keep[s + j] = True
            kept.append(s + j)
            alive &= ~(inner[j] > eps)   # kills j too (self-sim 1 > eps)
    return keep


def _train_sample(ds: "ray.data.Dataset", emb_col: str, id_col: str,
                  train_cap: int) -> np.ndarray:
    """Deterministic bounded k-means training set: the ``train_cap``
    vectors with the smallest (splitmix64(id), id) rank.  Each block emits
    its own top-``train_cap`` partial (map_batches), the driver merges the
    tiny partials — the result is independent of block layout and never
    corpus-sized on the driver."""
    from .dedup import _mix64

    def part(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        rank = _mix64(ids.astype(np.uint64))
        if len(ids) > train_cap:
            idx = np.lexsort((ids, rank))[:train_cap]
        else:
            idx = np.arange(len(ids))
        emb = batch[emb_col].take(pa.array(idx, type=pa.int64()))
        return pa.table({
            "rank": pa.array(rank[idx], type=pa.uint64()),
            "id": pa.array(ids[idx], type=pa.int64()),
            "emb": emb,
        })

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        return np.empty((0, 0))
    order = np.lexsort((parts["id"].to_numpy(),
                        parts["rank"].to_numpy()))[:train_cap]
    return _unit(np.array(parts["emb"].to_numpy()[order].tolist(),
                          dtype=np.float64))


def semdedup(ds: "ray.data.Dataset", n_clusters: int = 16, eps: float = 0.95,
             emb_col: str = "embedding", id_col: str = "vec_id",
             seed: int = 42, train_cap: int = 65536, kmeans_iters: int = 10,
             broadcast_limit: int = 2_000_000) -> "ray.data.Dataset":
    """SemDeDup (Abbas et al., "SemDeDup: Data-efficient learning at
    web-scale through semantic deduplication", arXiv:2303.09540): k-means
    over the embeddings, then deduplicate WITHIN each cluster only — the
    pairwise-cosine cost drops from O(n²) to Σ O(|cluster|²) and every
    cluster dedups in its own shuffle-partitioned task.

    Deterministic at any block layout: centroids train on the
    ``train_cap`` smallest-splitmix64-rank vectors via
    :func:`spherical_kmeans`; assignment is argmax cosine (ties → lowest
    centroid index); survivors follow the paper's keep-farthest-from-
    centroid rule — members sort by (cosine-to-centroid asc, id asc) and a
    row survives iff no earlier survivor exceeds ``eps`` cosine
    (:func:`greedy_centroid_dedup`).

    Scale posture mirrors :func:`~spidey_ray.stages.dedup.minhash_dedup`:
    one groupby shuffle on the cluster id, per-cluster drop lists (only
    duplicates leave a cluster task), broadcast survivor filter while the
    drop set is small, streaming anti-join beyond ``broadcast_limit``.
    Skewed giant clusters stay O(m·kept): raise ``n_clusters`` to shrink
    m — the paper runs k≈sqrt(n).

    Returns the surviving rows of ``ds`` with all original columns."""
    import pandas as pd
    import pyarrow.compute as pc

    train = _train_sample(ds, emb_col, id_col, train_cap)
    if len(train) == 0:
        return ds
    centroids = spherical_kmeans(train, n_clusters, seed=seed,
                                 iters=kmeans_iters)
    c_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        mat = _unit(np.array(batch[emb_col].to_pylist(), dtype=np.float64))
        sims = mat @ c.T
        lst = np.argmax(sims, axis=1)
        return pa.table({
            "list_id": pa.array(lst.astype(np.int32)),
            "id": pc.cast(batch[id_col], pa.int64()),
            "cos_c": pa.array(sims[np.arange(len(mat)), lst]),
            "unit": pa.array([r.tolist() for r in mat],
                             type=pa.list_(pa.float64())),
        })

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["id"].to_numpy()
        order = np.lexsort((ids, g["cos_c"].to_numpy()))
        u = np.array(g["unit"].tolist(), dtype=np.float64)[order]
        keep = greedy_centroid_dedup(u, eps)
        return pd.DataFrame({"id": ids[order][~keep].astype(np.int64)})

    drops = exchange(ds.map_batches(assign, batch_format="pyarrow"),
                     "list_id", per_cluster).materialize()

    if drops.count() <= broadcast_limit:
        drop_ids = sorted(
            x for b in drops.iter_batches(batch_format="pyarrow",
                                          batch_size=65536)
            for x in b["id"].to_pylist())
        drop_ref = ray.put(pa.array(drop_ids, type=pa.int64()))

        def filt(t: pa.Table) -> pa.Table:
            d = ray.get(drop_ref)
            return t.filter(pc.invert(pc.is_in(
                pc.cast(t[id_col], pa.int64()), value_set=d)))

        return ds.map_batches(filt, batch_format="pyarrow")

    from .joins import anti_join

    def ren(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t["id"]})

    return anti_join(ds, drops.map_batches(ren, batch_format="pyarrow"),
                     on=id_col)
