"""PageRank (stages/graph.py): integer-exact iterative dataflow.

Both physical plans (broadcast rank vector / Pregel-style join supersteps)
must reproduce the serial numpy mirror bit-for-bit on any block layout —
the whole point of the integer micro-unit formulation.
"""

import numpy as np
import pyarrow as pa
import pytest

from spidey_ray.stages.graph import pagerank, pagerank_reference


def _random_graph(n=60, m=300, seed=7):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    # force some dangling nodes: nodes in the top decile never emit edges
    keep = src < (n - n // 10)
    return src[keep], dst[keep]


def _edges_ds(src, dst, blocks=1):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))
    return ds.repartition(blocks) if blocks > 1 else ds


class TestPagerank:
    N = 60

    def _expected(self, iters=10):
        src, dst = _random_graph(self.N)
        return src, dst, pagerank_reference(src, dst, self.N, iters=iters)

    def test_broadcast_matches_reference(self, ray_session):
        src, dst, exp = self._expected()
        got = pagerank(_edges_ds(src, dst), self.N).to_pandas()
        got = got.sort_values("node").reset_index(drop=True)
        assert got["node"].tolist() == list(range(self.N))
        assert got["rank"].to_numpy().tolist() == exp.tolist()

    def test_join_branch_matches_reference(self, ray_session):
        # 3 supersteps, not 10: each join-branch iteration is two real
        # hash-bucket exchanges + a groupby, whose fixed Ray-shuffle cost
        # dominates at toy scale; 3 steps already cover the full rule
        # (contributions, dangling redistribution, base term) and must be
        # bit-identical to the mirror
        src, dst, exp = self._expected(iters=3)
        got = pagerank(_edges_ds(src, dst, blocks=5), self.N, iters=3,
                       broadcast_limit=0, num_buckets=8).to_pandas()
        got = got.sort_values("node").reset_index(drop=True)
        assert got["rank"].to_numpy().tolist() == exp.tolist()

    def test_layout_independence(self, ray_session):
        src, dst, exp = self._expected()
        for blocks in (1, 3, 11):
            got = (pagerank(_edges_ds(src, dst, blocks=blocks), self.N)
                   .to_pandas().sort_values("node"))
            assert got["rank"].to_numpy().tolist() == exp.tolist()

    def test_dangling_mass_redistributed(self, ray_session):
        # a 2-node graph where node 1 is dangling: without dangling
        # redistribution node 0 would only ever get the base term
        src = np.array([0], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        exp = pagerank_reference(src, dst, 2, iters=3)
        got = (pagerank(_edges_ds(src, dst), 2, iters=3)
               .to_pandas().sort_values("node"))
        assert got["rank"].tolist() == exp.tolist()
        # node 1 receives node 0's full damped share each step → ranks
        # diverge from the uniform start
        assert exp[1] > exp[0]

    def test_total_rank_conserved_up_to_floor_loss(self, ray_session):
        src, dst, exp = self._expected()
        scale = 10 ** 12
        # floor truncation only ever loses micro-units: ≤ 1 per edge +
        # 1 per node (base) + 1 (dangling split) per iteration
        assert exp.sum() <= scale
        assert exp.sum() >= scale - 10 * (len(src) + self.N + 2) * 10

    def test_sink_heavy_node_outranks(self, ray_session):
        # star graph: everyone links to node 0
        n = 10
        src = np.arange(1, n, dtype=np.int64)
        dst = np.zeros(n - 1, dtype=np.int64)
        r = pagerank_reference(src, dst, n)
        assert r[0] > r[1] and all(r[1] == r[i] for i in range(2, n))

    def test_validation(self, ray_session):
        with pytest.raises(ValueError):
            pagerank(_edges_ds(*_random_graph(4, 4)), 0)
        with pytest.raises(ValueError):
            pagerank(_edges_ds(*_random_graph(4, 4)), 4, damping_bp=10000)
        # ids outside [0, n_nodes): a negative one would wrap to the last
        # node; the error names the bad ids
        src = np.array([0, 1, 2, -1], dtype=np.int64)
        dst = np.array([1, 2, 0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match=r"src ids outside .*\[-1\]"):
            pagerank(_edges_ds(src, dst, blocks=2), 3)
        with pytest.raises(ValueError, match=r"dst ids outside .*\[-1, 3\]"):
            pagerank(_edges_ds(dst[:3], np.array([1, -1, 3])), 3)
