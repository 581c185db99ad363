"""The Ray-Data crawl engine: round-based BFS frontier expansion.

``CrawlEngine._run_round`` runs one round (SURVEY.md §7.2.7, north_rule) as
phase methods that fill one record, ``_Round``; ``timings`` keys in brackets:

1. ``_admit`` [admit] — pending frontier rows in canonical (depth, url)
   order through the per-host politeness clocks, inside each host-partition
   actor (all of a host's traffic goes through its one partition —
   SURVEY.md §4).  Only the admitted rows reach the driver.
2. ``_number_fetches``, ``_prefetch_footprints``, ``_fetch_parse``
   [fetch_parse_exec, fetch_parse] — the round's fetch-log delta, then ONE
   fused stage (stages/round_stage.py): fetch + span parse + tokenize +
   stable simhash + token-count partials + document side-writes + outlink
   checks over zero-copy Arrow blocks.  Heavy columns never reach the
   driver; compact records, token partials and candidate links do.
3. ``_gates`` [gates] — the sequential state machine
   (crawl_logic.apply_gates) over the compact records in canonical order:
   query traps, low-value, parent/previous-page similarity, blacklist.
4. ``_token_counts`` [token_counts] — the token-count partial, and the
   gate-suppressed pages as the documents-table exclusion list.
5. ``_link_check`` [link_check] — candidate outlinks minus those of
   gate-suppressed pages; trap links become cancelling patterns.
6. ``_robots`` [robots] — one batched ``filter_links`` call per host
   partition: robots fetch-on-first-sighting (charging the politeness
   clock, scraper.py:68), sitemap ingestion, can_fetch gate.  Hosts known
   to be rule-free are bypassed on the driver.
7. ``_add_rows`` [additions] — batched ``seen_or_add`` on the URL
   shards in canonical (url, parent) order; first-seen-wins
   (frontier.py:60-66).
8. ``_boundary`` [boundary] — blacklist growth and the shard-side cancel.

Admission also ends the crawl: a round whose partitions hold no pending
row returns no record and writes nothing.  ``run`` hands each record to
``_checkpoint`` [checkpoint]: the partitions write their own blobs, the
driver the fetched delta and token partials, and last one
``manifest.json`` (layout, options, settings, gate state, blacklist,
excluded documents, lineage row with the round's own phase seconds) that
marks the round complete; ``CrawlEngine.resume`` restarts from the last
complete one (north_rule resumability).

Every phase works on ``pa.Table``s: the driver holds O(round) Arrow
tables (admitted rows, stage output, candidates, additions), orders them
with stable ``pyarrow.compute`` sorts and ships them to the partitions as
Arrow IPC; pandas appears only in ``EngineResult``'s eager accessors.

Scale posture (10^10-frontier): driver memory is O(round).  The crawl
state lives in one actor per partition index (state/partition.py),
``max(n_seen_shards, n_host_shards)`` actors in all.  Partition ``i``
holds host partition ``i`` (state/frontier.HostPartition, hash-partitioned
by host) when ``i < n_host_shards``: one shard of the pending frontier and
the politeness state of the same hosts, so admission runs inside one actor
and only the round's admitted window crosses the driver.  It holds URL
shard ``i`` (state/cuckoo.UrlShard, partitioned by the seen key) when
``i < n_seen_shards``: one cuckoo seen shard and the gate footprints of
the same URLs; the driver batch-prefetches exactly the round's parent +
previous-page footprints (parents are always fetched in earlier rounds, so
the needed keys are known before the gate loop).  The crawled history
lives only in the per-round fetched/documents logs on disk (retained in
driver memory solely for checkpoint-less test runs).  Every actor
checkpoints its own blobs — nothing corpus-sized round-trips through the
driver — and each round records the checkpoint layout version and the
engine's options, which ``resume`` checks and reuses.  Blacklist growth is round-synchronized
(SURVEY.md §7.5.3).  Tiny rounds run the same stage function inline on the
driver — no per-execution overhead, identical semantics.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from .. import io  # noqa: F401  (the engine's DataContext settings)
from ..functions import urltools
from ..sources import synthetic_web as sw
from ..state.cuckoo import ShardedFootprints, ShardedSeen, key64
from ..state.frontier import ShardedFrontier
from ..state.partition import start_partitions
from ..state.politeness import CrawlSettings
from ..stages.round_stage import round_process_batch
from . import crawl_logic
from .crawl_logic import BlacklistState, GateState, NewPattern


@ray.remote(num_cpus=1)
def _round_stage_task(tbl: pa.Table, kwargs: dict) -> pa.Table:
    """One crawl-round block: fetch+parse+token partials+doc side-writes
    (stages/round_stage.py).  ``kwargs`` arrives as an auto-dereferenced
    ``ray.put`` ref — shipped once per round, not once per block."""
    return round_process_batch(tbl, **kwargs)

# The round's fetch-log delta, written as fetched_delta.parquet.
FETCHED = pa.schema([
    ("url", pa.string()), ("url_hash", pa.binary()), ("host", pa.string()),
    ("depth", pa.int64()), ("parent_url", pa.string()),
    ("round_fetched", pa.int64()), ("fetch_seq", pa.int64())])
# The compact record columns the gates read, in PageRecord's field order.
REC_FIELDS = ["url", "final_url", "status", "host", "depth", "parent_url",
              "empty", "tag_count", "is_sitemap", "n_tokens", "simhash",
              "title"]
# A candidate outlink's columns, as _robots reads them.
CAND_COLS = ["sorted_url", "orig_link", "norm_url", "url_hash", "host",
             "depth", "parent_url"]

# Version of the checkpoint's file layout, written to every round's
# manifest.  Version 2 routes footprints by the seen key; version 3 writes
# them as numpy pickles; version 4 writes one manifest per round.  Resume
# refuses any other version, whose state would restore into the wrong
# shards or not at all.
CHECKPOINT_LAYOUT = 4
MANIFEST = "manifest.json"

# CrawlEngine's options and their defaults.  Every round's manifest
# records the values the engine ran with, and ``resume`` starts from them.
# ``fetch_kwargs=None`` means the web config's own fields.
OPTIONS = dict(
    n_seen_shards=4,
    n_host_shards=2,
    fetch_concurrency=2,
    fetch_batch_size=16,
    seen_buckets=1 << 14,
    inline_threshold=128,
    fetch_module="spidey_ray.sources.synthetic_web",
    fetch_name="make_fetch_fn",
    fetch_kwargs=None,
    frontier_mem_rows_per_host=200_000,
    ckpt_compact_every=16,
)


_NO_TOKENS = pa.table({"token": pa.array([], type=pa.string()),
                       "n": pa.array([], type=pa.int64())})


@dataclass
class _Round:
    """One crawl round's value: ``_run_round``'s phases fill it in turn,
    and ``_checkpoint`` writes it.  The defaults are those of a round that
    admits nothing."""

    k: int
    rows_in_per_shard: list[int]       # pending rows of each host partition
    hot_host: str                      # the round's hottest host, "" if none
    hot_host_rows: int
    fetched: pa.Table | None = None    # fetch-log delta (_number_fetches)
    stage_blocks: int = 0
    stage_max_block: int = 0
    content_bytes: int = 0             # of the fetched pages
    rows_out: int = 0                  # pending rows added for round k + 1
    token_partial: pa.Table = field(default_factory=lambda: _NO_TOKENS)
    excluded_docs: list[str] = field(default_factory=list)
    new_patterns: list[NewPattern] = field(default_factory=list)
    host_count_inc: dict[str, int] = field(default_factory=dict)  # count_urls
    phase_s: dict[str, float] = field(default_factory=dict)  # admit..boundary

    def lineage(self) -> dict:
        """The round's lineage row, kept in its manifest."""
        return dict(
            round=self.k, rows_in=sum(self.rows_in_per_shard),
            urls_fetched=len(self.fetched), rows_out=self.rows_out,
            bytes=self.content_bytes,
            rows_in_per_shard=self.rows_in_per_shard,
            hot_host=self.hot_host, hot_host_rows=self.hot_host_rows,
            stage_blocks=self.stage_blocks,
            stage_max_block=self.stage_max_block,
            phase_s=self.phase_s)


def _quiet_data_context():
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    try:
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass


class EngineResult:
    """Crawl result handle — construction is O(1) in corpus size.

    ``run()`` must be able to return even when the fetch history is
    10^10 rows, so nothing corpus-sized is assembled here: the fetch log,
    frontier frame, token counts and exclusion set are LAZY cached
    properties that materialize on first access (a test / small-run
    convenience).  Production consumers use :meth:`fetch_log_dataset`,
    :meth:`documents_dataset` and :meth:`top_tokens` (distributed over the
    checkpointed per-round logs; only k rows reach the driver) and never
    touch the eager properties."""

    def __init__(self, *, gate: GateState, blacklist: BlacklistState,
                 host_shards: list,
                 longest: list[tuple[int, str]], rounds: int,
                 ckpt_dir: str | None,
                 frontier_pool: "ShardedFrontier",
                 fetched_tables: list[pa.Table] | None = None,
                 token_part_refs: list | None = None):
        self.gate = gate
        self.blacklist = blacklist
        self._host_shards = host_shards
        self._host_snap_cache: dict[str, dict] | None = None
        self.longest = longest
        self.rounds = rounds
        self.documents_path = (os.path.join(ckpt_dir, "documents")
                               if ckpt_dir else None)
        self._ckpt_dir = ckpt_dir
        self._frontier_pool = frontier_pool
        self._fetched_tables = fetched_tables or []
        self._token_part_refs = token_part_refs
        self._fetched_cache: pd.DataFrame | None = None
        self._frontier_cache: pd.DataFrame | None = None
        self._token_cache: dict[str, int] | None = None
        self._excluded_cache: set[str] | None = None

    # ---- lazy plumbing ------------------------------------------------
    def _round_files(self, name: str) -> list[str]:
        if not self._ckpt_dir:
            return []
        return [os.path.join(rd, name)
                for rd in _complete_rounds(self._ckpt_dir)]

    def _fetched(self) -> pd.DataFrame:
        if self._fetched_cache is None:
            # full-width read is intentional: every column feeds the
            # `frontier` property's fetched+pending concat
            tabs = self._fetched_tables or [
                pq.read_table(f, schema=FETCHED)
                for f in self._round_files("fetched_delta.parquet")]
            self._fetched_cache = pa.concat_tables(
                [FETCHED.empty_table(), *tabs]).to_pandas().sort_values(
                    "fetch_seq", kind="mergesort")
        return self._fetched_cache

    # ---- eager accessors (test / small-run only) ----------------------
    @property
    def fetch_log(self) -> list[str]:
        """EAGER — the full fetch history as a driver list."""
        return list(self._fetched()["url"])

    @property
    def frontier(self) -> pd.DataFrame:
        """EAGER — fetched + pending rows in one driver frame."""
        if self._frontier_cache is None:
            pending_df = self._frontier_pool.dump()
            if len(pending_df):
                pending_df["url_hash"] = pending_df["url_hash"].map(bytes)
            self._frontier_cache = pd.concat(
                [self._fetched().assign(status="fetched"),
                 pending_df.assign(status="pending", fetch_seq=-1)],
                ignore_index=True)
        return self._frontier_cache

    @property
    def seen_hashes(self) -> set[bytes]:
        # cancelled rows were dropped and their hashes deleted from the
        # cuckoo shards, so everything still present IS the seen set
        return set(self.frontier["url_hash"])

    @property
    def token_counts(self) -> dict[str, int]:
        """EAGER, TEST/SMALL-RUN ONLY — the full O(vocabulary) token-count
        dict, merged on the driver from the per-round partials (checkpoint
        logs, or the object-store refs of a checkpoint-less run).
        Production consumers use :meth:`top_tokens` (distributed)."""
        if self._token_cache is None:
            if self._token_part_refs is not None:
                tabs = ray.get(list(self._token_part_refs))
            else:
                tabs = [pq.read_table(f)
                        for f in self._round_files("token_partials.parquet")]
            acc: dict[str, int] = {}
            for td in tabs:
                for tok, n in zip(td["token"].to_pylist(),
                                  td["n"].to_pylist()):
                    acc[tok] = acc.get(tok, 0) + int(n)
            self._token_cache = acc
        return self._token_cache

    @property
    def excluded_doc_ids(self) -> set[str]:
        if self._excluded_cache is None:
            self._excluded_cache = (_excluded_doc_ids(self._ckpt_dir)
                                    if self._ckpt_dir else set())
        return self._excluded_cache

    # ---- scale accessors ----------------------------------------------
    def fetch_log_dataset(
            self, columns: list[str] | None = None,
    ) -> "ray.data.Dataset | None":
        """Streaming form of :attr:`fetch_log`: the checkpointed per-round
        fetched_delta logs as a Dataset (ordered by fetch_seq within and
        across files); nothing materializes on the driver.  Pass ``columns``
        to prune the scan to what the consumer reads (e.g. ``["url",
        "fetch_seq"]`` for a plain ordered log)."""
        files = self._round_files("fetched_delta.parquet")
        if not files:
            return None
        return ray.data.read_parquet(files, columns=columns)

    @property
    def host_snapshots(self) -> dict[str, dict]:
        """EAGER — full per-host state (incl. robots bodies) gathered from
        the shards on first access; O(#hosts) driver memory, test/report
        convenience only."""
        if self._host_snap_cache is None:
            snaps: dict[str, dict] = {}
            for snap in ray.get([s.snapshot.remote()
                                 for s in self._host_shards]):
                snaps.update(snap)
            self._host_snap_cache = snaps
        return self._host_snap_cache

    def host_counts(self) -> dict[str, int]:
        return {
            h: s["n_urls"] for h, s in self.host_snapshots.items()
            if s["robots_processed"]
        }

    def top_tokens(self, k: int = 50) -> list[tuple[str, int]]:
        """Top-k tokens by (count desc, token asc) — A5 semantics.

        Always a DISTRIBUTED fat-bucket aggregation over the per-round
        partials (checkpoint logs, or object-store refs for
        checkpoint-less runs): tokens hash into 256 buckets, each bucket
        sums and keeps its own top-k, and the driver merges 256·k
        candidate rows — never the vocabulary (round-2 verdict: the
        O(web-vocabulary) driver accumulator; round-4 verdict: the
        checkpoint-less dict fallback this path replaces)."""
        if self._token_part_refs is not None:
            if not self._token_part_refs:
                return []
            src = ray.data.from_arrow_refs(list(self._token_part_refs))
        else:
            files = self._round_files("token_partials.parquet")
            if not files:
                return []
            src = ray.data.read_parquet(files)

        def bucket(t: pa.Table) -> pa.Table:
            h = pd.util.hash_pandas_object(
                t["token"].to_pandas(), index=False,
                hash_key="spidey-tok-00000", categorize=False)
            return t.append_column(
                "_b", pa.array((h % 256).astype(np.int32).to_numpy()))

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            agg = g.groupby("token", as_index=False)["n"].sum()
            return agg.sort_values(["n", "token"], ascending=[False, True],
                                   kind="mergesort").head(k)

        # the bucket map is materialized before the exchange: in one plan
        # Ray 2.49 reserves a CPU for each operator, which leaves the map
        # side one task at a time (pipelines/filter_index.py)
        top = (
            src
            .map_batches(bucket, batch_format="pyarrow")
            .materialize()
            .groupby("_b")
            .map_groups(per_bucket, batch_format="pandas")
            .to_pandas()        # ≤ 256·k rows
        )
        top = top.sort_values(["n", "token"], ascending=[False, True],
                              kind="mergesort").head(k)
        return [(t, int(n)) for t, n in zip(top["token"], top["n"])]

    def documents(self) -> pa.Table | None:
        """TEST/SMALL-RUN ONLY — eager driver-side concat of the documents
        table (used by the equality tests).  Production consumers stream
        :meth:`documents_dataset` instead; this method materializes the
        whole corpus on the driver and must not be used at scale."""
        if self.documents_path is None or not os.path.exists(self.documents_path):
            return None
        drop = _drop_excluded(self.excluded_doc_ids)
        parts = []
        for rd in sorted(os.listdir(self.documents_path)):
            d = os.path.join(self.documents_path, rd)
            for f in sorted(os.listdir(d)):
                if f.endswith(".parquet"):
                    t = pq.read_table(os.path.join(d, f))
                    parts.append(drop(t) if drop else t)
        return pa.concat_tables(parts) if parts else None

    def documents_dataset(self) -> "ray.data.Dataset | None":
        """Streaming form of :meth:`documents` (:func:`read_documents`) —
        the downstream filter/indexer consumes this without ever
        materializing the corpus on the driver."""
        return read_documents(self._ckpt_dir) if self._ckpt_dir else None


class CrawlEngine:
    def __init__(self, web_cfg: sw.WebConfig,
                 settings: CrawlSettings | None = None,
                 ckpt_dir: str | None = None, **options):
        """A fresh crawl from the web config's seeds; ``options`` are the
        names of :data:`OPTIONS`."""
        self._build(web_cfg, settings, ckpt_dir, options, round_dirs=[])
        self._seed()

    def _build(self, web_cfg: sw.WebConfig, settings: CrawlSettings | None,
               ckpt_dir: str | None, options: dict,
               round_dirs: list[str]) -> None:
        """The one constructor path of ``__init__`` and ``resume``: set the
        options, restore the driver state from the last of ``round_dirs``
        (the complete rounds of ``ckpt_dir``, oldest first; none for a
        fresh crawl) and start both state pools from them."""
        unknown = sorted(set(options) - set(OPTIONS))
        if unknown:
            raise TypeError(f"unknown CrawlEngine options: {unknown}")
        o = self.options = {**OPTIONS, **options}
        self.web_cfg = web_cfg
        self.settings = settings or CrawlSettings()
        self.ckpt_dir = ckpt_dir
        self.n_seen_shards = o["n_seen_shards"]
        self.n_host_shards = o["n_host_shards"]
        self.fetch_concurrency = o["fetch_concurrency"]
        self.fetch_batch_size = o["fetch_batch_size"]
        self.inline_threshold = o["inline_threshold"]
        self.ckpt_compact_every = max(1, o["ckpt_compact_every"])
        # pluggable fetcher (module, factory, kwargs): synthetic by default;
        # a REAL fetcher (sources/http_fetch.py) is non-idempotent, so the
        # fused stage runs with max_retries=0 when one is configured
        self.fetch_module = o["fetch_module"]
        self.fetch_name = o["fetch_name"]
        self.fetch_kwargs = (o["fetch_kwargs"] if o["fetch_kwargs"] is not None
                             else asdict(web_cfg))
        self._synthetic_fetch = (
            self.fetch_module == "spidey_ray.sources.synthetic_web")

        self._pattern = self.settings.netloc_pattern()
        import uuid as _uuid

        # (nonce, version) keys the workers' compiled-blacklist cache: the
        # nonce isolates engine instances sharing one Ray session's workers
        self._blacklist_version = (_uuid.uuid4().hex[:12], 0)
        # token partials: NEVER a driver-side vocabulary dict.  With a
        # ckpt_dir the per-round token_partials.parquet logs are
        # authoritative (EngineResult aggregates them at result time, also
        # after a resume); checkpoint-less runs keep one object-store ref
        # per round instead (driver holds refs, not tokens) — either way
        # top-50 / token_counts are distributed aggregations at result
        # time over the same partial rows.
        self._token_part_refs: list | None = ([] if ckpt_dir is None
                                              else None)
        # robots bypass caches: rebuilt lazily after a resume
        self._host_allow_all: set[str] = set()
        self._host_rules: dict[str, str] = {}   # processed rule-bearing hosts
        self.timings: dict[str, float] = {}
        self._fp_put_refs: list = []
        # full fetch history is retained in driver memory ONLY for
        # checkpoint-less (test-scale) runs; with a ckpt_dir the per-round
        # fetched_delta parquet on disk IS the log (read back at result time)
        self._fetched_tables: list[pa.Table] = []

        self._restore(round_dirs[-1] if round_dirs else None)
        # the crawl state is one actor per partition index; the driver
        # holds O(round) rows, never the frontier or the crawled history.
        # Partition i holds URL shard i (seen and footprint shard i) and
        # host partition i (frontier and politeness shard i, same
        # host_shard_of route, so admission never leaves the partition).
        parts = start_partitions(
            self.n_seen_shards, self.n_host_shards,
            dict(n_buckets=o["seen_buckets"]),
            dict(settings=self.settings,
                 fetch_spec=(self.fetch_module, self.fetch_name,
                             self.fetch_kwargs),
                 spill_dir=(os.path.join(ckpt_dir, ".frontier_spill")
                            if ckpt_dir else None),
                 mem_rows_per_host=o["frontier_mem_rows_per_host"]),
            round_dirs)
        self.seen = ShardedSeen(parts[:self.n_seen_shards])
        self.footprints = ShardedFootprints(parts[:self.n_seen_shards])
        self.host_shards = parts[:self.n_host_shards]
        self.frontier = ShardedFrontier(self.host_shards)
        self._await_actors(parts)

    def _restore(self, rd: str | None) -> None:
        """The driver's own crawl state: fresh, or from round dir ``rd``."""
        self.gate, self.blacklist = GateState(), BlacklistState()
        self.longest: list[tuple[int, str]] = []
        self.fetch_seq = self.start_round = 0
        if not rd:
            return
        self.start_round = int(os.path.basename(rd).split("=")[1]) + 1
        m = _manifest(rd)
        g, b = m["gate"], m["blacklist"]
        self.gate = GateState(
            previouspage=g["previouspage"],
            unique_url_count=g["unique_url_count"],
            query_dict={k: [(int(v[0][0]), int(v[0][1])), int(v[1])]
                        for k, v in g["query_dict"].items()},
        )
        self.fetch_seq = g["fetch_seq"]
        self.longest = [tuple(x) for x in g["longest"]]
        self.blacklist = BlacklistState(
            permanent=dict(b["permanent"]), temp=set(b["temp"]))

    # ------------------------------------------------------------------
    def _await_actors(self, actors: list) -> None:
        """Block until every state actor answers one ping (all gathered in
        one ``ray.get``), so actor start-up is paid here and timed as
        ``timings["engine_init"]`` instead of landing, unattributed, in the
        first round of ``run()``."""
        import time as _time

        t0 = _time.perf_counter()
        ray.get([a.__ray_ready__.remote() for a in actors])
        self._t("engine_init", t0)

    def _is_valid(self, u: str) -> bool:
        return urltools.is_valid(u, self._pattern)

    def _seed(self):
        urls = [urltools.normalize(u) for u in self.web_cfg.seeds()]
        self._add_rows(pa.table({
            "url": pa.array(urls, pa.string()),
            "url_hash": pa.array([urltools.url_hash(u) for u in urls],
                                 pa.binary()),
            "host": pa.array([urltools.url_host(u) for u in urls],
                             pa.string()),
            "depth": pa.array(np.zeros(len(urls), dtype=np.int64)),
            "parent_url": pa.array([""] * len(urls), pa.string())}),
            round_k=0)

    def _add_rows(self, add: pa.Table, round_k: int) -> int:
        """Canonically ordered additions with columns (url, url_hash, host,
        depth, parent_url) → first-seen-wins via the URL shards (also
        within ``add``) → pending frontier rows for ``round_k``."""
        if not add.num_rows:
            return 0
        heads = pc.binary_slice(add["url_hash"], 0, 8).to_pylist()
        keys = np.frombuffer(b"".join(heads), dtype=">u8").astype(np.uint64)
        new = add.filter(pa.array(~self.seen.seen_or_add(keys)))
        if not new.num_rows:
            return 0
        self.frontier.add_df(new.select(
            ["url", "url_hash", "host", "depth", "parent_url"]).append_column(
            "round_added",
            pa.array(np.full(new.num_rows, round_k, dtype=np.int64))))
        return new.num_rows

    # ------------------------------------------------------------------
    def run(self, max_rounds: int | None = None,
            stop_after_round: int | None = None) -> EngineResult:
        """Run rounds from ``start_round`` until the frontier is empty,
        ``max_rounds`` is reached or ``stop_after_round`` is done; a later
        call goes on from the next round.  A lost state actor ends the run
        with a ``RuntimeError`` that names the checkpoint to resume from."""
        import time as _time

        _quiet_data_context()
        limit = max_rounds if max_rounds is not None else self.settings.max_rounds
        round_k = self.start_round
        try:
            while round_k < limit:
                rnd = self._run_round(round_k)
                if rnd is None:         # the frontier is empty
                    break
                if self.ckpt_dir:
                    t0 = _time.perf_counter()
                    self._checkpoint(rnd)
                    self._t("checkpoint", t0)
                round_k = self.start_round = round_k + 1
                if stop_after_round is not None and round_k > stop_after_round:
                    break
            return self._result(round_k)
        except ray.exceptions.RayActorError as e:
            last = _complete_rounds(self.ckpt_dir) if self.ckpt_dir else []
            raise RuntimeError(
                f"a crawl state actor died in round {round_k}; "
                + (f"the last complete checkpoint is {last[-1]}: continue "
                   f"with CrawlEngine.resume({self.ckpt_dir!r}, web_cfg)"
                   if last else "there is no complete checkpoint to resume "
                   "from")) from e

    # ------------------------------------------------------------------
    def _t(self, phase: str, t0: float, rnd: _Round | None = None) -> float:
        """Charge the time since ``t0`` to ``phase``: summed over the crawl
        in ``timings``, and the round's own in ``rnd.phase_s``."""
        import time as _time

        now = _time.perf_counter()
        self.timings[phase] = self.timings.get(phase, 0.0) + (now - t0)
        if rnd is not None:
            rnd.phase_s[phase] = now - t0
        return now

    def _run_round(self, round_k: int) -> _Round | None:
        """One round as a sequence of timed phases (the module docstring
        lists them); returns the round's record for ``_checkpoint``, or
        None when the frontier holds no pending row: the crawl is done."""
        import time as _time

        t = _time.perf_counter()
        rnd, admitted = self._admit(round_k)
        if not sum(rnd.rows_in_per_shard):
            self._t("admit", t)
            return None
        t = self._t("admit", t, rnd)
        admitted = self._number_fetches(rnd, admitted)
        if not len(admitted):
            return rnd
        fp_refs = self._prefetch_footprints(admitted)
        inline = len(admitted) <= self.inline_threshold
        blocks = self._fetch_parse(rnd, admitted, inline)
        if not inline:
            t = self._t("fetch_parse_exec", t, rnd)
        # zero-copy block gather
        ctbl = pa.concat_tables(blocks)
        t = self._t("fetch_parse", t, rnd)
        rec, tokenized, passed = self._gates(rnd, ctbl, fp_refs)
        t = self._t("gates", t, rnd)
        self._token_counts(rnd, ctbl, tokenized, passed)
        t = self._t("token_counts", t, rnd)
        cands = self._link_check(rnd, ctbl, rec)
        t = self._t("link_check", t, rnd)
        # gate-phase counts must land before link-phase robots creation.  No
        # barrier: per-partition actor order serializes them before the
        # filter_links calls below; the refs drain at the checkpoint (or
        # result) purely to surface errors
        self._fp_put_refs.extend(self.frontier.count_urls(rnd.host_count_inc))
        if cands.num_rows:
            add = self._robots(cands)
            t = self._t("robots", t, rnd)
            rnd.rows_out = self._add_rows(add, round_k + 1)
            t = self._t("additions", t, rnd)
        self._boundary(rnd)
        self._t("boundary", t, rnd)
        return rnd

    def _admit(self, round_k: int) -> tuple[_Round, pa.Table]:
        """Politeness admission: each host partition admits from its own
        pending rows through its own politeness clocks; only the admitted
        window (O(round)) and a per-shard 3-field telemetry dict reach the
        driver — never the O(#hosts) count map.  Returns the round's record
        and the admitted rows in canonical (depth, url) order."""
        admitted, shard_stats = self.frontier.admit_with(round_k)
        # skew telemetry: per-shard pending rows + the round's hottest host
        # (north_rule "salted splits for hot domains": the round stage's
        # uniform driver-side slicing already spreads a hot host's admitted
        # rows across all blocks — this records the skew so lineage shows
        # it). Each host lives in exactly one shard, so the global hot host
        # is the max over per-shard hot hosts — exact, not approximate.
        hot = [(s["hot_rows"], s["hot_host"]) for s in shard_stats
               if s["hot_rows"]]
        n, h = max(hot) if hot else (0, "")
        rnd = _Round(round_k, [int(s["rows_in"]) for s in shard_stats],
                     h, int(n))
        # a stable sort; UTF-8 byte order is code-point order
        return rnd, admitted.take(pc.sort_indices(
            admitted, [("depth", "ascending"), ("url", "ascending")]))

    def _number_fetches(self, rnd: _Round, admitted: pa.Table) -> pa.Table:
        """Assign the canonical ``seq`` within the round and the global
        fetch order: ``rnd.fetched`` becomes the round's fetch-log delta
        (driver memory is O(round): the frontier stays sharded, history
        goes to disk).  Returns ``admitted`` with its ``seq`` column."""
        seq = np.arange(len(admitted), dtype=np.int64)
        rnd.fetched = (
            admitted.drop_columns(["round_added"])
            .append_column("round_fetched",
                           pa.array(np.full(len(seq), rnd.k, dtype=np.int64)))
            .append_column("fetch_seq", pa.array(self.fetch_seq + seq))
            .cast(FETCHED))
        if not self.ckpt_dir and len(seq):
            # no checkpoint log to read back later: keep in memory (test runs)
            self._fetched_tables.append(rnd.fetched)
        self.fetch_seq += len(seq)
        return admitted.append_column("seq", pa.array(seq))

    def _prefetch_footprints(self, admitted: pa.Table) -> list:
        """Submit the gates' footprint reads at ADMISSION time: the near-dup
        gates only ever look up the round's PARENT urls + the carried
        previous-page url, and the rec rows mirror the admitted rows 1:1
        (same parent_url column) — so the keys are known BEFORE the fetch
        wave and the KV round-trip overlaps it entirely instead of sitting
        on the serial gate path.  Nothing writes footprints between here
        and the gates (the round stage doesn't touch them), and actor order
        serializes these reads behind last round's puts — semantics
        identical to fetching at gate time."""
        fp_keys = set(admitted["parent_url"].to_pylist()) - {""}
        if self.gate.previouspage:
            fp_keys.add(self.gate.previouspage)
        return (self.footprints.get_many_refs(sorted(fp_keys))
                if fp_keys else [])

    def _fetch_parse(self, rnd: _Round, admitted: pa.Table,
                     inline: bool) -> list[pa.Table]:
        """ONE fused execution per round: fetch + parse + token partials +
        document side-writes + outlink checks (stages/round_stage.py), as
        raw tasks, or ``inline`` on the driver for tiny rounds.  Returns
        the output blocks."""
        in_tbl = admitted.select(["seq", "url", "depth", "parent_url"])
        stage_kwargs = dict(
            web_cfg=asdict(self.web_cfg),
            blacklist_patterns=self.blacklist.patterns(),
            settings=self.settings,
            doc_dir=(os.path.join(self.ckpt_dir, "documents",
                                  f"round={rnd.k:05d}")
                     if self.ckpt_dir else None),
            base_seq=self.fetch_seq - len(admitted),
            host_rules=dict(self._host_rules),
            fetch_spec=(None if self._synthetic_fetch else
                        (self.fetch_module, self.fetch_name,
                         self.fetch_kwargs)),
            blacklist_version=self._blacklist_version,
        )
        if inline:
            rnd.stage_blocks, rnd.stage_max_block = 1, len(admitted)
            return [round_process_batch(in_tbl, **stage_kwargs)]
        # 6× the slot count: fine-grained blocks keep the final wave's
        # straggler tail short (the round barrier makes tails expensive)
        # floor of 64 so low-parallelism runs still get fine-grained
        # blocks (coarse blocks → long straggler tails at the barrier)
        n_blocks = max(1, min(max(self.fetch_concurrency * 4, 64),
                              len(admitted) // self.fetch_batch_size + 1))
        # pre-slice driver-side: Repartition is an all-to-all barrier with
        # seconds of fixed cost; slicing an in-memory Arrow table is free
        step = (len(in_tbl) + n_blocks - 1) // n_blocks
        slices = [in_tbl.slice(i, step) for i in range(0, len(in_tbl), step)]
        rnd.stage_blocks, rnd.stage_max_block = len(slices), step
        # RAW TASKS, deliberately (the one non-Dataset hot stage in the
        # engine): a crawl round is a BOUNDED SYNCHRONOUS barrier map —
        # the block set is fixed up front and the round cannot proceed
        # until every block returns, so none of the Dataset streaming
        # executor's machinery (backpressure, pipelining, spill) can
        # engage; it only adds measured ~0.27 s fixed startup/teardown
        # PER ROUND (vs ~0.03 s for plain tasks on the identical
        # 64-block map), a pure scaling-efficiency tax at high
        # parallelism.  Every corpus-shaped pipeline in this repo
        # remains Dataset-first; the shared kwargs ship once per round
        # via ray.put and tasks run on the same worker pool (the
        # per-worker compile caches keyed by blacklist_version still
        # hit).
        kwargs_ref = ray.put(stage_kwargs)
        task = _round_stage_task
        if not self._synthetic_fetch:
            # a real fetch is non-idempotent (politeness budgets,
            # no-retry semantics, scraper.py:413-417)
            task = task.options(max_retries=0)
        return ray.get([task.remote(s, kwargs_ref) for s in slices])

    def _gates(self, rnd: _Round, ctbl: pa.Table,
               fp_refs: list) -> tuple[pa.Table, set[str], set[str]]:
        """The sequential gates over the round's compact records in
        canonical order.  Fills ``rnd.new_patterns``,
        ``rnd.host_count_inc`` and ``rnd.content_bytes``; returns the
        records, the tokenized urls and the passed urls."""
        rec = ctbl.filter(pc.equal(ctbl["kind"], "rec"))
        rec = rec.take(pc.sort_indices(rec["seq"]))
        rnd.content_bytes = pc.sum(rec["content_len"]).as_py()
        # collect the footprint prefetch submitted at admission time (the
        # refs have been in flight for the whole fetch wave); gate against
        # a round-local dict, write the new footprints back after the
        # loop.  Driver footprint memory is O(round).
        prefetched = self.footprints.collect_many(fp_refs)
        self.gate.page_footprints = dict(prefetched)
        is_blacklisted = self.blacklist.matcher()
        tokenized: set[str] = set()
        passed: set[str] = set()
        for row in zip(*(rec[c].to_pylist() for c in REC_FIELDS)):
            page = crawl_logic.PageRecord(*row)
            d = crawl_logic.apply_gates(
                page, self.gate, is_blacklisted, self._is_valid, self.settings)
            rnd.new_patterns.extend(d.new_patterns)
            if d.tokenized:
                tokenized.add(page.url)
                _update_longest(self.longest, page.n_tokens, page.url)
            if d.passed:
                passed.add(page.url)
            if d.count_host is not None:
                rnd.host_count_inc[d.count_host] = (
                    rnd.host_count_inc.get(d.count_host, 0) + 1)
        new_fp = {u: v for u, v in self.gate.page_footprints.items()
                  if u not in prefetched}
        if new_fp:
            # async: actor-order guarantees read-after-write; refs drained
            # at the next sync point only to surface shard errors
            self._fp_put_refs.extend(self.footprints.put_many(new_fp))
        self.gate.page_footprints = {}
        return rec, tokenized, passed

    def _token_counts(self, rnd: _Round, ctbl: pa.Table,
                      tokenized: set[str], passed: set[str]) -> None:
        """The round's token-count partial (A3) from the packed block rows,
        merged at result time, and its documents exclusions: the stage
        wrote the gate-passed SUPERSET; gate-suppressed pages are recorded
        per round and filtered at read time (the all-rounds union is
        assembled lazily from the ckpt logs, never on the driver)."""
        tok = ctbl.filter(pc.equal(ctbl["kind"], "tok"))
        # Arrow list flatten: zero-copy unpack of the packed block rows
        rnd.token_partial = pa.table({
            "token": pc.list_flatten(tok["tok_tokens"].combine_chunks()),
            "n": pc.list_flatten(tok["tok_counts"].combine_chunks()),
        })
        if self._token_part_refs is not None and rnd.token_partial.num_rows:
            self._token_part_refs.append(ray.put(rnd.token_partial))
        rnd.excluded_docs = sorted(tokenized - passed)

    def _link_check(self, rnd: _Round, ctbl: pa.Table,
                    rec: pa.Table) -> pa.Table:
        """The round's candidate outlinks minus those of gate-suppressed
        pages (``CAND_COLS``, in block order; ``_robots`` sorts them);
        trap links append cancelling patterns to ``rnd.new_patterns`` in
        (seq, link_idx) order."""
        links = ctbl.filter(pc.is_in(ctbl["kind"],
                                     value_set=pa.array(["cand", "trap"])))
        if rnd.excluded_docs:
            suppressed = rec.filter(pc.is_in(
                rec["url"], value_set=pa.array(rnd.excluded_docs)))["seq"]
            links = links.filter(pc.invert(pc.is_in(
                links["seq"], value_set=suppressed.combine_chunks())))
        traps = links.filter(pc.equal(links["kind"], "trap"))
        traps = traps.take(pc.sort_indices(
            traps, [("seq", "ascending"), ("link_idx", "ascending")]))
        for pattern, reason, temporary in zip(
                *(traps[c].to_pylist()
                  for c in ("pattern", "reason", "temporary"))):
            rnd.new_patterns.append(
                NewPattern(pattern, reason, temporary, cancel=True))
        return links.filter(pc.equal(links["kind"], "cand")).select(CAND_COLS)

    def _robots(self, cands: pa.Table) -> pa.Table:
        """The robots gate through the host partitions, in canonical order.
        Returns the robots-approved candidates plus the sitemap urls found
        as (raw_url, parent_url, url, url_hash, host, depth) rows, sorted
        by (raw_url, parent_url) and first-seen-deduplicated by url hash."""
        cands = cands.take(pc.sort_indices(cands, [
            ("sorted_url", "ascending"), ("orig_link", "ascending"),
            ("parent_url", "ascending")]))
        # links to known hosts bypass the shard RPC: rule-free hosts are
        # constant-allow; rule-bearing known hosts were evaluated inside
        # the round stage (their rules shipped as round-start state)
        known = pa.array([*self._host_allow_all, *self._host_rules],
                         pa.string())
        keep = pc.is_in(cands["host"], value_set=known).to_numpy(
            zero_copy_only=False).copy()
        check = np.flatnonzero(~keep)
        # the checked hosts' links, grouped by host in order of first
        # appearance, with their row positions
        links: dict[str, list[tuple[str, str]]] = {}
        at: dict[str, list[int]] = {}
        depth: dict[str, int] = {}
        chk = cands.take(check)
        for i, host, s, o, d in zip(
                check.tolist(),
                *(chk[c].to_pylist()
                  for c in ("host", "sorted_url", "orig_link", "depth"))):
            links.setdefault(host, []).append((s, o))
            at.setdefault(host, []).append(i)
            depth.setdefault(host, d)
        results = (self.frontier.filter_links(links, self.blacklist.patterns())
                   if links else {})
        sm_urls: list[str] = []
        sm_depths: list[int] = []
        for host, idx in at.items():
            r = results[host]
            keep[idx] = r["mask"]
            sm = r["unchecked"] + r["checked"]
            sm_urls += sm
            sm_depths += [depth[host]] * len(sm)
            if r["allow_all"]:
                self._host_allow_all.add(host)
            elif r.get("robots_txt"):
                self._host_rules[host] = r["robots_txt"]
        self._trim_host_caches()
        ok = cands.filter(pa.array(keep))
        add = pa.table({
            "raw_url": ok["sorted_url"], "parent_url": ok["parent_url"],
            "url": ok["norm_url"], "url_hash": ok["url_hash"],
            "host": ok["host"], "depth": ok["depth"].cast(pa.int64())})
        if sm_urls:
            norm = [urltools.normalize(u) for u in sm_urls]
            add = pa.concat_tables([add, pa.table({
                "raw_url": sm_urls, "parent_url": [""] * len(sm_urls),
                "url": norm, "url_hash": [urltools.url_hash(u) for u in norm],
                "host": [urltools.url_host(u) for u in norm],
                "depth": sm_depths}, schema=add.schema)])
        add = add.take(pc.sort_indices(
            add, [("raw_url", "ascending"), ("parent_url", "ascending")]))
        return _first_rows(add, "url_hash")

    def _boundary(self, rnd: _Round) -> None:
        """Round boundary (frontier.py:80-92): the round's new blacklist
        patterns take effect, and cancelling ones drop matching pending
        rows shard-side and delete them from the seen set, so they can be
        re-added (frontier.py:85-88)."""
        cancel_patterns = []
        for p in rnd.new_patterns:
            self.blacklist.add(p.pattern, p.reason, p.temporary)
            if p.cancel:
                cancel_patterns.append(p.pattern)
        if rnd.new_patterns:
            self._blacklist_version = (self._blacklist_version[0],
                                       self._blacklist_version[1] + 1)
        if cancel_patterns:
            cancelled = self.frontier.cancel(cancel_patterns)
            if cancelled:
                self.seen.delete(np.array(
                    [key64(h) for h in cancelled], dtype=np.uint64))

    # robots bypass caches are pure OPTIMIZATION state (the host shards are
    # authoritative): bound them so hosts don't grow driver memory without
    # limit at web scale — an evicted host just pays one extra shard RPC.
    # _host_rules also ships into every round's stage kwargs, so its cap is
    # much tighter (rules are ~KB each).
    _HOST_ALLOW_CAP = 1_000_000
    _HOST_RULES_CAP = 10_000

    def _trim_host_caches(self) -> None:
        while len(self._host_allow_all) > self._HOST_ALLOW_CAP:
            self._host_allow_all.pop()
        while len(self._host_rules) > self._HOST_RULES_CAP:
            # FIFO eviction (dict preserves insertion order)
            self._host_rules.pop(next(iter(self._host_rules)))

    # ------------------------------------------------------------------
    def _checkpoint(self, rnd: _Round) -> None:
        """Round ``rnd``'s checkpoint: every actor-side snapshot task (host
        partitions, seen and footprint halves of the URL shards) is
        SUBMITTED first, then the driver's own Parquet writes run
        concurrently with them and ONE ``ray.get`` barrier lands everything
        before the round's manifest is written, last, as a temporary file
        renamed into place.  A crash before the rename leaves no manifest
        and resume falls back to the previous round (the SIGKILL test's
        contract).

        Actor task order is per submitting caller, so the snapshots are
        serialized before any mutation the next round submits to the same
        actors.  A fully-async variant (file writes on a background
        thread, joined next round) was measured and REJECTED: the
        thread's GIL-bound pandas serialization contends with the
        driver's round-orchestration phases and cost more at 32 CPUs
        than the overlap saved (BASELINE.md round-5 notes).
        """
        fp_refs, self._fp_put_refs = self._fp_put_refs, []
        rd = os.path.join(self.ckpt_dir, f"round={rnd.k:05d}")
        # start empty: no file of a crashed attempt at this round survives
        shutil.rmtree(rd, ignore_errors=True)
        os.makedirs(rd)
        # sharded state checkpoints itself: each host partition and URL
        # shard writes its own blobs under the round dir — the blobs
        # never round-trip through the driver (round-1 verdict #2/#3).
        # KV pools write DELTAS (bytes ∝ the round, not the corpus), with a
        # periodic full blob bounding the restore chain; the frontier
        # checkpoint hard-links its immutable spill files (O(mem + #files))
        full = (rnd.k % self.ckpt_compact_every == 0)
        shard_refs = (
            self.frontier.checkpoint_refs(rd)
            + self.footprints.checkpoint_refs(rd, full=full)
            + self.seen.checkpoint_refs(rd, full=full)
        )

        pq.write_table(rnd.fetched, os.path.join(rd, "fetched_delta.parquet"))
        pq.write_table(rnd.token_partial,
                       os.path.join(rd, "token_partials.parquet"))
        # json.dumps, not json.dump: only the one-shot form runs the C
        # encoder
        manifest = json.dumps({
            "layout": CHECKPOINT_LAYOUT, "options": self.options,
            "settings": asdict(self.settings),
            "gate": {
                "previouspage": self.gate.previouspage,
                "unique_url_count": self.gate.unique_url_count,
                "query_dict": {k: [[v[0][0], v[0][1]], v[1]]
                               for k, v in self.gate.query_dict.items()},
                "fetch_seq": self.fetch_seq,
                "longest": self.longest,
            },
            "blacklist": {"permanent": dict(self.blacklist.permanent),
                          "temp": sorted(self.blacklist.temp)},
            "excluded_docs": rnd.excluded_docs,
            "lineage": rnd.lineage(),
        })
        if fp_refs:   # surface any failed async footprint writes
            ray.get(fp_refs)
        ray.get(shard_refs)
        tmp = os.path.join(rd, MANIFEST + ".tmp")
        with open(tmp, "w") as f:
            f.write(manifest)
        os.replace(tmp, os.path.join(rd, MANIFEST))

    @classmethod
    def resume(cls, ckpt_dir: str, web_cfg: sw.WebConfig,
               settings: CrawlSettings | None = None,
               **options) -> "CrawlEngine":
        """Restart from the last complete round of ``ckpt_dir`` (a fresh
        crawl when there is none).  The options and, when ``settings`` is
        None, the crawl settings default to those the checkpoint was
        written with; the shard counts are the checkpoint's own, and a
        conflicting one raises ``ValueError``, as does a checkpoint of
        another layout version."""
        rounds = _complete_rounds(ckpt_dir)
        if rounds:
            rd = rounds[-1]
            saved = _manifest(rd)
        else:
            # layouts up to 3 marked a complete round with _SUCCESS: refuse
            # such a checkpoint, never crawl over it
            old = _complete_rounds(ckpt_dir, "_SUCCESS")
            if not old:
                return cls(web_cfg, settings, ckpt_dir=ckpt_dir, **options)
            rd, saved = old[-1], {"layout": "3 or older"}
        found = saved.get("layout", "none")
        if found != CHECKPOINT_LAYOUT:
            raise ValueError(
                f"checkpoint {rd} has layout version {found}, this engine "
                f"reads version {CHECKPOINT_LAYOUT}; its state would restore "
                f"into the wrong shards, so start the crawl again instead")
        # Shard counts are a property of the CHECKPOINT, not of this call:
        # every shard's state routes by key % N, so refuse a conflicting
        # explicit kwarg instead of silently using both.
        for name in ("n_seen_shards", "n_host_shards"):
            if options.get(name) not in (None, saved["options"][name]):
                raise ValueError(
                    f"{name}={options[name]} conflicts with checkpoint at "
                    f"{rd} ({saved['options'][name]}); omit the kwarg on "
                    f"resume")
        self = cls.__new__(cls)
        self._build(web_cfg, settings or CrawlSettings(**saved["settings"]),
                    ckpt_dir, {**saved["options"], **{
                        k: v for k, v in options.items() if v is not None}},
                    round_dirs=rounds)
        return self

    # ------------------------------------------------------------------
    def _result(self, rounds_done: int) -> EngineResult:
        """O(1) in corpus size: hands the result handle the checkpoint dir,
        the frontier pool and (for checkpoint-less runs) the in-memory
        frames/accumulator — the history itself stays on disk/in shards
        until an eager accessor explicitly asks for it (round-2 verdict:
        run() used to concatenate the full fetch log here, OOMing at 10^10
        even though the crawl itself had succeeded)."""
        if self._fp_put_refs:   # surface any failed async footprint writes
            ray.get(self._fp_put_refs)
            self._fp_put_refs = []
        return EngineResult(
            gate=self.gate,
            blacklist=self.blacklist,
            host_shards=list(self.host_shards),
            longest=self.longest,
            rounds=rounds_done,
            ckpt_dir=self.ckpt_dir,
            frontier_pool=self.frontier,
            fetched_tables=self._fetched_tables,
            token_part_refs=self._token_part_refs,
        )


def _update_longest(longest: list[tuple[int, str]], n: int, url: str) -> None:
    # kept sorted by (-n, url); most rows lose to the current 10th and
    # return without sorting (this ran a list.sort per tokenized URL)
    if len(longest) >= 10:
        wn, wu = longest[-1]
        if n < wn or (n == wn and url >= wu):
            return
    longest.append((n, url))
    longest.sort(key=lambda x: (-x[0], x[1]))
    del longest[10:]


def _first_rows(t: pa.Table, key: str) -> pa.Table:
    """The first row of ``t`` for each value of column ``key``, in the
    order of ``t``."""
    firsts = (t.select([key])
              .append_column("_i", pa.array(np.arange(t.num_rows)))
              .group_by(key, use_threads=False).aggregate([("_i", "min")]))
    return t.take(np.sort(firsts["_i_min"].to_numpy()))


def _complete_rounds(ckpt_dir: str, marker: str = MANIFEST) -> list[str]:
    """The round dirs of ``ckpt_dir`` that hold ``marker``, oldest first."""
    if not os.path.isdir(ckpt_dir):
        return []
    return [os.path.join(ckpt_dir, d) for d in sorted(os.listdir(ckpt_dir))
            if d.startswith("round=")
            and os.path.exists(os.path.join(ckpt_dir, d, marker))]


def _manifest(rd: str) -> dict:
    with open(os.path.join(rd, MANIFEST)) as f:
        return json.load(f)


def _excluded_doc_ids(ckpt_dir: str) -> set[str]:
    """The gate-suppressed pages of every complete round of ``ckpt_dir``."""
    excl: set[str] = set()
    for rd in _complete_rounds(ckpt_dir):
        excl.update(_manifest(rd)["excluded_docs"])
    return excl


def _drop_excluded(excluded: set[str]):
    """The one documents filter: a table → table function that drops the
    ``excluded`` pages, or None when there are none."""
    if not excluded:
        return None
    excl = pa.array(sorted(excluded), type=pa.string())
    return lambda t: t.filter(pc.invert(
        pc.is_in(t["doc_id"], value_set=excl)))


def read_documents(ckpt_dir: str) -> "ray.data.Dataset | None":
    """The documents of crawl checkpoint ``ckpt_dir`` minus the pages the
    gates suppressed (a broadcast anti-filter), or None if it has none."""
    path = os.path.join(ckpt_dir, "documents")
    if not os.path.exists(path):
        return None
    ds = ray.data.read_parquet(path)
    drop = _drop_excluded(_excluded_doc_ids(ckpt_dir))
    return ds.map_batches(drop, batch_format="pyarrow") if drop else ds
