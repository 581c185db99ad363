"""Sharded pending frontier (north_rule scale posture: driver memory is
O(round), never O(frontier) or O(crawled)).

One ``HostPartition`` actor per hash-partition of HOSTS holds frontier shard
``i`` (``FrontierShard``: the pending rows) and politeness shard ``i``
(``politeness.HostShard``: per-host clocks and robots).  Both use the
``host_shard_of`` route, so the frontier is explicitly hash-partitioned by
host (north_star) and admission runs inside one actor: the shard's
per-host candidate counts go straight to its own politeness clocks, and
only the admitted prefix (O(round)) reaches the driver.  Each partition:

- keeps per-host row lists and serves politeness admission as "first k rows
  of the host in canonical (depth, url) order" — the same per-host prefix
  the reference's single loop admits,
- cancels blacklisted rows shard-side (regex over its own slice; returns
  the removed url-hashes so the driver can delete them from the seen
  shards — ``cancel_urls``, frontier.py:80-92),
- writes its OWN checkpoint files (pending parquet and host-state JSON; the
  driver records paths, never the rows), and restores from them on resume.
"""

from __future__ import annotations

import os
import re

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .politeness import HostShard, host_shard_of

_FRONTIER_COLS = ["url", "url_hash", "host", "depth", "parent_url", "round_added"]


def _rows_table(rows: list[tuple]) -> pa.Table:
    return pa.table({
        "url": pa.array([r[0] for r in rows], type=pa.string()),
        "url_hash": pa.array([r[1] for r in rows], type=pa.binary()),
        "host": pa.array([r[2] for r in rows], type=pa.string()),
        "depth": pa.array([r[3] for r in rows], type=pa.int64()),
        "parent_url": pa.array([r[4] for r in rows], type=pa.string()),
        "round_added": pa.array([r[5] for r in rows], type=pa.int64()),
    })


def _row_key(r: tuple) -> tuple:
    return (r[3], r[0])                 # canonical (depth, url)


class FrontierShard:
    """Pending rows for this partition's hosts, with BOUNDED resident memory
    (SURVEY §7.5.7: frontier on disk, only the ready set in memory).

    Per host, the canonical-order HEAD stays in a memory list; when a
    host's list exceeds ``mem_rows_per_host`` the sorted TAIL spills to a
    per-host parquet file under ``spill_dir``.  Admission takes the head
    prefix directly while it provably precedes every spilled row
    (``spill_min`` tracks the smallest spilled (depth, url) per host) and
    compacts the host — merge spill back, re-spill the new tail — only
    when the prefix would cross that bound.  Checkpoints STREAM mem + spill
    row groups into the round's parquet without materializing the spill."""

    def __init__(self, blob_path: str | None = None,
                 spill_dir: str | None = None,
                 mem_rows_per_host: int = 200_000):
        self.by_host: dict[str, list[tuple]] = {}
        self.n = 0
        self.spill_dir = spill_dir
        self.cap = max(mem_rows_per_host, 8)
        self.spill_files: dict[str, list[str]] = {}
        self.spill_min: dict[str, tuple] = {}
        self.n_spilled: dict[str, int] = {}
        self._spill_seq = 0
        import uuid as _uuid

        self._nonce = _uuid.uuid4().hex[:8]
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
        if blob_path and os.path.exists(blob_path):
            self._adopt_spill_manifest(blob_path)
            self.add(pq.read_table(blob_path))

    def _adopt_spill_manifest(self, blob_path: str) -> None:
        """Re-adopt a checkpoint's spilled rows WITHOUT reading them: link
        each checkpointed spill file back into this shard's spill_dir (the
        manifest carries per-host counts and min keys, so no file is
        opened).  Without a spill_dir the files are simply read into
        memory."""
        import json as _json
        import shutil as _shutil

        mpath = blob_path + ".spill.json"
        if not os.path.exists(mpath):
            return
        with open(mpath) as f:
            manifest = _json.load(f)
        link_dir = blob_path + ".spill"
        max_seq = -1
        for host, ent in manifest.items():
            paths = []
            for name in ent["files"]:
                src = os.path.join(link_dir, name)
                if self.spill_dir is None:
                    self.add(pq.read_table(src))
                    continue
                # unique adopted name: never collides with this shard's own
                # future spill writes (which must NOT truncate a file an
                # earlier checkpoint still links to)
                ln = os.path.join(self.spill_dir, "adopt-" + name)
                if not os.path.exists(ln):
                    try:
                        os.link(src, ln)
                    except OSError:
                        _shutil.copy2(src, ln)
                paths.append(ln)
                try:
                    max_seq = max(max_seq,
                                  int(name.rsplit("-", 1)[1].split(".")[0]))
                except (IndexError, ValueError):
                    pass
            if self.spill_dir is None:
                continue
            self.spill_files[host] = paths
            self.n_spilled[host] = int(ent["n"])
            self.spill_min[host] = (int(ent["min"][0]), ent["min"][1])
            self.n += int(ent["n"])     # adopted rows bypass add()
        self._spill_seq = max_seq + 1

    # -- spill machinery --------------------------------------------------
    def _maybe_spill(self, host: str) -> None:
        rows = self.by_host.get(host)
        if not self.spill_dir or rows is None or len(rows) <= self.cap:
            return
        rows.sort(key=_row_key)
        keep = self.cap // 2
        tail = rows[keep:]
        del rows[keep:]
        import hashlib as _hl

        tag = _hl.sha1(host.encode()).hexdigest()[:12]
        # the nonce guarantees a resumed shard can never reuse (and thereby
        # truncate) a spill filename whose inode an earlier generation's
        # checkpoint still hard-links
        path = os.path.join(self.spill_dir,
                            f"{tag}-{self._nonce}-{self._spill_seq:06d}.parquet")
        self._spill_seq += 1
        pq.write_table(_rows_table(tail), path)
        self.spill_files.setdefault(host, []).append(path)
        first = _row_key(tail[0])
        cur = self.spill_min.get(host)
        self.spill_min[host] = first if cur is None else min(cur, first)
        self.n_spilled[host] = self.n_spilled.get(host, 0) + len(tail)

    def _compact(self, host: str) -> None:
        files = self.spill_files.pop(host, [])
        if not files:
            return
        rows = self.by_host.setdefault(host, [])
        for f in files:
            t = pq.read_table(f)
            rows.extend(self._table_rows(t))
            os.unlink(f)
        self.spill_min.pop(host, None)
        self.n_spilled.pop(host, None)

    @staticmethod
    def _table_rows(t: pa.Table) -> list[tuple]:
        return list(zip(
            t["url"].to_pylist(), t["url_hash"].to_pylist(),
            t["host"].to_pylist(),
            (int(d) for d in t["depth"].to_pylist()),
            t["parent_url"].to_pylist(),
            (int(r) for r in t["round_added"].to_pylist()),
        ))

    # -- API --------------------------------------------------------------
    def add(self, t: pa.Table) -> int:
        urls = t["url"].to_pylist()
        hashes = t["url_hash"].to_pylist()
        hosts = t["host"].to_pylist()
        depths = t["depth"].to_pylist()
        parents = t["parent_url"].to_pylist()
        rounds = t["round_added"].to_pylist()
        touched = set()
        for u, h, ho, d, p, r in zip(urls, hashes, hosts, depths, parents, rounds):
            self.by_host.setdefault(ho, []).append((u, h, ho, int(d), p, int(r)))
            touched.add(ho)
        self.n += len(urls)
        for ho in touched:
            self._maybe_spill(ho)
        return self.n

    def host_counts(self) -> dict[str, int]:
        out = {}
        for h, rows in self.by_host.items():
            n = len(rows) + self.n_spilled.get(h, 0)
            if n:
                out[h] = n
        for h, ns in self.n_spilled.items():
            if h not in out and ns:
                out[h] = ns
        return out

    def admit(self, n_admit: dict[str, int]) -> pa.Table:
        """Remove and return, per host, the first ``n_admit[host]`` pending
        rows in canonical (depth, url) order — the admitted prefix the
        politeness clock granted this round."""
        out: list[tuple] = []
        for host, k in n_admit.items():
            if k <= 0:
                continue
            rows = self.by_host.get(host)
            if rows:
                rows.sort(key=_row_key)
            smin = self.spill_min.get(host)
            if smin is not None:
                # the memory head is only admissible while it sorts before
                # every spilled row; if the granted prefix would reach the
                # spill boundary, merge the spill back first
                rows = self.by_host.get(host) or []
                safe = 0
                while safe < len(rows) and safe < k and _row_key(rows[safe]) < smin:
                    safe += 1
                if safe < k:
                    self._compact(host)
                    rows = self.by_host.get(host)
                    if rows:
                        rows.sort(key=_row_key)
            rows = self.by_host.get(host)
            if not rows:
                continue
            take, keep = rows[:k], rows[k:]
            out.extend(take)
            self.n -= len(take)
            if keep:
                self.by_host[host] = keep
            else:
                del self.by_host[host]
            self._maybe_spill(host)
        return _rows_table(out)

    def cancel(self, patterns: list[str]) -> list[bytes]:
        """Drop rows whose url matches any pattern; return their hashes so
        the driver can delete them from the seen set (frontier.py:85-88).

        Memory stays O(one spill file): each spilled file is filtered
        through Arrow and rewritten under a FRESH name (never modified in
        place — a checkpoint may still hard-link the old inode) instead of
        compacting every spilled host into the heap at once, which would
        transiently resident the entire pending frontier."""
        rx = re.compile("|".join(f"(?:{p})" for p in patterns))
        removed: list[bytes] = []
        for host in list(self.by_host):
            rows = self.by_host[host]
            keep = []
            for r in rows:
                if rx.match(r[0]):
                    removed.append(r[1])
                else:
                    keep.append(r)
            if keep:
                self.by_host[host] = keep
            else:
                del self.by_host[host]
        for host in list(self.spill_files):
            newfiles: list[str] = []
            n_sp = 0
            smin: tuple | None = None
            for f in self.spill_files[host]:
                t = pq.read_table(f)
                urls = t["url"].to_pylist()
                mask = [rx.match(u) is None for u in urls]
                if not all(mask):
                    removed.extend(
                        h for u, h in zip(urls, t["url_hash"].to_pylist())
                        if rx.match(u))
                    t = t.filter(pa.array(mask))
                    os.unlink(f)
                    if len(t) == 0:
                        continue
                    f = os.path.join(
                        self.spill_dir,
                        f"cancel-{self._nonce}-{self._spill_seq:06d}.parquet")
                    self._spill_seq += 1
                    pq.write_table(t, f)
                newfiles.append(f)
                n_sp += len(t)
                fmin = min(zip((int(d) for d in t["depth"].to_pylist()),
                               t["url"].to_pylist()))
                smin = fmin if smin is None else min(smin, fmin)
            if newfiles:
                self.spill_files[host] = newfiles
                self.n_spilled[host] = n_sp
                self.spill_min[host] = smin
            else:
                self.spill_files.pop(host, None)
                self.n_spilled.pop(host, None)
                self.spill_min.pop(host, None)
        self.n -= len(removed)
        for host in list(self.by_host):
            self._maybe_spill(host)
        return removed

    def count(self) -> int:
        return self.n

    def dump(self) -> pa.Table:
        """Full pending table (result-time / small runs: loads spill)."""
        tabs = [_rows_table([r for rows in self.by_host.values()
                             for r in rows])]
        for files in self.spill_files.values():
            for f in files:
                tabs.append(pq.read_table(f))
        return pa.concat_tables(tabs)

    def checkpoint_pending(self, path: str) -> int:
        """Write mem rows to ``path`` and HARD-LINK the immutable spill
        files into ``path + '.spill/'`` with a JSON manifest — checkpoint
        I/O is O(mem rows + #spill files), not O(pending frontier).
        (Round-2 verdict: the old checkpoint re-read and re-wrote every
        spill file every round — O(frontier) write amplification × rounds.)
        Spill files are never modified in place (compaction unlinks and new
        spills get fresh names), so a link IS a durable snapshot; cross-
        device setups fall back to a copy."""
        import json as _json
        import shutil as _shutil

        mem = _rows_table([r for rows in self.by_host.values() for r in rows])
        pq.write_table(mem, path)
        manifest: dict[str, dict] = {}
        link_dir = path + ".spill"
        for host, files in self.spill_files.items():
            if not files:
                continue
            os.makedirs(link_dir, exist_ok=True)
            names = []
            for f in files:
                ln = os.path.join(link_dir, os.path.basename(f))
                if not os.path.exists(ln):
                    try:
                        os.link(f, ln)
                    except OSError:
                        _shutil.copy2(f, ln)
                names.append(os.path.basename(f))
            smin = self.spill_min[host]
            manifest[host] = {"files": names, "n": self.n_spilled[host],
                              "min": [smin[0], smin[1]]}
        with open(path + ".spill.json", "w") as f:
            _json.dump(manifest, f)
        return self.n


@ray.remote(num_cpus=0.01)
class HostPartition(FrontierShard, HostShard):
    """Host partition ``i``: frontier shard ``i`` and politeness shard ``i``
    in one actor process (both own the hosts ``host_shard_of`` routes to
    ``i``).  ``fetch_spec`` is the (module, factory, kwargs) of the robots
    fetcher."""

    def __init__(self, settings, fetch_spec: tuple,
                 pending_path: str | None = None,
                 hosts_path: str | None = None,
                 spill_dir: str | None = None,
                 mem_rows_per_host: int = 200_000):
        FrontierShard.__init__(self, pending_path, spill_dir,
                               mem_rows_per_host)
        HostShard.__init__(self, settings, *fetch_spec,
                           snapshot_path=hosts_path)

    def admit_with(self, round_k: int) -> tuple[pa.Table, dict]:
        """Full admission step for this partition: per-host pending counts
        go to this actor's own politeness clocks, and only the admitted
        prefix (O(round)) plus a 3-field telemetry dict reach the driver —
        never the O(#hosts) count map."""
        counts = self.host_counts()
        stats = {"rows_in": int(sum(counts.values())),
                 "hot_host": "", "hot_rows": 0}
        if not counts:
            return _rows_table([]), stats
        hh = max(counts, key=lambda h: (counts[h], h))
        stats["hot_host"], stats["hot_rows"] = hh, int(counts[hh])
        return self.admit(self.grant(counts, round_k)), stats

    def checkpoint(self, pending_path: str, hosts_path: str) -> int:
        self.checkpoint_hosts(hosts_path)
        return self.checkpoint_pending(pending_path)


def start_host_partitions(n_shards: int, settings, fetch_spec: tuple,
                          spill_dir: str | None, mem_rows_per_host: int,
                          round_dir: str | None = None) -> list:
    """Start the host-partition pool; with ``round_dir`` (a complete round
    of a checkpoint) each partition restores its own pending rows and host
    states."""
    return [HostPartition.remote(
        settings, fetch_spec,
        pending_path=(os.path.join(round_dir, f"pending_shard{i}.parquet")
                      if round_dir else None),
        hosts_path=(os.path.join(round_dir, f"host_shard{i}.json")
                    if round_dir else None),
        spill_dir=os.path.join(spill_dir, f"shard{i}") if spill_dir else None,
        mem_rows_per_host=mem_rows_per_host)
        for i in range(n_shards)]


class ShardedFrontier:
    """Driver facade over the host-partition pool. One RPC per shard per
    step; only admitted/added rows (O(round)) ever cross the driver
    boundary."""

    def __init__(self, shards: list):
        self.shards = shards
        self.n_shards = len(shards)

    def _by_shard(self, by_host: dict) -> list[dict]:
        """Split a ``{host: value}`` map by the partition of each host."""
        parts: list[dict] = [{} for _ in self.shards]
        for host, v in by_host.items():
            parts[host_shard_of(host, self.n_shards)][host] = v
        return parts

    def count_urls(self, counts: dict[str, int]) -> list:
        """Submit each partition's share of the per-host url counts and
        return the refs unwaited: actor task order applies them before any
        later call to the same partition."""
        return [s.count_urls.remote(part)
                for s, part in zip(self.shards, self._by_shard(counts))
                if part]

    def filter_links(self, links_by_host: dict[str, list[tuple[str, str]]],
                     blacklist_patterns: list[str]) -> dict[str, dict]:
        """Robots-gate each host's links in its own partition (see
        ``HostShard.filter_links``); returns all per-host results."""
        outs = ray.get([
            s.filter_links.remote(part, blacklist_patterns)
            for s, part in zip(self.shards, self._by_shard(links_by_host))
            if part])
        return {host: r for out in outs for host, r in out.items()}

    def add_df(self, df: pd.DataFrame) -> None:
        if not len(df):
            return
        # one sha1 per UNIQUE host, not per row (hosts ≪ rows)
        shard_of = {h: host_shard_of(h, self.n_shards)
                    for h in df["host"].unique()}
        shard_idx = df["host"].map(shard_of).to_numpy()
        refs = []
        for s in range(self.n_shards):
            part = df[shard_idx == s]
            if len(part):
                refs.append(self.shards[s].add.remote(
                    pa.Table.from_pandas(part[_FRONTIER_COLS],
                                         preserve_index=False)))
        ray.get(refs)

    def admit_with(self, round_k: int) -> tuple[pd.DataFrame, list[dict]]:
        """Shard-parallel admission (see HostPartition.admit_with): returns
        (admitted rows, per-shard telemetry)."""
        parts = ray.get([s.admit_with.remote(round_k) for s in self.shards])
        tabs = [t for t, _ in parts if len(t)] or [_rows_table([])]
        return pa.concat_tables(tabs).to_pandas(), [st for _, st in parts]

    def cancel(self, patterns: list[str]) -> list[bytes]:
        outs = ray.get([s.cancel.remote(patterns) for s in self.shards])
        return [h for out in outs for h in out]

    def total(self) -> int:
        return sum(ray.get([s.count.remote() for s in self.shards]))

    def dump(self) -> pd.DataFrame:
        tabs = ray.get([s.dump.remote() for s in self.shards])
        return pa.concat_tables(tabs).to_pandas()

    def checkpoint_refs(self, round_dir: str) -> list:
        """Submit every partition's checkpoint task (pending rows and host
        states) and return the refs — the caller may wait later (actor task
        order already guarantees the snapshot precedes any subsequently
        submitted mutation)."""
        return [s.checkpoint.remote(
                    os.path.join(round_dir, f"pending_shard{i}.parquet"),
                    os.path.join(round_dir, f"host_shard{i}.json"))
                for i, s in enumerate(self.shards)]
