"""Sharded pending frontier (north_rule scale posture: driver memory is
O(round), never O(frontier) or O(crawled)).

``HostPartition`` ``i`` holds frontier shard ``i`` (``FrontierShard``: the
pending rows) and politeness shard ``i`` (``politeness.HostShard``: per-host
clocks and robots), and lives in state partition ``i``
(state/partition.py).  Both use the ``host_shard_of`` route, so the
frontier is explicitly hash-partitioned by host (north_star) and admission
runs inside one actor: the shard's per-host candidate counts go straight to
its own politeness clocks, and only the admitted prefix (O(round)) reaches
the driver.  Rows cross the actor boundary as Arrow IPC stream bytes, never
as pickled tables, which would load ``ray.data`` into the actor; only the
driver facade's ``dump`` converts rows to pandas.  Each partition:

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

import hashlib
import json
import os
import re
import shutil
import uuid
from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .politeness import HostShard, host_shard_of

if TYPE_CHECKING:
    import pandas as pd

_FRONTIER = pa.schema([
    ("url", pa.large_string()), ("url_hash", pa.large_binary()),
    ("host", pa.large_string()), ("depth", pa.int64()),
    ("parent_url", pa.large_string()), ("round_added", pa.int64())])


def _column(vals: tuple, typ: pa.DataType) -> pa.Array:
    """``vals`` as an Arrow array built from raw buffers: ``pa.array`` on
    Python values loads pandas (pyarrow checks for pandas input), which a
    host partition otherwise never needs."""
    if typ == pa.int64():
        buffers = [pa.py_buffer(np.array(vals, dtype=np.int64))]
    else:                   # large_string/large_binary: int64 offsets, bytes
        data = [v.encode() for v in vals] if typ == pa.large_string() else vals
        offsets = np.zeros(len(data) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in data], out=offsets[1:])
        buffers = [pa.py_buffer(offsets), pa.py_buffer(b"".join(data))]
    return pa.Array.from_buffers(typ, len(vals), [None, *buffers])


def _rows_table(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) if rows else [()] * len(_FRONTIER)
    return pa.Table.from_arrays(
        [_column(c, f.type) for c, f in zip(cols, _FRONTIER)], schema=_FRONTIER)


def _read(path: str) -> pa.Table:
    # ParquetFile, not pq.read_table: the dataset reader loads pandas
    return pq.ParquetFile(path).read()


def to_ipc(t: pa.Table) -> bytes:
    """``t`` as Arrow IPC stream bytes, the form frontier rows take
    between the driver and a host partition."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def from_ipc(buf: bytes) -> pa.Table:
    return pa.ipc.open_stream(buf).read_all()


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
        self._nonce = uuid.uuid4().hex[:8]
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
        if blob_path and os.path.exists(blob_path):
            self._adopt_spill_manifest(blob_path)
            self.add(_read(blob_path))

    def _adopt_spill_manifest(self, blob_path: str) -> None:
        """Re-adopt a checkpoint's spilled rows WITHOUT reading them: link
        each checkpointed spill file back into this shard's spill_dir (the
        manifest carries per-host counts and min keys, so no file is
        opened).  Without a spill_dir the files are simply read into
        memory."""
        mpath = blob_path + ".spill.json"
        if not os.path.exists(mpath):
            return
        with open(mpath) as f:
            manifest = json.load(f)
        link_dir = blob_path + ".spill"
        for host, ent in manifest.items():
            paths = []
            for name in ent["files"]:
                src = os.path.join(link_dir, name)
                if self.spill_dir is None:
                    self.add(_read(src))
                    continue
                # unique adopted name: never collides with this shard's own
                # future spill writes (which must NOT truncate a file an
                # earlier checkpoint still links to)
                ln = os.path.join(self.spill_dir, "adopt-" + name)
                if not os.path.exists(ln):
                    try:
                        os.link(src, ln)
                    except OSError:
                        shutil.copy2(src, ln)
                paths.append(ln)
            if self.spill_dir is None:
                continue
            self.spill_files[host] = paths
            self.n_spilled[host] = int(ent["n"])
            self.spill_min[host] = (int(ent["min"][0]), ent["min"][1])
            self.n += int(ent["n"])     # adopted rows bypass add()

    # -- spill machinery --------------------------------------------------
    def _maybe_spill(self, host: str) -> None:
        rows = self.by_host.get(host)
        if not self.spill_dir or rows is None or len(rows) <= self.cap:
            return
        rows.sort(key=_row_key)
        keep = self.cap // 2
        tail = rows[keep:]
        del rows[keep:]
        tag = hashlib.sha1(host.encode()).hexdigest()[:12]
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
            rows.extend(self._table_rows(_read(f)))
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
        touched = set()
        for r in self._table_rows(t):
            self.by_host.setdefault(r[2], []).append(r)
            touched.add(r[2])
        self.n += t.num_rows
        for ho in touched:
            self._maybe_spill(ho)
        return self.n

    def host_counts(self) -> dict[str, int]:
        out = {h: len(rows) for h, rows in self.by_host.items() if rows}
        for h, ns in self.n_spilled.items():
            if ns:
                out[h] = out.get(h, 0) + ns
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

        Memory stays O(one spill file): each spilled file is filtered and
        rewritten under a FRESH name (never modified in place — a
        checkpoint may still hard-link the old inode) instead of compacting
        every spilled host into the heap at once, which would transiently
        resident the entire pending frontier."""
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
                rows = self._table_rows(_read(f))
                keep = [r for r in rows if not rx.match(r[0])]
                if len(keep) < len(rows):
                    removed.extend(r[1] for r in rows if rx.match(r[0]))
                    os.unlink(f)
                    if not keep:
                        continue
                    f = os.path.join(
                        self.spill_dir,
                        f"cancel-{self._nonce}-{self._spill_seq:06d}.parquet")
                    self._spill_seq += 1
                    pq.write_table(_rows_table(keep), f)
                newfiles.append(f)
                n_sp += len(keep)
                fmin = min(map(_row_key, keep))
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

    def dump(self) -> bytes:
        """Full pending table as Arrow IPC bytes (result-time / small runs:
        loads spill)."""
        tabs = [_rows_table([r for rows in self.by_host.values()
                             for r in rows])]
        for files in self.spill_files.values():
            for f in files:
                tabs.append(_read(f))
        return to_ipc(pa.concat_tables(tabs))

    def checkpoint_pending(self, path: str) -> int:
        """Write mem rows to ``path`` and HARD-LINK the immutable spill
        files into ``path + '.spill/'`` with a JSON manifest — checkpoint
        I/O is O(mem rows + #spill files), not O(pending frontier); with
        nothing spilled there is no manifest.
        (Round-2 verdict: the old checkpoint re-read and re-wrote every
        spill file every round — O(frontier) write amplification × rounds.)
        Spill files are never modified in place (compaction unlinks and new
        spills get fresh names), so a link IS a durable snapshot; cross-
        device setups fall back to a copy."""
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
                        shutil.copy2(f, ln)
                names.append(os.path.basename(f))
            smin = self.spill_min[host]
            manifest[host] = {"files": names, "n": self.n_spilled[host],
                              "min": [smin[0], smin[1]]}
        if manifest:     # no manifest reads back as no spill
            with open(path + ".spill.json", "w") as f:
                json.dump(manifest, f)
        return self.n


class HostPartition(FrontierShard, HostShard):
    """Host partition ``i``: frontier shard ``i`` and politeness shard ``i``
    (both own the hosts ``host_shard_of`` routes to ``i``), held by state
    partition ``i`` and restored from ``round_dir``, a complete round of a
    checkpoint.  ``fetch_spec`` is the (module, factory, kwargs) of the
    robots fetcher; ``spill_dir`` is the root of every partition's own
    spill directory."""

    def __init__(self, i: int, round_dir: str | None, settings,
                 fetch_spec: tuple, spill_dir: str | None = None,
                 mem_rows_per_host: int = 200_000):
        self.i = i
        pending, hosts = self._paths(round_dir) if round_dir else (None, None)
        FrontierShard.__init__(
            self, pending, spill_dir and os.path.join(spill_dir, f"shard{i}"),
            mem_rows_per_host)
        HostShard.__init__(self, settings, *fetch_spec, snapshot_path=hosts)

    def _paths(self, round_dir: str) -> tuple[str, str]:
        return (os.path.join(round_dir, f"pending_shard{self.i}.parquet"),
                os.path.join(round_dir, f"host_shard{self.i}.json"))

    def add_ipc(self, buf: bytes) -> int:
        return self.add(from_ipc(buf))

    def admit_with(self, round_k: int) -> tuple[bytes, dict]:
        """Full admission step for this partition: per-host pending counts
        go to this actor's own politeness clocks, and only the admitted
        prefix (O(round), as IPC bytes) plus a 3-field telemetry dict reach
        the driver — never the O(#hosts) count map."""
        counts = self.host_counts()
        hh = max(counts, key=lambda h: (counts[h], h), default="")
        stats = {"rows_in": sum(counts.values()), "hot_host": hh,
                 "hot_rows": counts.get(hh, 0)}
        return to_ipc(self.admit(self.grant(counts, round_k))), stats

    def checkpoint(self, round_dir: str) -> int:
        pending, hosts = self._paths(round_dir)
        self.checkpoint_hosts(hosts)
        return self.checkpoint_pending(pending)


class ShardedFrontier:
    """Driver facade over the partitions that hold host partitions.  One
    RPC per shard per step; only admitted/added rows (O(round)) ever cross
    the driver boundary."""

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

    def add_df(self, t: pa.Table) -> None:
        """Add frontier rows (the ``_FRONTIER`` columns) to the partitions
        of their hosts, as one IPC blob per partition."""
        if not t.num_rows:
            return
        # one sha1 per UNIQUE host, not per row (hosts ≪ rows)
        hosts = pc.unique(t["host"])
        shard_of = np.array([host_shard_of(h, self.n_shards)
                             for h in hosts.to_pylist()], dtype=np.int64)
        shard_idx = shard_of[pc.index_in(t["host"], value_set=hosts)
                             .to_numpy()]
        rows = t.select(_FRONTIER.names)
        refs = [self.shards[s].add.remote(to_ipc(rows.filter(shard_idx == s)))
                for s in np.unique(shard_idx).tolist()]
        ray.get(refs)

    def admit_with(self, round_k: int) -> tuple[pa.Table, list[dict]]:
        """Shard-parallel admission (see HostPartition.admit_with): returns
        (admitted rows, per-shard telemetry)."""
        parts = ray.get([s.admit_with.remote(round_k) for s in self.shards])
        return (pa.concat_tables([from_ipc(b) for b, _ in parts]),
                [st for _, st in parts])

    def cancel(self, patterns: list[str]) -> list[bytes]:
        outs = ray.get([s.cancel.remote(patterns) for s in self.shards])
        return [h for out in outs for h in out]

    def total(self) -> int:
        return sum(ray.get([s.pending.remote() for s in self.shards]))

    def dump(self) -> pd.DataFrame:
        tabs = ray.get([s.dump.remote() for s in self.shards])
        return pa.concat_tables([from_ipc(b) for b in tabs]).to_pandas()

    def checkpoint_refs(self, round_dir: str) -> list:
        """Submit every partition's checkpoint task (pending rows and host
        states) and return the refs — the caller may wait later (actor task
        order already guarantees the snapshot precedes any subsequently
        submitted mutation)."""
        return [s.checkpoint_frontier.remote(round_dir) for s in self.shards]
