"""Sharded URL state: the cuckoo-filter seen set and the footprint KV
(north_rule T1/D1).

Generalizes the reference's exact shelve membership gate
(backend/crawler/crawler/frontier.py:60-66 ``urlhash not in self.save``) into
an approximate-membership structure that scales to a 10^10-URL frontier:

- each seen shard is a GROWABLE chain of cuckoo-filter segments
  (``ScalableCuckoo``: B buckets × 4 slots × 16-bit fingerprints per
  segment, partial-key cuckoo hashing per Fan et al., "Cuckoo Filter:
  Practically Better Than Bloom", CoNEXT'14; geometric segment doubling per
  Almeida et al.'s scalable-Bloom construction): ~2.1 bytes/key at 95%
  load with NO fixed capacity, supports delete — needed because the
  reference's ``cancel_urls`` removes blacklisted pending URLs from the
  seen set so they can be re-added later (frontier.py:80-92),
- ``UrlShard`` ``i``, held by state partition ``i`` (state/partition.py),
  holds seen shard ``i`` and footprint shard ``i`` (the url → (simhash,
  n_tokens) KV behind the crawl-time near-dup gates).  Both route by the
  seen key, ``key64(url_hash(url)) % n_shards``, so shard count (not
  per-shard memory) scales with frontier size.  URL state is numpy and
  pickle only: it never loads pyarrow or pandas,
- the ``ShardedSeen`` and ``ShardedFootprints`` driver facades batch their
  calls: O(n_shards) actor round-trips per crawl round, not O(n_urls).
  The gates only need the footprints of the round's PARENT urls and the
  previous-page url, all known before the loop: driver footprint memory
  is O(round),
- each shard checkpoints its own delta blobs under the round dir and
  restores from the chain of complete rounds (north_rule resumability).

First-seen-wins semantics match frontier.py:60-66.  A lookup compares the
key's 16-bit fingerprint with the 2 buckets × 4 slots of each segment, so
a segment at load α answers a false "seen" with probability about
8·α/(2^16 − 1), up to 0.012 % when full, and the segments add up.  Every
false positive silently drops a URL.  Measured at 10^6 random keys (5
segments): 484 of 10^6 disjoint probes (0.048 %) and 320 of the 10^6 first
inserts reported as seen.  At test scale (10^2..10^4 URLs in a 2^14-slot
filter) collisions are absent, so oracle-equality tests are exact.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import ray

from ..functions import urltools

_EMPTY = np.uint16(0)
_MAX_KICKS = 500


def _first_seen(flt, keys: np.ndarray) -> np.ndarray:
    """For each uint64 key: True if filter ``flt`` holds it, else False and
    ``flt._insert_new`` adds it.  First-seen-wins holds inside one batch:
    duplicate keys after the first occurrence report True (np.unique keeps
    the first index), and only first occurrences are inserted."""
    keys = np.asarray(keys).astype(np.uint64, copy=False)
    out = flt.contains(keys)
    miss = np.nonzero(~out)[0]
    if miss.size:
        _, first = np.unique(keys[miss], return_index=True)
        dup = np.ones(len(miss), dtype=bool)
        dup[first] = False
        out[miss[dup]] = True
        flt._insert_new(keys[miss[~dup]])
    return out


class CuckooFilter:
    """Single-shard cuckoo filter over unsigned 64-bit keys."""

    def __init__(self, n_buckets: int = 1 << 14, slots: int = 4):
        assert n_buckets & (n_buckets - 1) == 0, "n_buckets must be a power of 2"
        self.n_buckets = n_buckets
        self.slots = slots
        self.table = np.zeros((n_buckets, slots), dtype=np.uint16)
        self.count = 0
        self._rng = np.random.default_rng(0xC0FFEE)  # deterministic evictions

    # -- hashing ----------------------------------------------------------
    @staticmethod
    def _mix(key: np.ndarray) -> np.ndarray:
        """splitmix64 finalizer: decorrelates fingerprint/index bits even for
        small or sequential keys (url-hash keys are already uniform, but the
        filter should not depend on that)."""
        with np.errstate(over="ignore"):
            k = key.astype(np.uint64, copy=True)
            k ^= k >> np.uint64(30)
            k *= np.uint64(0xBF58476D1CE4E5B9)
            k ^= k >> np.uint64(27)
            k *= np.uint64(0x94D049BB133111EB)
            k ^= k >> np.uint64(31)
        return k

    def _fingerprint(self, key: np.ndarray) -> np.ndarray:
        fp = (self._mix(key) >> np.uint64(48)).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)  # 0 is the empty sentinel

    def _index1(self, key: np.ndarray) -> np.ndarray:
        return (self._mix(key) & np.uint64(self.n_buckets - 1)).astype(np.int64)

    def _index2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # partial-key cuckoo: i2 = i1 xor H(fp)
        h = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) & np.uint64(
            self.n_buckets - 1
        )
        return (i1.astype(np.uint64) ^ h).astype(np.int64)

    # -- scalar ops -------------------------------------------------------
    def _insert_one(self, i1: int, i2: int, fp: int) -> bool:
        for idx in (i1, i2):
            row = self.table[idx]
            free = np.nonzero(row == _EMPTY)[0]
            if free.size:
                row[free[0]] = fp
                self.count += 1
                return True
        # kick chain; recorded so exhaustion can UNWIND it — a bare raise
        # would leave the final evicted fingerprint homeless (a silent
        # false negative for whichever key owned it), which matters now
        # that ScalableCuckoo catches the error and retries in a fresh
        # segment instead of crashing
        idx = i1
        cur = np.uint16(fp)
        chain: list[tuple[int, int, np.uint16]] = []
        for _ in range(_MAX_KICKS):
            slot = int(self._rng.integers(self.slots))
            cur, self.table[idx][slot] = self.table[idx][slot], cur
            chain.append((idx, slot, cur))
            idx = int(
                self._index2(np.array([idx], dtype=np.int64), np.array([cur]))[0]
            )
            row = self.table[idx]
            free = np.nonzero(row == _EMPTY)[0]
            if free.size:
                row[free[0]] = cur
                self.count += 1
                return True
        for c_idx, c_slot, evicted in reversed(chain):
            self.table[c_idx][c_slot] = evicted
        raise RuntimeError(
            f"cuckoo filter over capacity ({self.count}/{self.n_buckets * self.slots})"
        )

    # -- batched API ------------------------------------------------------
    def _contains_vec(self, i1: np.ndarray, i2: np.ndarray,
                      fp: np.ndarray) -> np.ndarray:
        """Vectorized membership: two gathers + a compare, no per-key loop.
        This is the crawl's hottest state op (every extracted outlink lands
        here, and in steady state most are duplicates), so it must run at
        memory speed, not Python-interpreter speed."""
        f = fp[:, None]
        return ((self.table[i1] == f).any(axis=1)
                | (self.table[i2] == f).any(axis=1))

    def insert_absent(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized insert of distinct keys known to be absent. Returns a
        success mask; False entries were kick-exhausted and their state is
        unwound (caller decides: flat filter raises, scalable grows).

        The scatter path: per round, pick one candidate bucket per key
        (alternating i1/i2), defer same-bucket colliders to the next round
        (np.unique first-occurrence), and write each key into its bucket's
        first free slot in one fancy-indexed assignment. Keys whose both
        buckets are full fall back to the scalar kick chain — rare below
        ~95% load."""
        keys = np.asarray(keys).astype(np.uint64, copy=False)
        fp = self._fingerprint(keys)
        i1 = self._index1(keys)
        i2 = self._index2(i1, fp)
        n = len(keys)
        ok = np.zeros(n, dtype=bool)
        pending = np.arange(n)
        stall = 0
        use_i2 = False
        while pending.size and stall < 2:
            b = (i2 if use_i2 else i1)[pending]
            _, first = np.unique(b, return_index=True)
            sel = pending[first]
            bsel = b[first]
            free = self.table[bsel] == _EMPTY
            has = free.any(axis=1)
            if has.any():
                self.table[bsel[has], free.argmax(axis=1)[has]] = fp[sel[has]]
                self.count += int(has.sum())
                ok[sel[has]] = True
                pending = pending[~ok[pending]]
                stall = 0
            else:
                stall += 1
            use_i2 = not use_i2
        for k in pending:  # both buckets full: kick chain
            try:
                self._insert_one(int(i1[k]), int(i2[k]), int(fp[k]))
                ok[k] = True
            except RuntimeError:
                pass
        return ok

    def seen_or_add(self, keys: np.ndarray) -> np.ndarray:
        """:func:`_first_seen` on this filter; raises when it is full."""
        return _first_seen(self, keys)

    def _insert_new(self, keys: np.ndarray) -> None:
        if not self.insert_absent(keys).all():
            raise RuntimeError(
                f"cuckoo filter over capacity "
                f"({self.count}/{self.n_buckets * self.slots})")

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = keys.astype(np.uint64, copy=False)
        fp = self._fingerprint(keys)
        i1 = self._index1(keys)
        return self._contains_vec(i1, self._index2(i1, fp), fp)

    def delete(self, keys: np.ndarray) -> int:
        """Remove keys (cancel semantics, frontier.py:85-88). Returns #removed.
        Vectorized probe narrows to the (rare) present keys; only those take
        the scalar slot-clearing path."""
        keys = keys.astype(np.uint64, copy=False)
        fp = self._fingerprint(keys)
        i1 = self._index1(keys)
        i2 = self._index2(i1, fp)
        removed = 0
        for k in np.nonzero(self._contains_vec(i1, i2, fp))[0]:
            for idx in (int(i1[k]), int(i2[k])):
                row = self.table[idx]
                hit = np.nonzero(row == fp[k])[0]
                if hit.size:
                    row[hit[0]] = _EMPTY
                    self.count -= 1
                    removed += 1
                    break
        return removed

    # -- checkpoint -------------------------------------------------------
    def serialize(self) -> dict:
        return {
            "n_buckets": self.n_buckets,
            "slots": self.slots,
            "count": self.count,
            "table": self.table.tobytes(),
        }

    @classmethod
    def restore(cls, blob: dict) -> "CuckooFilter":
        self = cls(blob["n_buckets"], blob["slots"])
        self.table = np.frombuffer(blob["table"], dtype=np.uint16).reshape(
            blob["n_buckets"], blob["slots"]
        ).copy()
        self.count = blob["count"]
        return self


class ScalableCuckoo:
    """Growable seen-set: an ordered chain of cuckoo segments.

    A single cuckoo filter hard-fails near ~95% load (``_insert_one``
    raises) — a fixed capacity is a non-starter for a 10^10-URL frontier
    whose final size nobody knows up front.  This applies the scalable-Bloom
    construction (Almeida et al., "Scalable Bloom Filters", IPL 2007) to
    cuckoo segments: when the active (last) segment reaches ``GROW_AT`` of
    its capacity, it is frozen and a fresh segment with DOUBLE the buckets
    becomes the insert target.  Geometric growth keeps total segments
    O(log n) and amortized memory at the same ~2.1 bytes/key.

    Guarantees preserved from the single filter:
    - no false negatives: membership is the OR over segments,
    - first-seen-wins: a key is inserted only if no segment contains it,
    - delete: removes one matching fingerprint from whichever segment holds
      it (same partial-key caveat as the flat filter),
    - deterministic replay: growth points and eviction RNG depend only on
      the insert sequence, so delta-checkpoint replay reproduces an
      equivalent (membership-identical) structure.

    False-positive rate grows additively per segment (up to 0.012 % each
    at 16-bit fingerprints, see the module docstring), so with O(log n)
    segments it grows with log n: 0.048 % measured at 5 segments.
    """

    GROW_AT = 0.94

    def __init__(self, n_buckets: int = 1 << 14, slots: int = 4):
        self.segments = [CuckooFilter(n_buckets, slots)]

    # -- facade properties (delta-blob compat + telemetry) -----------------
    @property
    def n_buckets(self) -> int:
        return self.segments[0].n_buckets

    @property
    def slots(self) -> int:
        return self.segments[0].slots

    @property
    def count(self) -> int:
        return sum(s.count for s in self.segments)

    def _grow(self) -> None:
        last = self.segments[-1]
        self.segments.append(CuckooFilter(last.n_buckets * 2, last.slots))

    def seen_or_add(self, keys: np.ndarray) -> np.ndarray:
        """:func:`_first_seen` on the chain: a key absent from every segment
        goes to the active one (growing first if it is at GROW_AT).
        Membership is one vectorized probe per segment (the dominant cost
        in crawl steady state, where most outlinks are duplicates)."""
        return _first_seen(self, keys)

    def _insert_new(self, ikeys: np.ndarray) -> None:
        """Insert distinct keys known to be absent, growing segments as
        needed. Each chunk is bounded by the active segment's GROW_AT
        headroom, inserted via the vectorized scatter, and kick-exhausted
        leftovers (unwound, never lost) roll over into the next, larger
        segment."""
        while len(ikeys):
            active = self.segments[-1]
            room = int(self.GROW_AT * active.n_buckets * active.slots
                       ) - active.count
            if room <= 0:
                self._grow()
                continue
            take, rest = ikeys[:room], ikeys[room:]
            ok = active.insert_absent(take)
            ikeys = np.concatenate([take[~ok], rest]) if not ok.all() else rest
            if len(ikeys):
                self._grow()

    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys).astype(np.uint64, copy=False)
        out = np.zeros(len(keys), dtype=bool)
        for seg in self.segments:
            miss = np.nonzero(~out)[0]
            if not miss.size:
                break
            out[miss] = seg.contains(keys[miss])
        return out

    def delete(self, keys: np.ndarray) -> int:
        """Remove one matching fingerprint per key, searching segments in
        insertion order (cancel semantics, frontier.py:85-88). Vectorized:
        each segment handles the still-pending keys it contains in one
        batched call."""
        keys = np.asarray(keys).astype(np.uint64, copy=False)
        pending = np.ones(len(keys), dtype=bool)
        removed = 0
        for seg in self.segments:
            idx = np.nonzero(pending)[0]
            if not idx.size:
                break
            present = seg.contains(keys[idx])
            if present.any():
                removed += seg.delete(keys[idx[present]])
                pending[idx[present]] = False
        return removed

    # -- checkpoint -------------------------------------------------------
    def serialize(self) -> dict:
        return {"segments": [s.serialize() for s in self.segments]}

    @classmethod
    def restore(cls, blob: dict) -> "ScalableCuckoo":
        self = cls.__new__(cls)
        self.segments = [CuckooFilter.restore(b) for b in blob["segments"]]
        return self


def key64(url_hash20: bytes) -> int:
    """uint64 routing/filter key from the 20-byte SHA-1 url hash."""
    return int.from_bytes(url_hash20[:8], "big")


def url_shard_of(url: str, n_shards: int) -> int:
    """URL shard of a normalized ``url``: the shard its seen key
    ``key64(url_hash(url))`` routes to, and so the shard of its footprint."""
    return key64(urltools.url_hash(url)) % n_shards


# A URL shard's checkpoint files: ``kind`` is "full" or "delta".
SEEN_FILE = "seen_{kind}_shard{i}.pkl"
FOOTPRINTS_FILE = "footprints_{kind}_shard{i}.pkl"


def _chain(round_dirs: list[str], name: str, i: int) -> list[str]:
    """Shard ``i``'s restore chain of file ``name`` over ORDERED complete
    round dirs: the newest full blob plus every delta after it."""
    chain: list[str] = []
    for rd in round_dirs:
        full, delta = (os.path.join(rd, name.format(kind=k, i=i))
                       for k in ("full", "delta"))
        if os.path.exists(full):
            chain = [full]
        elif os.path.exists(delta):
            chain.append(delta)
    return chain


def _load(path: str) -> dict:
    with open(path, "rb") as f:
        return pickle.load(f)


class UrlShard:
    """URL shard ``i``: seen shard ``i`` (a ``ScalableCuckoo``) and
    footprint shard ``i`` (the url → (simhash, n_tokens) KV behind the
    near-dup gates), held by state partition ``i``.  Both route by the
    seen key (:func:`url_shard_of`), so a URL's seen key and its footprint
    live in the same shard.  ``round_dirs`` are the ordered complete rounds
    of a checkpoint to restore from.

    Both halves checkpoint DELTAS as numpy pickles, with a periodic full
    blob so the restore chain stays short (round-2 verdict: full rewrites
    per round were O(corpus) write amplification × rounds).  The seen delta
    is the ordered op log of keys added and deleted since the last
    checkpoint; replaying it re-inserts the same fingerprints, so
    membership answers after restore are identical even though eviction
    placement may differ.  The footprint delta is the keys put since the
    last checkpoint (a url is fetched once, so footprints are
    append-only)."""

    def __init__(self, i: int, round_dirs: list[str] = (),
                 n_buckets: int = 1 << 14):
        self.i = i
        self.filter = None
        for b in map(_load, _chain(round_dirs, SEEN_FILE, i)):
            if "segments" in b:             # full blob
                self.filter = ScalableCuckoo.restore(b)
                continue
            if self.filter is None:
                self.filter = ScalableCuckoo(b["n_buckets"], b["slots"])
            for kind, raw in b["ops"]:      # delta: replay the ordered op log
                arr = np.frombuffer(raw, dtype=np.uint64)
                if kind == "a":
                    self.filter.seen_or_add(arr)
                else:
                    self.filter.delete(arr)
        if self.filter is None:
            self.filter = ScalableCuckoo(n_buckets)
        # ordered delta op log: (is_add, [chunks...]) runs, so an
        # add→delete→re-add sequence within one delta window replays in
        # sequence (a flat adds-then-deletes pair would restore the re-added
        # key as absent)
        self._delta_ops: list[tuple[bool, list[np.ndarray]]] = []
        self.footprints: dict[str, tuple[int, int]] = {}
        self._fp_delta: dict[str, tuple[int, int]] = {}
        for b in map(_load, _chain(round_dirs, FOOTPRINTS_FILE, i)):
            self.footprints.update(zip(b["url"], zip(
                b["simhash"].tolist(), b["n_tokens"].tolist())))

    def _write(self, round_dir: str, name: str, full: bool,
               blob: dict) -> None:
        """Write ``blob`` as this shard's file ``name`` under
        ``round_dir`` — the driver never sees the state itself."""
        path = os.path.join(round_dir, name.format(
            kind="full" if full else "delta", i=self.i))
        with open(path + ".tmp", "wb") as f:
            pickle.dump(blob, f)
        os.replace(path + ".tmp", path)

    # -- seen -------------------------------------------------------------
    def _log_op(self, is_add: bool, arr: np.ndarray) -> None:
        if self._delta_ops and self._delta_ops[-1][0] == is_add:
            self._delta_ops[-1][1].append(arr)
        else:
            self._delta_ops.append((is_add, [arr]))

    def seen_or_add(self, keys: np.ndarray) -> np.ndarray:
        out = self.filter.seen_or_add(keys)
        new = keys[~out]
        if new.size:
            self._log_op(True, new.astype(np.uint64, copy=True))
        return out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self.filter.contains(keys)

    def delete(self, keys: np.ndarray) -> int:
        n = self.filter.delete(keys)
        if len(keys):
            self._log_op(False, np.asarray(keys, dtype=np.uint64).copy())
        return n

    def count(self) -> int:
        return self.filter.count

    def checkpoint_seen(self, round_dir: str, full: bool = False) -> int:
        blob = self.filter.serialize() if full else {
            "n_buckets": self.filter.n_buckets,
            "slots": self.filter.slots,
            "ops": [("a" if is_add else "d", np.concatenate(chunks).tobytes())
                    for is_add, chunks in self._delta_ops],
        }
        self._write(round_dir, SEEN_FILE, full, blob)
        self._delta_ops = []
        return self.filter.count

    # -- footprints -------------------------------------------------------
    def get_many(self, urls: list[str]) -> dict[str, tuple[int, int]]:
        return {u: self.footprints[u] for u in urls if u in self.footprints}

    def put_arrays(self, urls: list[str], simhash, n_tokens) -> int:
        """Columnar put: two numpy buffers serialize zero-copy where a
        100k-entry dict costs ~200k msgpack objects on the caller."""
        items = dict(zip(urls, zip(simhash.tolist(), n_tokens.tolist())))
        self.footprints.update(items)
        self._fp_delta.update(items)
        return len(self.footprints)

    def checkpoint_footprints(self, round_dir: str, full: bool = False) -> int:
        items = self.footprints if full else self._fp_delta
        vals = list(items.values())
        self._write(round_dir, FOOTPRINTS_FILE, full, {
            "url": list(items),
            "simhash": np.array([v[0] for v in vals], dtype=np.uint64),
            "n_tokens": np.array([v[1] for v in vals], dtype=np.int64)})
        self._fp_delta = {}
        return len(self.footprints)


class ShardedSeen:
    """Driver-side seen-set facade over the partitions that hold URL
    shards.  All calls are batched: one RPC per shard per round-step
    regardless of URL count."""

    def __init__(self, shards: list):
        self.shards = shards
        self.n_shards = len(shards)

    def _scatter_gather(self, method: str, keys: np.ndarray):
        keys = keys.astype(np.uint64, copy=False)
        shard_of = (keys % np.uint64(self.n_shards)).astype(np.int64)
        refs, order = [], []
        for s in range(self.n_shards):
            idx = np.nonzero(shard_of == s)[0]
            if idx.size:
                refs.append(getattr(self.shards[s], method).remote(keys[idx]))
                order.append(idx)
        outs = ray.get(refs)
        if method == "delete":
            return sum(outs)
        result = np.zeros(len(keys), dtype=bool)
        for idx, out in zip(order, outs):
            result[idx] = out
        return result

    def seen_or_add(self, keys: np.ndarray) -> np.ndarray:
        return self._scatter_gather("seen_or_add", keys)

    def delete(self, keys: np.ndarray) -> int:
        return self._scatter_gather("delete", keys)

    def checkpoint_refs(self, round_dir: str, full: bool = False) -> list:
        """Each shard writes its own delta (or periodic full) seen blob under
        ``round_dir``; only the refs return."""
        return [s.checkpoint_seen.remote(round_dir, full) for s in self.shards]

    def count(self) -> int:
        return sum(ray.get([s.count.remote() for s in self.shards]))


class ShardedFootprints:
    """Batched (url → footprint) KV facade over the same partitions."""

    def __init__(self, shards: list):
        self.shards = shards
        self.n_shards = len(shards)

    def _by_shard(self, urls) -> list[list[str]]:
        by_shard: list[list[str]] = [[] for _ in range(self.n_shards)]
        for u in urls:
            by_shard[url_shard_of(u, self.n_shards)].append(u)
        return by_shard

    def get_many_refs(self, urls: list[str]) -> list:
        """Submit the per-shard lookups and return the refs WITHOUT
        waiting — callers that know their keys early (the crawl round
        knows its parent urls at ADMISSION time) overlap the KV
        round-trip with other work and merge via ``collect_many``.
        Actor submission order guarantees these reads see every
        previously-submitted ``put_many`` from the same caller."""
        return [s.get_many.remote(us)
                for s, us in zip(self.shards, self._by_shard(urls)) if us]

    @staticmethod
    def collect_many(refs: list) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for d in ray.get(refs):
            out.update(d)
        return out

    def put_many(self, items: dict[str, tuple[int, int]]) -> list:
        """Submit the writes and return the refs WITHOUT waiting.  Safe to
        fire-and-forget for correctness: Ray executes actor tasks from the
        same caller in submission order, so any later ``get_many`` /
        ``checkpoint_footprints`` on a shard serializes behind this put.
        Callers keep the refs and drain them at a sync point purely to
        surface errors."""
        refs = []
        for s, urls in zip(self.shards, self._by_shard(items)):
            if urls:
                sh = np.fromiter((items[u][0] for u in urls),
                                 dtype=np.uint64, count=len(urls))
                nt = np.fromiter((items[u][1] for u in urls),
                                 dtype=np.int64, count=len(urls))
                refs.append(s.put_arrays.remote(urls, sh, nt))
        return refs

    def checkpoint_refs(self, round_dir: str, full: bool = False) -> list:
        return [s.checkpoint_footprints.remote(round_dir, full)
                for s in self.shards]
