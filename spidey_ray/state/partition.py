"""One crawl state actor per partition index.

Partition ``i`` holds URL shard ``i`` (``cuckoo.UrlShard``: seen set and
footprints) when ``i < n_seen_shards`` and host partition ``i``
(``frontier.HostPartition``: pending rows and politeness) when
``i < n_host_shards``: ``max(n_seen_shards, n_host_shards)`` processes.
Routing is the states' own (``key64 % n_seen_shards`` for URLs,
``host_shard_of`` for hosts).  A partition loads only what its state
needs: the frontier module (pyarrow) loads only where host state lives.
"""

from __future__ import annotations

import ray

from .cuckoo import UrlShard


def _on(state: str, method: str):
    """An actor method that calls ``method`` of the ``state`` it holds."""
    return lambda self, *args: getattr(getattr(self, state), method)(*args)


@ray.remote(num_cpus=0.01)
class Partition:
    """State partition ``i``, restored from ``round_dirs`` (the ordered
    complete rounds of a checkpoint, none for a fresh crawl).  ``url`` and
    ``host`` are the further keyword arguments of its ``UrlShard`` and
    ``HostPartition``, or None for a state it does not hold."""

    def __init__(self, i: int, round_dirs: list[str], url: dict | None,
                 host: dict | None):
        self.url = None if url is None else UrlShard(i, round_dirs, **url)
        self.host = None
        if host is not None:
            from .frontier import HostPartition

            self.host = HostPartition(
                i, round_dirs[-1] if round_dirs else None, **host)

    # URL shard: ShardedSeen, ShardedFootprints
    seen_or_add = _on("url", "seen_or_add")
    contains = _on("url", "contains")
    delete = _on("url", "delete")
    count = _on("url", "count")
    checkpoint_seen = _on("url", "checkpoint_seen")
    get_many = _on("url", "get_many")
    put_arrays = _on("url", "put_arrays")
    checkpoint_footprints = _on("url", "checkpoint_footprints")
    # host partition: ShardedFrontier, EngineResult
    add = _on("host", "add_ipc")
    admit_with = _on("host", "admit_with")
    cancel = _on("host", "cancel")
    pending = _on("host", "count")
    dump = _on("host", "dump")
    filter_links = _on("host", "filter_links")
    count_urls = _on("host", "count_urls")
    snapshot = _on("host", "snapshot")
    checkpoint_frontier = _on("host", "checkpoint")


def start_partitions(n_seen_shards: int, n_host_shards: int, url: dict,
                     host: dict, round_dirs: list[str] = ()) -> list:
    """Start partitions ``0 .. max(n_seen_shards, n_host_shards) - 1``; see
    :class:`Partition` for the arguments."""
    return [Partition.remote(i, list(round_dirs),
                             url if i < n_seen_shards else None,
                             host if i < n_host_shards else None)
            for i in range(max(n_seen_shards, n_host_shards))]
