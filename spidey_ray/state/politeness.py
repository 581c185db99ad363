"""Per-host robots + politeness scheduling (SURVEY.md §2.3 T2, north_rule).

Reference semantics being reproduced:
- one state entry per netloc holding the robots parser and a URL counter
  (backend/crawler/scraper.py:48-56),
- robots.txt is fetched once, on the host's FIRST sighting as an outlink
  (``process_url`` called from the link loop, scraper.py:386-393, 100-113);
  the fetch itself consumes politeness budget (scraper.py:68) and counts
  toward the host's n_urls (scraper.py:74),
- ``Sitemap:`` entries: a ``.txt`` sitemap is fetched (politeness charge,
  n_urls count, scraper.py:82-88) and each line is added to the frontier
  UNCHECKED (reference calls frontier.add_url directly); any other sitemap
  URL is added after the standard URL checks (scraper.py:89-90),
- robots gate: ``can_fetch('*', url)``, allow-all when robots.txt is missing
  or unparseable (scraper.py:58-59, 71-72), disallow-all when it answers
  401 or 403 (robotparser.py:66-75),
- politeness: the reference sleeps a global 0.5 s between fetches
  (worker.py:36, config.ini:12); the rebuild's canonical semantics (the
  north_rule's per-host min-heap) is a per-host virtual clock
  ``next_allowed = last + max(politeness, robots crawl-delay)``.

Round admission (shared verbatim by the serial oracle and the Ray driver so
crawl order is well-defined and testable — SURVEY.md §7.5.2): round K owns
the virtual window [K·W, (K+1)·W); candidates are processed in canonical
(depth, url) order; a candidate is admitted iff its host clock fits in the
window, which then advances by the host's delay.  The clock is virtual —
synthetic fetches are instantaneous — but the ordering/budget semantics are
exactly what a wall-clock min-heap scheduler enforces on a real fetcher.

``HostShard`` holds the host states of one hash-partition of hosts (all
traffic for one host goes through one shard, the correctness requirement of
SURVEY.md §4).  It is the politeness half of ``frontier.HostPartition``,
held by a state partition actor next to the same hosts' pending rows, and
every method is batched so actor round trips per crawl round stay
O(n_shards).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from ..functions import urltools
from .robots import RobotsRules


@dataclass
class CrawlSettings:
    politeness: float = 0.5           # config.ini:12
    path_repeat_threshold: int = 3    # config.ini:13
    round_window: float = 10.0        # virtual seconds per round (rebuild knob)
    netloc_regex: str = urltools.DEFAULT_NETLOC_PATTERN.pattern
    user_agent: str = "spidey-ray"
    max_rounds: int = 1000

    def netloc_pattern(self):
        import re

        return re.compile(self.netloc_regex)


@dataclass
class HostState:
    host: str
    robots: RobotsRules | None = None
    robots_txt: str | None = None
    robots_processed: bool = False
    crawl_delay: float | None = None
    clock: float = 0.0                 # virtual next-allowed-fetch time
    n_urls: int = 0

    def delay(self, settings: CrawlSettings) -> float:
        base = settings.politeness
        if self.crawl_delay is not None:
            return max(base, self.crawl_delay)
        return base

    def can_fetch(self, url: str, settings: CrawlSettings) -> bool:
        if self.robots is None:
            return True  # scraper.py:58-59
        return self.robots.can_fetch(settings.user_agent, url)


FetchFn = Callable[[str], tuple[str, int, str]]  # url -> (final_url, status, content)


def process_robots(
    state: HostState,
    sample_url: str,
    fetch: FetchFn,
    settings: CrawlSettings,
    is_valid: Callable[[str], bool],
    allurlchecks: Callable[[str], bool],
) -> tuple[list[str], list[str]]:
    """First-sighting robots processing (scraper.py:65-90).

    Returns (unchecked_additions, checked_additions): URLs from a .txt
    sitemap (added to the frontier with no validity checks, mirroring
    scraper.py:88) and non-txt sitemap URLs that passed ``allurlchecks``.
    """
    state.robots_processed = True
    robotsurl = sample_url.split(state.host)[0] + state.host + "/robots.txt"

    state.clock += state.delay(settings)  # politeness sleep before robots fetch
    final_url, status, content = fetch(robotsurl)

    if status in (401, 403):
        # disallow all, kept as a rule body so that the host snapshot, the
        # round stage's rules and can_fetch all read the same rules
        state.robots_txt = "User-agent: *\nDisallow: /\n"
        state.robots = RobotsRules.parse(state.robots_txt)
        return [], []
    if status != 200 or not content or not is_valid(final_url):
        return [], []

    state.n_urls += 1
    state.robots = RobotsRules.parse(content)
    state.robots_txt = content
    state.crawl_delay = state.robots.crawl_delay(settings.user_agent)

    unchecked: list[str] = []
    checked: list[str] = []
    for sitemapurl in state.robots.site_maps():
        if sitemapurl.lower().endswith(".txt"):
            state.clock += state.delay(settings)
            sm_final, sm_status, sm_content = fetch(sitemapurl)
            if sm_status == 200 and sm_content and is_valid(sm_final):
                state.n_urls += 1
                unchecked.extend(
                    line.strip() for line in sm_content.splitlines() if line.strip()
                )
        elif allurlchecks(sitemapurl):
            checked.append(sitemapurl)
    return unchecked, checked


def admit_round(
    ordered_candidates: list[tuple[str, str]],  # (url, host) in canonical order
    clocks: dict[str, float],
    delays: dict[str, float],
    round_k: int,
    window: float,
) -> tuple[list[int], dict[str, float]]:
    """Politeness admission for one round. Returns (admitted indices in
    canonical order, updated clocks). Pure — shared by oracle and engine."""
    t_start = round_k * window
    t_end = t_start + window
    new_clocks = dict(clocks)
    admitted: list[int] = []
    for i, (_url, host) in enumerate(ordered_candidates):
        clock = max(new_clocks.get(host, 0.0), t_start)
        if clock < t_end:
            admitted.append(i)
            new_clocks[host] = clock + delays.get(host, 0.5)
    return admitted, new_clocks


def admit_count(n_cands: int, clock0: float, delay: float, round_k: int,
                window: float) -> tuple[int, float]:
    """Single-host admission count: how many of ``n_cands`` pending URLs
    the politeness clock admits this round, and the updated clock.

    Performs the SAME float operations in the SAME order as
    :func:`admit_round` restricted to one host (max, then repeated
    addition), so the resulting clock is bit-identical to the oracle's —
    but runs O(admitted) ≤ ~window/delay iterations instead of building
    an O(pending-per-host) candidate list (pending per host can be
    millions at corpus scale; admitted per round cannot exceed
    window/delay ≈ 80)."""
    t_start = round_k * window
    t_end = t_start + window
    clock = max(clock0, t_start)
    if clock >= t_end:
        return 0, clock
    if delay <= 0.0:
        # zero delay admits every candidate without advancing the clock
        # (clock + 0.0 · n is the same float) — keep this O(1)
        return n_cands, clock
    k = 0
    while k < n_cands and clock < t_end:
        k += 1
        clock = clock + delay
    return k, clock


def host_shard_of(host: str, n_shards: int) -> int:
    return int.from_bytes(hashlib.sha1(host.encode()).digest()[:4], "big") % n_shards


class HostShard:
    """The HostState of one hash-partition of hosts."""

    def __init__(self, settings: CrawlSettings, fetch_factory_module: str,
                 fetch_factory_name: str, fetch_factory_arg: dict,
                 snapshot_path: str | None = None):
        self.settings = settings
        mod = importlib.import_module(fetch_factory_module)
        self.fetch: FetchFn = getattr(mod, fetch_factory_name)(**fetch_factory_arg)
        pattern = settings.netloc_pattern()
        self.is_valid = lambda u: urltools.is_valid(u, pattern)
        self.hosts: dict[str, HostState] = {}
        if snapshot_path is not None and os.path.exists(snapshot_path):
            with open(snapshot_path) as f:
                for h, s in json.load(f).items():
                    st = HostState(
                        host=h, robots_processed=s["robots_processed"],
                        crawl_delay=s["crawl_delay"], clock=s["clock"],
                        n_urls=s["n_urls"], robots_txt=s["robots_txt"])
                    if s["robots_txt"] is not None:
                        st.robots = RobotsRules.parse(s["robots_txt"])
                    self.hosts[h] = st

    def _get(self, host: str) -> HostState:
        if host not in self.hosts:
            self.hosts[host] = HostState(host=host)
        return self.hosts[host]

    def filter_links(
        self, links_by_host: dict[str, list[tuple[str, str]]],
        blacklist_patterns: list[str],
    ) -> dict:
        """For each host (links in canonical order, (sorted_url, orig_link)):
        process robots on first sighting, then apply the robots gate.

        Returns {host: {mask: [bool], unchecked: [...], checked: [...]}}.
        ``blacklist_patterns`` is the round-start blacklist, needed for the
        reference's ``allurlchecks`` on non-txt sitemap URLs (scraper.py:89).
        """
        from ..pipelines.crawl_logic import CompiledBlacklist

        blacklisted = CompiledBlacklist(blacklist_patterns)

        def allurlchecks(u: str) -> bool:
            return (
                self.is_valid(u)
                and not blacklisted(u)
                and not urltools.trap_patterns(u, self.settings.path_repeat_threshold)[0]
            )

        # robots for NEW hosts: per-host processing is independent (each
        # mutates only its own HostState; fetch fns open one connection per
        # call), so fetch them through a small thread pool — on a real-HTTP
        # deployment serial ~1 s robots+sitemap fetches per first-seen host
        # would otherwise serialize the whole shard. Results are assembled
        # in sorted-host order, so completion order never leaks out.
        new_hosts = [h for h in sorted(links_by_host)
                     if links_by_host[h]
                     and not self._get(h).robots_processed]
        robots_out: dict[str, tuple[list[str], list[str]]] = {}
        if new_hosts:
            with ThreadPoolExecutor(min(8, len(new_hosts))) as ex:
                futs = {
                    h: ex.submit(
                        process_robots, self._get(h), links_by_host[h][0][0],
                        self.fetch, self.settings, self.is_valid,
                        allurlchecks)
                    for h in new_hosts
                }
                robots_out = {h: f.result() for h, f in futs.items()}

        out = {}
        for host in sorted(links_by_host):
            rows = links_by_host[host]
            state = self._get(host)
            unchecked, checked = robots_out.get(host, ([], []))
            mask = [state.can_fetch(orig, self.settings) for (_s, orig) in rows]
            # allow_all: robots missing/unparseable, or parsed but rule-free —
            # can_fetch is constant True, so the driver may cache and skip the
            # RPC for this host's future links.  For rule-bearing hosts the
            # raw robots.txt is returned once: rules are immutable after first
            # processing, so future rounds evaluate can_fetch inside the
            # distributed round stage instead of shipping links here.
            allow_all = state.robots is None or (
                not state.robots.entries and state.robots.default_entry is None
            )
            out[host] = {"mask": mask, "unchecked": unchecked,
                         "checked": checked, "allow_all": allow_all,
                         "robots_txt": None if allow_all else state.robots_txt}
        return out

    def grant(self, cands_by_host: dict[str, int], round_k: int) -> dict:
        """Politeness admission for this shard's hosts, from per-host
        candidate COUNTS (the pending rows hold the canonical order).
        Returns {host: n_admitted} — the admitted prefix length of each
        host's ordered list (admission is order-respecting by construction,
        see admit_round)."""
        out = {}
        for host, n_cands in cands_by_host.items():
            state = self._get(host)
            n_adm, state.clock = admit_count(
                n_cands, state.clock, state.delay(self.settings),
                round_k, self.settings.round_window,
            )
            out[host] = n_adm
        return out

    def count_urls(self, counts: dict[str, int]) -> None:
        # countUrl ignores hosts unknown to subdomain state (scraper.py:116-119);
        # robots_processed marks "exists in the reference's subdomainInfo"
        for host, n in counts.items():
            s = self.hosts.get(host)
            if s is not None and s.robots_processed:
                s.n_urls += n

    def checkpoint_hosts(self, path: str) -> int:
        """Write this shard's own snapshot — the driver records the path
        only (the per-round host-state JSON is O(hosts) and must not
        round-trip the driver every round at 10^10-frontier host counts)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.snapshot(), f)
        os.replace(tmp, path)
        return len(self.hosts)

    def snapshot(self) -> dict:
        return {
            h: {
                "robots_processed": s.robots_processed,
                "robots_txt": s.robots_txt,
                "crawl_delay": s.crawl_delay,
                "clock": s.clock,
                "n_urls": s.n_urls,
            }
            for h, s in self.hosts.items()
        }
