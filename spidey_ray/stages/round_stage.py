"""The fused per-round crawl stage: fetch + parse + token partials +
document side-writes + outlink checks in ONE ``map_batches`` pass.

Why fused: a crawl round previously ran four Dataset executions (parse,
token groupby, documents write, link check) and each execution carries
~0.5-2 s of fixed cost — at 9 rounds that fixed cost dominated the whole
crawl and killed N→4N scaling.  Everything the reference computes per page
before the ORDER-DEPENDENT gates is stage-computable:

- ``tokenized`` (reached scraper.py:441's tokenizer) depends only on the
  response, the ROUND-START blacklist and pure predicates
  (scraper.py:413-426) — all shipped to the stage,
- ``doc_candidate`` (passed the redirect checks) is the superset of the
  gate-passed pages; the driver's sequential gate machine then yields the
  (small) suppressed set, and the driver drops those pages' candidate
  links / trap emissions and records their doc_ids as exclusions for the
  documents table.

Output: one union-typed Arrow table with a ``kind`` discriminator:
  'rec'  — compact per-page record (driver gate input)
  'tok'  — block-level (token, n) partials over tokenized pages
  'cand' — checked outlink candidates (with normalized url + SHA-1 hash)
  'trap' — repeating-path trap pattern emissions (scraper.py:581-609)
Documents rows (doc_id, spans, title, crawl_seq) are written as parquet
side-files named by the block's first seq — idempotent under task retry.

Retry discipline (SURVEY.md §7.5.5 "non-idempotent fetch"): the synthetic
fetch is a pure function, so Ray's default task retries are safe here.  A
REAL HTTP fetcher must not be retried blindly — politeness and the
reference's no-retry semantics (non-200 ⇒ blacklist, scraper.py:413-417)
forbid it — so a networked deployment swaps ``sw.fetch`` for calls into the
politeness-gated fetcher actors and sets ``max_retries=0`` on this op; the
rest of the stage (parse/tokenize/links) stays retryable as-is.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import urltools
from ..pipelines.crawl_logic import CompiledBlacklist, check_outlink, parse_fetch
from ..sources import synthetic_web as sw
from ..state.politeness import CrawlSettings

SPAN_TYPE = pa.list_(
    pa.struct(
        [("kind", pa.string()), ("text", pa.string()),
         ("media_ref", pa.string()), ("offset", pa.int32())]
    )
)

ROUND_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),
        ("seq", pa.int64()),
        ("link_idx", pa.int64()),
        # 'rec' columns
        ("url", pa.string()),
        ("final_url", pa.string()),
        ("status", pa.int32()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("parent_url", pa.string()),
        ("empty", pa.bool_()),
        ("tag_count", pa.int32()),
        ("is_sitemap", pa.bool_()),
        ("n_tokens", pa.int64()),
        ("simhash", pa.uint64()),
        ("title", pa.string()),
        ("content_len", pa.int64()),
        # 'tok' columns: ONE packed row per block (vocab-bound list arrays,
        # not vocab-count scalar rows — keeps the union table small)
        ("tok_tokens", pa.list_(pa.string())),
        ("tok_counts", pa.list_(pa.int64())),
        # 'cand' columns
        ("sorted_url", pa.string()),
        ("orig_link", pa.string()),
        ("norm_url", pa.string()),
        ("url_hash", pa.binary()),
        # 'trap' columns
        ("pattern", pa.string()),
        ("reason", pa.string()),
        ("temporary", pa.bool_()),
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPAN_TYPE),
        ("title", pa.string()),
        ("crawl_seq", pa.int64()),
    ]
)


_RULES_CACHE: dict = {}
_FETCH_CACHE: dict = {}


def _resolve_fetch(fetch_spec: tuple | None, cfg: "sw.WebConfig"):
    """FetchFn for this stage task. ``fetch_spec`` is (module, factory_name,
    kwargs) — e.g. the real HTTP fetcher (sources/http_fetch.py) — or None
    for the deterministic synthetic web.  Resolved once per worker process
    (module-level cache), so a real fetcher's session state persists across
    batches."""
    if fetch_spec is None:
        def fetch_fn(url: str):
            p = sw.fetch(cfg, url)
            return p.final_url, p.status, p.content
        return fetch_fn
    module, name, kwargs = fetch_spec
    key = (module, name, tuple(sorted(kwargs.items())))
    fn = _FETCH_CACHE.get(key)
    if fn is None:
        import importlib

        fn = _FETCH_CACHE[key] = getattr(
            importlib.import_module(module), name)(**kwargs)
    return fn


_BLACKLIST_CACHE: dict = {}


def round_process_batch(
    batch: pa.Table,
    web_cfg: dict,
    blacklist_patterns: list[str],
    settings: CrawlSettings,
    doc_dir: str | None,
    base_seq: int,
    host_rules: dict[str, str] | None = None,
    fetch_spec: tuple | None = None,
    blacklist_version: int | None = None,
) -> pa.Table:
    cfg = sw.WebConfig(**web_cfg)
    fetch_fn = _resolve_fetch(fetch_spec, cfg)
    # compile once per (worker, blacklist version), not once per block task:
    # the pattern list grows with the crawl and recompiling the exact-set +
    # alternation per task is O(patterns) work × blocks per round
    if blacklist_version is not None:
        is_blacklisted = _BLACKLIST_CACHE.get(blacklist_version)
        if is_blacklisted is None:
            if len(_BLACKLIST_CACHE) > 8:
                _BLACKLIST_CACHE.clear()
            is_blacklisted = _BLACKLIST_CACHE[blacklist_version] = \
                CompiledBlacklist(blacklist_patterns)
    else:
        is_blacklisted = CompiledBlacklist(blacklist_patterns)
    netloc = settings.netloc_pattern()
    # robots rules of already-processed rule-bearing hosts: immutable after
    # first sighting, so the gate evaluates in-stage (round-start snapshot,
    # same as the blacklist); only unknown hosts' links go to the actors
    host_rules = host_rules or {}
    compiled_rules: dict[str, object] = {}
    if host_rules:
        from ..state.robots import RobotsRules

        for h, txt in host_rules.items():
            key = (h, txt)
            r = _RULES_CACHE.get(key)
            if r is None:
                if len(_RULES_CACHE) > 4096:
                    _RULES_CACHE.clear()
                r = _RULES_CACHE[key] = RobotsRules.parse(txt)
            compiled_rules[h] = r

    def is_valid(u: str) -> bool:
        return urltools.is_valid(u, netloc)

    # per-kind accumulation; the union table is assembled in bulk at the end
    rec_rows: dict[str, list] = {k: [] for k in (
        "seq", "url", "final_url", "status", "host", "depth", "parent_url",
        "empty", "tag_count", "is_sitemap", "n_tokens", "simhash", "title",
        "content_len")}
    cand_rows_: dict[str, list] = {k: [] for k in (
        "seq", "link_idx", "sorted_url", "orig_link", "norm_url", "url_hash",
        "host", "depth", "parent_url")}
    trap_rows: dict[str, list] = {k: [] for k in (
        "seq", "link_idx", "pattern", "reason", "temporary")}

    tok_lists: list[list[str]] = []      # qualifying pages' tokens
    doc_rows: dict[str, list] = {n: [] for n in DOCS_SCHEMA.names}
    first_seq = None

    for seq, url, depth, parent in zip(
        batch["seq"].to_pylist(), batch["url"].to_pylist(),
        batch["depth"].to_pylist(), batch["parent_url"].to_pylist(),
    ):
        if first_seq is None or seq < first_seq:
            first_seq = seq
        final_url, status, content = fetch_fn(url)
        rec, spans, tokens = parse_fetch(
            url, final_url, status, content, depth, parent)
        r = rec_rows
        r["seq"].append(seq)
        r["url"].append(rec.url)
        r["final_url"].append(rec.final_url)
        r["status"].append(rec.status)
        r["host"].append(rec.host)
        r["depth"].append(rec.depth)
        r["parent_url"].append(rec.parent_url)
        r["empty"].append(rec.empty)
        r["tag_count"].append(rec.tag_count)
        r["is_sitemap"].append(rec.is_sitemap)
        r["n_tokens"].append(rec.n_tokens)
        r["simhash"].append(rec.simhash)
        r["title"].append(rec.title)
        r["content_len"].append(len(content))

        if rec.empty:
            continue
        # stage-side mirror of the redirect checks (scraper.py:420-426);
        # the driver's gate machine recomputes these identically and owns
        # the pattern emissions
        if rec.final_url != rec.url:
            if is_blacklisted(rec.final_url) or not is_valid(rec.final_url):
                continue
            if urltools.trap_patterns(
                    rec.final_url, settings.path_repeat_threshold)[0]:
                continue

        # doc candidate (gate-passed superset)
        doc_rows["doc_id"].append(rec.url)
        doc_rows["spans"].append(spans)
        doc_rows["title"].append(rec.title)
        doc_rows["crawl_seq"].append(base_seq + seq)

        if not rec.is_sitemap:
            tok_lists.append(tokens)

        # outlink checks (pure part of allurlchecks, scraper.py:357-358)
        for li, link in enumerate(rec.links):
            sortedq = urltools.sort_by_query(link)
            ok, pats = check_outlink(
                sortedq, is_valid, is_blacklisted, settings.path_repeat_threshold)
            for p in pats:
                trap_rows["seq"].append(seq)
                trap_rows["link_idx"].append(li)
                trap_rows["pattern"].append(p.pattern)
                trap_rows["reason"].append(p.reason)
                trap_rows["temporary"].append(p.temporary)
            if ok:
                host = urltools.url_host(sortedq)
                rules = compiled_rules.get(host)
                if rules is not None and not rules.can_fetch(
                        settings.user_agent, link):
                    continue   # robots deny — canFetch(orig link), scraper.py:389
                norm = urltools.normalize(sortedq)
                c = cand_rows_
                c["seq"].append(seq)
                c["link_idx"].append(li)
                c["sorted_url"].append(sortedq)
                c["orig_link"].append(link)
                c["norm_url"].append(norm)
                c["url_hash"].append(urltools.url_hash(norm))
                c["host"].append(host)
                c["depth"].append(depth + 1)
                c["parent_url"].append(rec.url)

    if doc_dir is not None and doc_rows["doc_id"]:
        os.makedirs(doc_dir, exist_ok=True)
        pq.write_table(
            pa.Table.from_pydict(doc_rows, schema=DOCS_SCHEMA),
            os.path.join(doc_dir, f"part-{first_seq:09d}.parquet"),
        )

    # assemble the union table in bulk: one sub-table per kind with default
    # fill columns, concatenated under the unified schema
    def sub_table(kind: str, present: dict[str, list]) -> pa.Table:
        n = len(next(iter(present.values()))) if present else 0
        arrays = []
        for fieldx in ROUND_SCHEMA:
            name = fieldx.name
            if name == "kind":
                arrays.append(pa.array([kind] * n, type=pa.string()))
            elif name in present:
                arrays.append(pa.array(present[name], type=fieldx.type))
            else:
                arrays.append(pa.nulls(n, type=fieldx.type))  # absent → null
        return pa.Table.from_arrays(arrays, schema=ROUND_SCHEMA)

    parts = [sub_table("rec", rec_rows)]
    flat = list(chain.from_iterable(tok_lists))
    if flat:
        # block token partial: one factorize + count; uniques come out in
        # first-seen order across pages, the key order of a dict count
        codes, uniq = pd.factorize(np.array(flat, dtype=object))
        parts.append(sub_table("tok", {
            "tok_tokens": [uniq.tolist()],
            "tok_counts": [np.bincount(codes, minlength=len(uniq)).tolist()],
        }))
    if cand_rows_["seq"]:
        parts.append(sub_table("cand", cand_rows_))
    if trap_rows["seq"]:
        parts.append(sub_table("trap", trap_rows))
    return pa.concat_tables(parts)
