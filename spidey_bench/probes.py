"""Driver-side probes: single-layer rates over a fixed page sample, and a
fixed single-core machine probe.

The page sample is the first pages a breadth-first walk reaches on the
run's wide web, so every run times the same kind of pages.  A change in
``sources.*`` belongs to the synthetic web, not to the engine.  The
machine probe moves with the machine, not with the code: it tells a change
of machine regime (steal, a slower host) from a change of the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLE_PAGES = 64
MIN_PROBE_S = 0.15


def _rate(fn, items_per_call: int) -> float:
    """Items per second of ``fn()``, repeated for at least MIN_PROBE_S."""
    fn()   # warm caches and lazy imports
    n, t0 = 0, time.perf_counter()
    while True:
        fn()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= MIN_PROBE_S:
            return n * items_per_call / dt


def page_sample(web) -> list[tuple[str, str]]:
    """(url, content) of the first SAMPLE_PAGES 200-status HTML pages of a
    breadth-first walk from the web's seeds."""
    from spidey_ray.functions.htmlspans import parse_document
    from spidey_ray.sources import synthetic_web as sw

    out, seen, queue = [], set(), list(web.seeds())
    while queue and len(out) < SAMPLE_PAGES:
        url = queue.pop(0)
        if url in seen:
            continue
        seen.add(url)
        page = sw.fetch(web, url)
        if page.status != 200:
            continue
        doc = parse_document(page.content, page.final_url)
        if doc.is_html:
            out.append((url, page.content))
        queue.extend(link for link in doc.links if link.startswith("https://"))
    return out


def layer_rates(web, settings) -> dict[str, float]:
    import pyarrow as pa

    from spidey_ray.functions import simhash, urltools
    from spidey_ray.functions.htmlspans import parse_document
    from spidey_ray.functions.tokenize import crawl_tokenize
    from spidey_ray.sources import synthetic_web as sw
    from spidey_ray.stages.round_stage import round_process_batch

    pages = page_sample(web)
    urls = [u for u, _ in pages]
    docs = [parse_document(c, u) for u, c in pages]
    texts = [d.visible_text for d in docs]
    tokens = [crawl_tokenize(t) for t in texts]
    batch = pa.table({"seq": np.arange(len(urls), dtype=np.int64),
                      "url": urls,
                      "depth": np.ones(len(urls), dtype=np.int32),
                      "parent_url": [""] * len(urls)})
    from dataclasses import asdict

    kwargs = dict(web_cfg=asdict(web), blacklist_patterns=[],
                  settings=settings, doc_dir=None, base_seq=0)
    return {
        "sources.fetch_pages_per_s":
            _rate(lambda: [sw.fetch(web, u) for u in urls], len(urls)),
        "functions.parse_document_pages_per_s":
            _rate(lambda: [parse_document(c, u) for u, c in pages], len(pages)),
        "functions.crawl_tokenize_tokens_per_s":
            _rate(lambda: [crawl_tokenize(t) for t in texts],
                  sum(map(len, tokens))),
        "functions.simhash64_block_docs_per_s":
            _rate(lambda: simhash.simhash64_block(tokens), len(tokens)),
        "functions.url_hash_per_s":
            _rate(lambda: [urltools.url_hash(u) for u in urls], len(urls)),
        "stages.round_process_batch_pages_per_s":
            _rate(lambda: round_process_batch(batch, **kwargs), len(urls)),
    }


def machine_probe_s() -> float:
    """Median of 3 runs of a fixed single-core numpy sort + memcpy."""
    rng = np.random.default_rng(0)
    a = rng.random(1 << 20)
    buf = np.empty(1 << 22, dtype=np.float64)   # 32 MiB
    src = np.ones_like(buf)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(a, kind="quicksort")
        for _ in range(8):
            np.copyto(buf, src)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
