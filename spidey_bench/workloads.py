"""The four workloads.  Each times calls into the program's public
functions from outside, checks every output, and fills a :class:`Run`.

Every workload repeats whole rounds of the same operations (a crawl, a
pass over the operators, an index build and a pass over the query stream)
and starts another round only while the measured window has room for it;
the first round always runs.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

from . import checks, inputs
from .trace import PeakRss, Tracer


class Run:
    def __init__(self, *, seed: int, seconds: float, tracer: Tracer,
                 work_dir: str, cache_dir: str, small: bool, ready_s: float):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work_dir = work_dir
        self.cache_dir = cache_dir
        self.small = small
        self.ready_s = ready_s          # process start → warm Ray session
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.rss = PeakRss()

    def window(self):
        """Room-for-another-round test over the measured window."""
        t0 = time.perf_counter()
        return lambda last_round_s: (
            time.perf_counter() - t0 + last_round_s <= self.seconds)

    def common(self, setup_s: float, job_s: float, items_per_s: float) -> None:
        self.e2e["setup_s"] = setup_s
        self.e2e["job_s"] = job_s
        self.e2e["items_per_s"] = items_per_s
        self.e2e["driver_peak_rss_mb"] = self.rss.peak_bytes / 2**20
        self.layer["trace.job_s"] = job_s


# ---------------------------------------------------------------------------
# crawl_wide / crawl_deep
# ---------------------------------------------------------------------------

PHASES = ["admit", "fetch_parse_exec", "fetch_parse", "gates", "token_counts",
          "link_check", "robots", "additions", "boundary", "checkpoint"]
STATE_SPANS = {
    "state.seen_or_add": [("seen", "seen_or_add")],
    "state.frontier_add": [("frontier", "add_df")],
    "state.frontier_admit": [("frontier", "admit_with")],
    "state.footprints_get": [("footprints", "get_many_refs"),
                             ("footprints", "collect_many")],
    "state.footprints_put": [("footprints", "put_many")],
    "state.checkpoint_refs": [("seen", "checkpoint_refs"),
                              ("frontier", "checkpoint_refs"),
                              ("footprints", "checkpoint_refs")],
}


def _wrap_state(tr: Tracer, eng) -> None:
    """Span the engine's pool calls from outside (instance attributes)."""
    def seen_outcome(args, mask):
        tr.count("state.seen_keys", len(args[0]))
        tr.count("state.seen_new", int(len(mask) - np.count_nonzero(mask)))

    for name, targets in STATE_SPANS.items():
        for pool, method in targets:
            tr.wrap(getattr(eng, pool), method, name,
                    seen_outcome if method == "seen_or_add" else None)


def _until_ready(eng) -> None:
    """Block until every state actor of the engine answers.  The engine's
    constructor and ``CrawlEngine.resume`` return while the actors are
    still starting; without this wait their start-up lands in the first
    round of ``run()``, outside every ``CrawlEngine.timings`` phase."""
    import ray

    eng.frontier.total()
    eng.seen.count()
    ray.get([s.count.remote() for s in eng.footprints.shards]
            + [h.count_urls.remote({}) for h in eng.host_shards])


def _dir_size(path: str) -> tuple[int, int]:
    n = b = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            n += 1
            b += os.path.getsize(os.path.join(dirpath, f))
    return b, n


def _crawl(run: Run, kind: str, resume: bool) -> None:
    from spidey_ray.pipelines.crawl import CrawlEngine

    tr = run.tracer
    web, settings = inputs.web_config(kind, run.seed)
    if run.small:
        web.pages_per_host = min(web.pages_per_host, 12)
        web.n_hosts = min(web.n_hosts, 8)
    stop_round = 2 if run.small else inputs.WEBS[kind].get("stop_round")
    kw = dict(inputs.ENGINE_KW)
    jobs = []
    room = run.window()
    while True:
        ck = os.path.join(run.work_dir, f"ckpt{len(jobs)}")
        shutil.rmtree(ck, ignore_errors=True)
        t_job = time.perf_counter()
        job = dict(timings={}, resume_s=0.0)
        with tr.span("crawl.job"):
            with tr.span("crawl.engine_init"):
                t0 = time.perf_counter()
                eng = CrawlEngine(web, settings, ckpt_dir=ck, **kw)
                _until_ready(eng)
                job["init_s"] = time.perf_counter() - t0
            _wrap_state(tr, eng)
            run.attempted += 1
            with run.rss, tr.span("crawl.run"):
                t0 = time.perf_counter()
                res = eng.run(stop_after_round=stop_round if resume else None)
                job["run_s"] = time.perf_counter() - t0
            if resume:
                # a restart: drop the engine (its actors exit), then
                # restore from the last complete round checkpoint
                for k, v in eng.timings.items():
                    job["timings"][k] = job["timings"].get(k, 0.0) + v
                del eng, res
                with run.rss, tr.span("crawl.resume"):
                    t0 = time.perf_counter()
                    eng = CrawlEngine.resume(ck, web, settings, **kw)
                    _until_ready(eng)
                    job["resume_s"] = time.perf_counter() - t0
                _wrap_state(tr, eng)
                with run.rss, tr.span("crawl.run"):
                    t0 = time.perf_counter()
                    res = eng.run()
                    job["run_s"] += time.perf_counter() - t0
        for k, v in eng.timings.items():
            job["timings"][k] = job["timings"].get(k, 0.0) + v
        with tr.span("check.read_result"):
            fetch_log = res.fetch_log
            seen = {h.hex() for h in res.seen_hashes}
        job["urls"], job["rounds"] = len(fetch_log), res.rounds
        job["seen_count"] = eng.seen.count() if tr.enabled else 0
        job["ckpt_bytes"], job["ckpt_files"] = _dir_size(ck)
        del eng, res
        shutil.rmtree(ck, ignore_errors=True)
        job["fetch_log"], job["seen"] = fetch_log, seen
        jobs.append(job)
        if not room(time.perf_counter() - t_job):
            break

    with tr.span("check.crawl_reference"):
        ref = checks.crawl_reference(web, settings, run.cache_dir)
    for j in jobs:
        run.errors += checks.check_crawl(j.pop("fetch_log"), j.pop("seen"), ref)

    med = statistics.median
    urls = sum(j["urls"] for j in jobs)
    run_s = sum(j["run_s"] for j in jobs)
    job_s = med([j["run_s"] + j["resume_s"] for j in jobs])
    run.common(setup_s=run.ready_s + med([j["init_s"] for j in jobs]),
               job_s=job_s, items_per_s=urls / run_s)

    n = len(jobs)
    L = run.layer
    phase_sum = 0.0
    for p in PHASES:
        v = sum(j["timings"].get(p, 0.0) for j in jobs) / n
        phase_sum += v
        L[f"crawl.{p}_s"] = v
    L["crawl.unattributed_s"] = run_s / n - phase_sum
    L["crawl.rounds"] = sum(j["rounds"] for j in jobs) / n
    L["crawl.urls"] = urls / n
    L["crawl.engine_init_s"] = med([j["init_s"] for j in jobs])
    L["crawl.resume_s"] = med([j["resume_s"] for j in jobs])
    for name in STATE_SPANS:
        L[name + "_s"] = tr.total_s(name) / n
    keys = tr.counts.get("state.seen_keys", 0)
    L["state.seen_or_add_calls"] = (
        tr.counts.get("state.seen_or_add.calls", 0) / n)
    L["state.seen_keys"] = keys / n
    L["state.seen_new_per_key"] = tr.counts.get("state.seen_new", 0) / max(1, keys)
    L["state.seen_count"] = med([j["seen_count"] for j in jobs])
    ck_bytes = sum(j["ckpt_bytes"] for j in jobs)
    L["ckpt.bytes"] = ck_bytes / n
    L["ckpt.files"] = sum(j["ckpt_files"] for j in jobs) / n
    L["ckpt.bytes_per_url"] = ck_bytes / max(1, urls)


def crawl_wide(run: Run) -> None:
    _crawl(run, "wide", resume=False)


def crawl_deep(run: Run) -> None:
    _crawl(run, "deep", resume=True)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

# operator → the tables it reads.  ``pagerank`` is left out: a pass that
# runs it aborts the driver process inside Ray's reference counter now and
# then (README.md), and an operation that fails only sometimes would make
# two sets of runs disagree on how many operations failed.
CORPUS_OPS = {
    "groupby_agg": ["lineitem"],
    "shuffle_join": ["orders", "customer"],
    "asof_join": ["events"],
    "nb_classifier": ["documents"],
    "dsir_weights": ["documents"],
    "domain_mix": ["documents"],
    "stratified_sample": ["orders"],
    "shard_shuffle": ["documents"],
    "minhash_dedup": ["documents"],
    "curation_pipeline": ["documents"],
}


def corpus(run: Run) -> None:
    import __ray_entry__ as entry

    tr = run.tracer
    data = os.path.join(run.work_dir, "corpus")
    with tr.span("input.corpus"):
        rows = inputs.write_corpus(data, run.seed,
                                   0.01 if run.small else inputs.CORPUS_SCALE)
    qs = entry.queries()
    rows_per_pass = sum(rows[t] for ts in CORPUS_OPS.values() for t in ts)
    passes: list[dict[str, float]] = []
    outputs: list[dict] = []
    room = run.window()
    while True:
        times, outs = {}, {}
        with run.rss, tr.span("corpus.pass"):
            for op in CORPUS_OPS:
                run.attempted += 1
                with tr.span(f"corpus.{op}"):
                    t0 = time.perf_counter()
                    outs[op] = checks.to_pandas(qs[op](data))
                    times[op] = time.perf_counter() - t0
        passes.append(times)
        outputs.append(outs)
        if not room(sum(times.values())):
            break

    with tr.span("check.corpus"):
        _check_corpus(run, data, outputs, entry.oracle_sql())
    med = statistics.median
    pass_s = [sum(p.values()) for p in passes]
    run.common(setup_s=run.ready_s, job_s=med(pass_s),
               items_per_s=rows_per_pass * len(passes) / sum(pass_s))
    for op in CORPUS_OPS:
        run.layer[f"corpus.{op}_s"] = med([p[op] for p in passes])


def _check_corpus(run: Run, data: str, outputs: list[dict], sqls: dict) -> None:
    import pyarrow.parquet as pq

    exact = checks.groupby_exact(os.path.join(data, "lineitem.parquet"))
    docs = pq.read_table(os.path.join(data, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    want = {op: checks.sql_reference(data, sqls[op])
            for op in CORPUS_OPS if op in sqls and op != "groupby_agg"}
    for outs in outputs:
        for op, got in outs.items():
            if op == "groupby_agg":
                run.errors += checks.check_groupby(got, exact)
            elif op in want:
                run.errors += checks.check_frame(op, got, want[op])
            else:   # no SQL oracle: properties of a near-dedup
                run.errors += checks.check_dedup(
                    op, got, docs, text_of_output=(op == "curation_pipeline"))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


STREAMS = ("cold", "zipf")   # inputs.cold_stream, inputs.zipf_stream


def search(run: Run) -> None:
    import ray.data

    from spidey_ray.pipelines.filter_index import run_filter_index
    from spidey_ray.stages.index_stages import doc_token_stream

    tr = run.tracer
    web, settings = inputs.web_config("search", run.seed)
    if run.small:
        web.n_hosts, web.pages_per_host, web.branching = 6, 8, 8
    with tr.span("input.crawl_reference"):
        docs = checks.crawl_reference(web, settings, run.cache_dir)["docs"]
        df: dict[str, int] = {}
        for d in docs:
            for tok in {t for t, _ in doc_token_stream(d["spans"])}:
                df[tok] = df.get(tok, 0) + 1
        vocab = sorted(df, key=lambda t: (-df[t], t))
        n = 60 if run.small else inputs.QUERIES
        streams = {
            "cold": inputs.cold_stream(vocab, run.seed, n),
            "zipf": inputs.zipf_stream(vocab[:inputs.QUERY_VOCAB], run.seed, n)}

    builds: list[float] = []
    rates: list[float] = []
    lat: dict[str, list[float]] = {s: [] for s in STREAMS}
    served = []
    room = run.window()
    while True:
        t_round = time.perf_counter()
        run.attempted += 1
        with run.rss, tr.span("index.build"):
            t0 = time.perf_counter()
            res = run_filter_index(ray.data.from_items(docs), os.path.join(
                run.work_dir, f"index{len(builds)}"))
            builds.append(time.perf_counter() - t0)
        # each stream is served by its own fresh index instance, so each
        # round of each stream meets the same cache state
        answers = []
        for s in STREAMS:
            got, ranked_of, round_lat = _serve(run, res, streams[s], s)
            if s == "cold":
                # the median service rate: steal stalls hit few queries of
                # a round hard, which moves the mean far more than the median
                rates.append(1.0 / statistics.median(round_lat))
            lat[s] += round_lat
            answers.append((got, ranked_of))
        served.append((res, answers))
        run.layer["index.postings_bytes"] = _dir_size(res.postings_path)[0]
        run.layer["index.doc_meta_bytes"] = _dir_size(res.doc_meta_path)[0]
        if not room(time.perf_counter() - t_round):
            break

    with tr.span("check.index"):
        ref = checks.index_reference(docs, run.cache_dir)
        oracle = checks.reference_query_index(ref)
        want = {q: oracle.results_with_info(q)
                for q in set(streams["cold"]) | set(streams["zipf"])}
        for res, answers in served:
            meta, postings = checks.read_index(res.doc_meta_path,
                                               res.postings_path)
            run.errors += checks.check_index(meta, postings, ref)
            run.layer["index.postings_rows"] = postings.num_rows
            shutil.rmtree(os.path.dirname(res.postings_path), ignore_errors=True)
            for got, ranked_of in answers:
                for q, g in got.items():
                    run.errors += checks.check_query(q, g, ranked_of[q], want[q])

    med = statistics.median
    run.common(setup_s=run.ready_s, job_s=med(builds), items_per_s=med(rates))
    L = run.layer
    L["index.num_documents"] = res.num_documents
    L["query.count"] = sum(len(v) for v in lat.values())
    for s, prefix in (("cold", "query."), ("zipf", "query.zipf_")):
        ms = np.array(lat[s]) * 1000.0
        L[prefix + "p50_ms"] = float(np.percentile(ms, 50))
        L[prefix + "p99_ms"] = float(np.percentile(ms, 99))
        L[prefix + "rowgroup_reads_per_query"] = (
            tr.counts.get(f"query.{s}.rowgroup_read.calls", 0) / len(ms))
    ms = np.array(lat["cold"]) * 1000.0
    n_terms = np.array([len(q.split()) for q in streams["cold"]] * len(builds))
    for name, sel in (("1term", n_terms == 1), ("multiterm", n_terms > 1)):
        L[f"query.{name}_p50_ms"] = float(np.median(ms[sel])) if sel.any() else 0.0


def _serve(run: Run, res, stream: list[str], name: str):
    """One closed-loop pass over ``stream`` from a fresh index instance:
    each query is sent when the previous one has returned.
    → ({query: top-10}, {query: ranking}, [latency s])."""
    from spidey_ray.pipelines.query import PartitionedQueryIndex

    tr = run.tracer
    idx = PartitionedQueryIndex(res.postings_path, res.doc_meta_path,
                                res.num_documents)
    ranked_of: dict[str, list] = {}
    inner_query = idx.query

    def query_capturing_ranking(text):   # results_with_info calls query()
        ranked, ms = inner_query(text)
        ranked_of[text] = ranked
        return ranked, ms

    idx.query = query_capturing_ranking
    tr.wrap(idx._postings, "read", f"query.{name}.rowgroup_read")
    tr.wrap(idx._meta, "read", f"query.{name}.rowgroup_read")
    got: dict[str, list] = {}
    lat: list[float] = []
    try:
        with run.rss:
            for q in stream:
                run.attempted += 1
                with tr.span(f"query.{name}"):
                    t0 = time.perf_counter()
                    got[q] = idx.results_with_info(q)
                    lat.append(time.perf_counter() - t0)
    finally:
        idx.close()
    return got, ranked_of, lat


WORKLOADS = {"crawl_wide": crawl_wide, "crawl_deep": crawl_deep,
             "corpus": corpus, "search": search}
