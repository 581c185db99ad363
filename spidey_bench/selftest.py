#!/usr/bin/env python3
"""The benchmark's self-test.

    python3 spidey_bench/selftest.py

1. Every output check accepts the right answer and rejects a planted wrong
   one (two swapped fetch-log entries, a missing seen hash, an altered
   posting, a changed aggregate, a wrong top-10, a duplicate survivor...).
2. Every workload runs to its end at a tiny size, traced and untraced, and
   prints exactly the metrics BENCHMARK.json names.
3. A run stopped by SIGTERM exits non-zero without a result, and a run in
   a directory that holds only the benchmark exits non-zero without one.
   After every run, no Ray process is left.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from spidey_bench import checks, inputs  # noqa: E402
from spidey_bench.run import E2E_METRICS, LAYER_METRICS  # noqa: E402

RAY_DAEMONS = ("raylet", "gcs_server", "ray::", "site-packages/ray/")


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def planted(tmp: str) -> None:
    cache = os.path.join(tmp, "cache")
    web, settings = inputs.web_config("search", 5)
    web.n_hosts, web.pages_per_host, web.branching = 6, 8, 8
    ref = checks.crawl_reference(web, settings, cache)
    log, seen = list(ref["fetch_log"]), set(ref["seen"])
    expect(checks.check_crawl(log, seen, ref) == [], "crawl check accepts the oracle")
    swapped = list(log)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    expect(checks.check_crawl(swapped, seen, ref) != [],
           "crawl check rejects two swapped fetch-log entries")
    expect(checks.check_crawl(log, seen - {min(seen)}, ref) != [],
           "crawl check rejects a missing seen hash")

    iref = checks.index_reference(ref["docs"], cache)
    meta, post = copy.deepcopy(iref["doc_meta"]), copy.deepcopy(iref["postings"])
    table = checks.postings_table(post)
    expect(checks.check_index(meta, table, iref) == [], "index check accepts the oracle")
    stem = sorted(post["0"])[0]
    post["0"][stem][0][2] += 0.0001
    expect(checks.check_index(meta, checks.postings_table(post), iref) != [],
           "index check rejects one altered posting")
    post["0"][stem][0][2] -= 0.0001
    plist = next(v for v in post["0"].values() if len(v) >= 2)
    plist[0], plist[1] = plist[1], plist[0]
    expect(checks.check_index(meta, checks.postings_table(post), iref) != [],
           "index check rejects two swapped postings of one stem")
    meta[0]["n_tokens"] += 1
    expect(checks.check_index(meta, table, iref) != [],
           "index check rejects one altered doc_meta row")

    vocab = sorted({w for d in ref["docs"] for sp in d["spans"]
                    for w in sp["text"].split()})
    cold = inputs.cold_stream(vocab, 5, 60)
    words = [w for q in cold for w in q.split()]
    expect(len(cold) == 60 and len(words) == len(set(words)),
           "cold query stream never repeats a word")

    qi = checks.reference_query_index(iref)
    q = "page " + stem
    want = qi.results_with_info(q)
    ranked, _ms = qi.query(q)
    expect(len(want) >= 2 and checks.check_query(q, want, ranked, want) == [],
           "query check accepts the reference answer")
    expect(checks.check_query(q, want[::-1], ranked, want) != [],
           "query check rejects a reordered top-10")
    rising = [list(r) for r in ranked]
    rising[-1][1] = rising[0][1] + 1.0
    expect(checks.check_query(q, want, rising, want) != [],
           "query check rejects increasing scores")

    data = os.path.join(tmp, "corpus")
    inputs.write_corpus(data, 5, 0.01)
    exact = checks.groupby_exact(os.path.join(data, "lineitem.parquet"))
    got = exact[["l_returnflag", "l_linestatus"]].copy()
    got["sum_qty"] = (exact["qty_c"] / 100).round(2)
    got["sum_base_price"] = (exact["price_c"] / 100).round(2)
    got["sum_disc_price"] = (exact["disc_e4"] / 10_000).round(4)
    got["n"] = exact["n"].astype("int64")
    expect(checks.check_groupby(got, exact) == [], "groupby check accepts exact sums")
    bad = got.copy()
    bad.loc[2, "sum_disc_price"] += 0.0001
    expect(checks.check_groupby(bad, exact) != [],
           "groupby check rejects one changed aggregate")

    import __ray_entry__ as entry

    sql = entry.oracle_sql()["stratified_sample"]
    want_df = checks.sql_reference(data, sql)
    expect(checks.check_frame("s", want_df.copy(), want_df) == [],
           "frame check accepts the SQL oracle")
    bad = want_df.copy()
    bad.loc[0, "o_totalprice"] += 0.01
    expect(checks.check_frame("s", bad, want_df) != [],
           "frame check rejects one changed value")

    import pyarrow.parquet as pq

    docs = pq.read_table(os.path.join(data, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    uniq = docs.drop_duplicates("text")
    expect(checks.check_dedup("d", uniq[["doc_id"]], docs, False) == [],
           "dedup check accepts distinct survivors")
    dup = docs[docs["text"].duplicated(keep=False)]
    expect(len(dup) >= 2 and checks.check_dedup("d", dup[["doc_id"]], docs, False) != [],
           "dedup check rejects two survivors with the same text")


def ray_daemons() -> set[int]:
    out = set()
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/cmdline", "rb") as f:
                    cmd = f.read().decode(errors="replace")
            except OSError:
                continue
            if any(k in cmd for k in RAY_DAEMONS):
                out.add(int(d))
    return out


def run_cmd(cwd: str, args: list[str], sigterm_after: float | None = None):
    before = ray_daemons()
    p = subprocess.Popen([sys.executable, "spidey_bench/run.py", *args], cwd=cwd,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if sigterm_after is not None:
        time.sleep(sigterm_after)
        p.send_signal(signal.SIGTERM)
    out, err = p.communicate(timeout=300)
    left = ray_daemons() - before
    expect(not left, f"no Ray process left after run.py {' '.join(args)}")
    return p.returncode, out, err


def end_to_end() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_METRICS,
           "BENCHMARK.json end_to_end metrics match run.py")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS,
           "BENCHMARK.json per_layer metrics match run.py")
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            code, out, err = run_cmd(ROOT, ["--workload", w, "--seed", "3",
                                            "--seconds", "1", "--trace", trace,
                                            "--small"])
            ok = code == 0 and out.strip()
            res = json.loads(out.strip().splitlines()[-1]) if ok else {}
            names = E2E_METRICS if trace == "0" else LAYER_METRICS
            expect(bool(ok) and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1
                   and set(res["metrics"]) == set(names)
                   and (trace == "1" or all(
                       m["value"] > 0 for m in res["metrics"].values())),
                   f"{w} --trace {trace} runs to its end and checks out"
                   + ("" if ok else f"\n{err[-3000:]}"))


def failure_paths(tmp: str) -> None:
    code, out, _ = run_cmd(ROOT, ["--workload", "crawl_deep", "--seed", "3",
                                  "--seconds", "1", "--small"], sigterm_after=8.0)
    expect(code != 0 and not out.strip(), "SIGTERM: non-zero exit, no result")
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "spidey_bench"),
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out, _ = run_cmd(bare, ["--workload", "search", "--seed", "1",
                                  "--seconds", "1"])
    expect(code != 0 and not out.strip(),
           "benchmark alone, without the program: non-zero exit, no result")


def main() -> None:
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"), prefix="selftest-")
    try:
        planted(tmp)
        end_to_end()
        failure_paths(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test passed")


if __name__ == "__main__":
    main()
