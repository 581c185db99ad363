#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 spidey_bench/run.py --workload crawl_wide --seed 1 --seconds 15 --trace 0

Workloads: crawl_wide, crawl_deep, corpus, search (README.md says what each
stresses).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps the same calls in spans, prints the per-layer metrics and writes the
spans to ``spidey_bench/_out/trace-<workload>-<seed>.json``.  ``--small``
shrinks every input (the self-test uses it).

The result line: {"correct", "attempted", "failed", "metrics": {name:
{"value", "unit"}}}.  Exit status 0 means the run completed (``correct``
says whether every output check passed); any other status means it did
not, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from spidey_bench.workloads import CORPUS_OPS, PHASES  # noqa: E402

# every workload prints every metric of its kind; a layer a workload does
# not reach reads 0
E2E_METRICS = {"setup_s": "s", "job_s": "s", "items_per_s": "1/s",
               "driver_peak_rss_mb": "MB"}
LAYER_METRICS = {
    **{f"crawl.{p}_s": "s" for p in PHASES},
    "crawl.unattributed_s": "s", "crawl.rounds": "count",
    "crawl.urls": "count", "crawl.engine_init_s": "s", "crawl.resume_s": "s",
    "state.seen_or_add_s": "s", "state.seen_or_add_calls": "count",
    "state.seen_keys": "count", "state.seen_new_per_key": "ratio",
    "state.seen_count": "count", "state.frontier_add_s": "s",
    "state.frontier_admit_s": "s", "state.footprints_get_s": "s",
    "state.footprints_put_s": "s", "state.checkpoint_refs_s": "s",
    "ckpt.bytes": "B", "ckpt.files": "count", "ckpt.bytes_per_url": "B",
    "sources.fetch_pages_per_s": "1/s",
    "functions.parse_document_pages_per_s": "1/s",
    "functions.crawl_tokenize_tokens_per_s": "1/s",
    "functions.simhash64_block_docs_per_s": "1/s",
    "functions.url_hash_per_s": "1/s",
    "stages.round_process_batch_pages_per_s": "1/s",
    **{f"corpus.{op}_s": "s" for op in CORPUS_OPS},
    "index.num_documents": "count", "index.postings_rows": "count",
    "index.postings_bytes": "B", "index.doc_meta_bytes": "B",
    "query.count": "count", "query.p50_ms": "ms", "query.p99_ms": "ms",
    "query.1term_p50_ms": "ms", "query.multiterm_p50_ms": "ms",
    "query.rowgroup_reads_per_query": "ratio",
    "query.zipf_p50_ms": "ms", "query.zipf_p99_ms": "ms",
    "query.zipf_rowgroup_reads_per_query": "ratio",
    "machine.steal_pct": "%", "machine.probe_s": "s",
    "trace.job_s": "s", "trace.spans": "count",
}


def warm_up() -> None:
    """Start and warm every task worker: import the program's modules in
    each, and run one small Ray Data pipeline with an exchange."""
    import ray
    import ray.data

    @ray.remote
    def imports() -> int:
        import spidey_ray.pipelines.crawl  # noqa: F401
        import spidey_ray.stages.round_stage  # noqa: F401
        return os.getpid()

    from spidey_bench.session import NUM_CPUS

    ray.get([imports.remote() for _ in range(2 * NUM_CPUS)])
    ray.data.range(64, override_num_blocks=4).groupby("id").count().take_all()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["crawl_wide", "crawl_deep", "corpus", "search"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import spidey_ray  # noqa: F401  (fails fast where the program is absent)

    from spidey_bench import inputs, probes, workloads
    from spidey_bench.session import RaySession
    from spidey_bench.trace import (Tracer, cpu_jiffies,
                                    seconds_since_process_start, steal_pct)

    jiffies0 = cpu_jiffies()
    tracer = Tracer(bool(args.trace))
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with RaySession(ROOT, os.path.join(ROOT, ".rt")) as session:
            with tracer.span("setup.warm_up"):
                warm_up()
            run = workloads.Run(
                seed=args.seed, seconds=args.seconds, tracer=tracer,
                work_dir=work, cache_dir=os.path.join(HERE, "_work", "cache"),
                small=args.small, ready_s=seconds_since_process_start())
            with tracer.span("workload"):
                workloads.WORKLOADS[args.workload](run)
            for e in run.errors:
                print(f"CHECK FAILED: {e}", file=sys.stderr)
            if args.trace:
                web, settings = inputs.web_config("wide", args.seed)
                run.layer.update(probes.layer_rates(web, settings))
                run.layer["machine.probe_s"] = probes.machine_probe_s()
                run.layer["machine.steal_pct"] = steal_pct(jiffies0)
                run.layer["trace.spans"] = len(tracer.spans)
                wanted, got = LAYER_METRICS, run.layer
            else:
                wanted, got = E2E_METRICS, run.e2e
            metrics = {name: {"value": float(got.get(name, 0.0)), "unit": unit}
                       for name, unit in wanted.items()}
            print(f"steal_pct {steal_pct(jiffies0):.2f}", file=sys.stderr)
            # an operation that raises ends the run without a result, so a
            # completed run has no failed operation
            result = json.dumps({
                "correct": not run.errors, "attempted": run.attempted,
                "failed": 0, "metrics": metrics})
        # only once the session and all its processes are gone
        session.write_result(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        tracer.write(os.path.join(HERE, "_out",
                                  f"trace-{args.workload}-{args.seed}.json"))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:   # incl. SIGTERM/SIGINT: no result, non-zero exit
        traceback.print_exc()
        sys.exit(1)
