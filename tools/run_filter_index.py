"""Filter + index job entry point (the reference's
`python3 FilterMain.py && python3 IndexerMain.py` step as ONE Ray Data
pipeline — SURVEY.md §3.2).

Input sources (pick one):
  --tar-parts 'page_data/data.tar.gz-parta*'   split tar parts (FilterMain.py shape)
  --jsonl 'pages/*.jsonl'                      loose JSONL page files
  --tar-shards 'shards/*.tar.gz'               complete per-shard tars (parallel read)
  --pages pages.parquet|dir                    rows with (url, content[, encoding])
  --crawl-ckpt CKPT_DIR                        a CrawlEngine checkpoint's documents

Output: <out>/doc_meta, <out>/postings, <out>/index_meta.json — servable by
tools/search_cli.py and tools/serve_rest.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--tar-parts")
    src.add_argument("--tar-shards")
    src.add_argument("--jsonl")
    src.add_argument("--pages")
    src.add_argument("--crawl-ckpt")
    ap.add_argument("--out", required=True)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", 8)))
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from spidey_ray.pipelines.filter_index import run_filter_index
    from spidey_ray.pipelines.ingest import (
        documents_from_pages, read_jsonl_pages, read_tar_parts,
        read_tar_shards)

    t0 = time.time()
    if args.tar_parts:
        docs = documents_from_pages(read_tar_parts(args.tar_parts))
    elif args.tar_shards:
        docs = documents_from_pages(read_tar_shards(args.tar_shards))
    elif args.jsonl:
        docs = documents_from_pages(read_jsonl_pages(args.jsonl))
    elif args.pages:
        docs = documents_from_pages(ray.data.read_parquet(args.pages))
    else:
        from spidey_ray.pipelines.crawl import read_documents

        docs = read_documents(args.crawl_ckpt)
        if docs is None:
            ap.error(f"{args.crawl_ckpt} holds no crawl documents")

    os.makedirs(args.out, exist_ok=True)
    res = run_filter_index(docs, args.out)
    print(json.dumps({
        "out": args.out,
        "num_documents": res.num_documents,
        "sec": round(time.time() - t0, 2),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
