"""Index-build block kernels against the per-doc reference functions
(``doc_token_stream``, ``doc_extents``, ``doc_stem_positions``,
``positions_to_rank``, ``simhash64``) on hand-built documents."""

import ast
import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from spidey_ray.functions import simhash as sh
from spidey_ray.functions.htmlspans import tokenized_len
from spidey_ray.functions.tokenize import index_tokens, tokenize
from spidey_ray.stages import index_stages as st

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _doc(doc_id, title, spans):
    """A documents row with parser-style offsets: each span starts at the
    running tokenized length of the text spans before it."""
    out, off = [], 0
    for kind, text in spans:
        out.append(dict(kind=kind, text=text, media_ref="", offset=off))
        if kind not in ("link", "media"):
            off += tokenized_len(text)
    return dict(doc_id=doc_id, title=title, spans=out)


DOCS = [
    _doc("u/contractions", "Don't Stop",
         [("p", "It's what we don't know"), ("b", "o'clock rock'n'roll")]),
    _doc("u/title-only", "Only A Title", [("link", "home page")]),
    _doc("u/zero-tokens", "", [("p", "!!! --- ..."), ("media", "img")]),
    _doc("u/stems", "Run runs running",
         [("p", "running run"), ("h2", "runs and RUN")]),
    _doc("u/cross-span", "Cross",
         [("p", "alpha beta"), ("link", "skipped words"), ("h1", "gamma delta"),
          ("strong", "beta gamma")]),
    _doc("u/empty-h1", "Empty heading",
         [("p", "one two"), ("h1", ""), ("p", "three"), ("h3", "four")]),
    # 'zeta': 2 title + 4 plain + 2 bold positions, ranks
    # [25, 25, 1, 1, 1, 1, 1.2, 1.2] — see test_wtf_is_a_left_to_right_sum
    _doc("u/bold-sum", "zeta zeta",
         [("p", "zeta zeta zeta zeta"), ("b", "zeta zeta")]),
]


def _table(docs, n_blocks=1):
    """docs as Arrow blocks (slices of one table, as map_batches sees
    them) with crawl_seq and doc_num columns."""
    t = pa.Table.from_pylist([dict(d, crawl_seq=i, doc_num=100 + i)
                              for i, d in enumerate(docs)])
    cuts = np.linspace(0, len(docs), n_blocks + 1).astype(int)
    return [t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]


def _ref_postings(docs):
    """The per-doc postings rows (the oracle's construction), in the row
    order the kernel promises: per doc, unigrams then bigrams, each in
    ``doc_stem_positions`` order."""
    rows = []
    for i, d in enumerate(docs):
        stream = st.doc_token_stream(d["spans"])
        extents = st.doc_extents(d["spans"])
        for bg in (False, True):
            for stem, pos in st.doc_stem_positions(d["title"], stream, bg).items():
                rows.append(dict(stem=stem, doc_id=100 + i, positions=pos,
                                 wtf=st.positions_to_rank(pos, extents),
                                 is_bigram=bg, bucket=st._stem_bucket(stem)))
    return rows


class TestTokens:
    @pytest.mark.parametrize("text", [
        "Don't stop, it's O'Clock", "rock'n'roll ''' 'tis", "", "A b-c 42",
        "WE'RE here they'd've"])
    def test_index_tokens_equal_tokenize(self, text):
        toks = index_tokens(text)
        assert toks == [t for t, _ in tokenize(text)]
        assert tokenized_len(text) == sum(len(t) + 1 for t in toks)

    def test_block_tokens_equal_doc_token_stream(self):
        bt = st.block_tokens(_table(DOCS)[0]["spans"])
        want = [(i, t, p) for i, d in enumerate(DOCS)
                for t, p in st.doc_token_stream(d["spans"])]
        assert list(zip(bt.doc.tolist(), bt.tokens, bt.pos.tolist())) == want
        assert np.diff(bt.doc_starts).tolist() == [
            len(st.doc_token_stream(d["spans"])) for d in DOCS]


class TestFilterPrepare:
    def test_matches_reference_and_drops_zero_token_docs(self):
        got = st.filter_prepare_batch(_table(DOCS)[0], bucket_size=3)
        want = []
        for i, d in enumerate(DOCS):
            toks = [t for t, _ in st.doc_token_stream(d["spans"])]
            if toks:
                want.append((d["doc_id"], i, d["title"], len(toks),
                             len(toks) // 3, sh.simhash64(Counter(toks))))
        assert got.schema == st.FILTERED_SCHEMA
        assert list(zip(*[got[c].to_pylist() for c in got.column_names])) == want
        assert {"u/title-only", "u/zero-tokens"}.isdisjoint(
            got["doc_id"].to_pylist())


class TestEmitPostings:
    def test_rows_equal_per_doc_reference(self):
        got = st.emit_postings_batch(_table(DOCS)[0])
        assert got.schema == st.POSTINGS_SCHEMA
        assert got.to_pylist() == _ref_postings(DOCS)

    def test_cases_are_exercised(self):
        rows = {(r["doc_id"], r["stem"], r["is_bigram"]): r
                for r in _ref_postings(DOCS)}
        # contraction expansion: "don't" → do, not; "it's" → it, is
        assert {("do", False), ("not", False), ("it", False), ("is", False)} <= {
            (s, b) for d, s, b in rows if d == 100}
        # "run runs running" stem to one posting: title then body positions
        assert rows[(103, "run", False)]["positions"] == [-1, -5, -10, 0, 8, 12, 21]
        # body bigrams across span boundaries: p → (link skipped) → h1, and
        # h1 → strong
        assert rows[(104, "beta gamma", True)]["positions"] == [6, 23]
        assert (104, "delta beta", True) in rows
        # title and body never pair
        assert (104, "cross alpha", True) not in rows
        # the title-only doc still has title postings
        assert rows[(101, "titl", False)]["positions"] == [-8]

    def test_wtf_is_a_left_to_right_sum(self):
        """ranks [25, 25, 1, 1, 1, 1, 1.2, 1.2] sum to 56.400000000000006
        left to right, and to 56.4 in numpy's pairwise order."""
        ranks = [25.0, 25.0, 1.0, 1.0, 1.0, 1.0, 1.2, 1.2]
        seq = 0.0
        for r in ranks:
            seq += r
        assert seq == 56.400000000000006
        assert float(np.sum(np.array(ranks))) == 56.4
        got = st.emit_postings_batch(_table(DOCS)[0]).to_pylist()
        zeta = next(r for r in got if r["doc_id"] == 106 and r["stem"] == "zeta"
                    and not r["is_bigram"])
        d = DOCS[6]
        assert zeta["wtf"] == seq == st.positions_to_rank(
            zeta["positions"], st.doc_extents(d["spans"]))

    def test_run_sums_many_long_runs(self):
        rng = np.random.default_rng(7)
        lens = rng.integers(1, 40, size=200)
        vals = rng.choice([25.0, 5.0, 3.0, 2.0, 1.2, 1.0], size=int(lens.sum()))
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        want = [sum(vals[s:s + n].tolist()) for s, n in zip(starts, lens)]
        assert st.run_sums(vals, starts, lens).tolist() == want


class TestDocMeta:
    def test_matches_doc_extents(self):
        from spidey_ray.pipelines.filter_index import (
            DOC_META_SCHEMA,
            _doc_meta_batch,
        )

        got = _doc_meta_batch(_table(DOCS)[0])
        assert got.schema == DOC_META_SCHEMA
        want = []
        for i, d in enumerate(DOCS):
            ext = st.doc_extents(d["spans"])
            want.append(dict(
                doc_id=100 + i, title=d["title"], url=d["doc_id"],
                n_tokens=len(st.doc_token_stream(d["spans"])),
                tag_extents=[{"tag": t, "start": e[0], "end": e[1]}
                             for t in ext for e in ext[t]]))
        assert got.to_pylist() == want
        # the empty h1 keeps the reference's [offset, offset - 1] extent
        assert {"tag": "h1", "start": 8, "end": 7} in want[5]["tag_extents"]


class TestScore:
    def test_matches_serial_scoring(self):
        n_docs = len(DOCS)
        post = st.emit_postings_batch(_table(DOCS)[0])
        got = st.score_stem_group(post, n_docs)
        assert got.schema == st.SCORED_SCHEMA
        by: dict = {}
        for r in got.to_pylist():
            by.setdefault((r["is_bigram"], r["stem"]), []).append(
                [r["doc_id"], r["positions"], r["tfidf"]])
        want: dict = {}
        for r in _ref_postings(DOCS):
            want.setdefault((r["is_bigram"], r["stem"]), []).append(
                [r["doc_id"], r["positions"], r["wtf"]])
        for (bg, stem), plist in want.items():
            idf = math.log10(n_docs / len(plist))
            scored = [[d, p, round((1.0 + math.log10(w)) * idf, 4)]
                      for d, p, w in plist]
            if not bg:
                scored.sort(key=lambda x: x[2], reverse=True)
            assert by[(bg, stem)] == scored, (bg, stem)
        assert by.keys() == want.keys()

    def test_empty_group(self):
        out = st.score_stem_group(st.POSTINGS_SCHEMA.empty_table(), 3)
        assert out.num_rows == 0 and out.schema == st.SCORED_SCHEMA


class TestBlockSplits:
    @pytest.mark.parametrize("n_blocks", [2, 3, len(DOCS)])
    def test_same_rows_at_any_block_split(self, n_blocks):
        from spidey_ray.pipelines.filter_index import _doc_meta_batch

        one = _table(DOCS)[0]
        blocks = _table(DOCS, n_blocks)
        # a multi-chunk block reads the same as a contiguous one
        chunked = pa.concat_tables(blocks)
        for fn in (st.filter_prepare_batch, st.emit_postings_batch,
                   _doc_meta_batch):
            want = fn(one)
            assert pa.concat_tables([fn(b) for b in blocks]).equals(want)
            assert fn(chunked).equals(want)

    def test_empty_block(self):
        empty = _table(DOCS)[0].slice(0, 0)
        assert st.filter_prepare_batch(empty).num_rows == 0
        assert st.emit_postings_batch(empty).num_rows == 0


def test_oracle_does_not_import_the_kernels():
    """The serial oracle stays independent code: it imports none of the
    block kernels it is compared against."""
    path = os.path.join(ROOT, "spidey_ray", "pipelines", "index_oracle.py")
    tree = ast.parse(open(path).read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert names.isdisjoint({"emit_postings_batch", "score_stem_group",
                             "filter_prepare_batch", "block_tokens"})
    assert "doc_stem_positions" in names    # the check reads real imports


def test_attach_doc_num_keeps_rows_and_order():
    """Every row whose doc_id is a survivor, in batch order (a repeated id
    included), numbered by its index in the crawl-ordered survivor ids —
    the dict lookup it replaces, row for row."""
    from spidey_ray.pipelines.filter_index import _attach_doc_num

    ranked = ["u/c", "u/a", "u/e", "u/b"]
    ids = ["u/a", "u/x", "u/b", "u/a", "u/y", "u/e"]
    batch = pa.concat_tables([pa.table({"doc_id": ids[:3], "k": [0, 1, 2]}),
                              pa.table({"doc_id": ids[3:], "k": [3, 4, 5]})])
    got = _attach_doc_num(batch, pa.array(ranked))
    num = {u: i for i, u in enumerate(ranked)}
    assert got.to_pylist() == [dict(doc_id=u, k=k, doc_num=num[u])
                               for k, u in enumerate(ids) if u in num]
    assert _attach_doc_num(batch.slice(0, 0), pa.array(ranked)).num_rows == 0
