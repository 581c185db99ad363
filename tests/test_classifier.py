"""Hashed Naive Bayes classifier (stages/classifier.py): closed-form
count training + integer micro-log scoring, bit-equal to a serial mirror
on any block layout."""

import numpy as np
import pyarrow as pa
import pytest

from spidey_ray.stages.classifier import (
    class_bucket_counts, nb_model_micro, nb_reference, nb_train_classify)


TRAIN = [
    ("food", "apple banana soup stew pie apple pie banana bread"),
    ("food", "soup noodles rice curry stew bread apple"),
    ("food", "banana smoothie apple tart rice bowl"),
    ("tech", "kernel driver compiler linker binary kernel stack"),
    ("tech", "compiler optimization register allocator stack frame"),
    ("tech", "driver interrupt kernel module binary patch"),
    ("tech", "network socket packet buffer kernel driver"),
]
CORPUS = [
    (0, "apple pie with banana bread and soup"),
    (1, "kernel driver compiler crash in the binary"),
    (2, "rice curry stew"),
    (3, "socket buffer interrupt stack"),
    (4, ""),                       # zero tokens → no output row
    (5, "apple kernel"),           # mixed — deterministic either way
]


def _train_ds(blocks=1):
    import ray.data

    t = pa.table({
        "label": [l for l, _ in TRAIN],
        "text": [x for _, x in TRAIN],
    })
    ds = ray.data.from_arrow(t)
    return ds.repartition(blocks) if blocks > 1 else ds


def _corpus_ds(blocks=1):
    import ray.data

    t = pa.table({
        "doc_id": pa.array([d for d, _ in CORPUS], type=pa.int64()),
        "text": [x for _, x in CORPUS],
    })
    ds = ray.data.from_arrow(t)
    return ds.repartition(blocks) if blocks > 1 else ds


class TestNbClassifier:
    def test_matches_serial_mirror(self, ray_session):
        exp = nb_reference(TRAIN, CORPUS)
        got = (nb_train_classify(_train_ds(), _corpus_ds(), label_col="label")
               .to_pandas().sort_values("doc_id"))
        assert list(map(tuple, got.itertuples(index=False))) == exp

    def test_layout_independence(self, ray_session):
        exp = nb_reference(TRAIN, CORPUS)
        for tb, cb in ((3, 2), (5, 4)):
            got = (nb_train_classify(_train_ds(tb), _corpus_ds(cb),
                                     label_col="label")
                   .to_pandas().sort_values("doc_id"))
            assert list(map(tuple, got.itertuples(index=False))) == exp

    def test_separable_classes_recovered(self, ray_session):
        got = (nb_train_classify(_train_ds(), _corpus_ds(),
                                 label_col="label")
               .to_pandas().set_index("doc_id")["pred_label"])
        assert got[0] == "food" and got[2] == "food"
        assert got[1] == "tech" and got[3] == "tech"
        assert 4 not in got.index          # empty doc emitted no row

    def test_prior_reflects_class_imbalance(self, ray_session):
        counts, ndocs = class_bucket_counts(_train_ds(), label_col="label")
        assert ndocs == {"food": 3, "tech": 4}
        labels, priors, w = nb_model_micro(counts, ndocs)
        assert labels == ["food", "tech"]
        # log10(3/7) < log10(4/7) < 0
        assert priors[0] < priors[1] < 0
        assert w.shape == (2, 4096) and w.dtype == np.int64

    def test_many_classes_match_serial_mirror(self, ray_session):
        """Nine classes, scored one class at a time: predictions and
        integer scores equal the serial mirror's on every doc, on one block
        and on several."""
        import ray.data

        words = ("apple kernel river violin tennis galaxy pepper marble "
                 "falcon").split()
        train = [(f"c{c}", " ".join(f"{w}{c}{j} shared{j % 3} {w}{c}{j}"
                                    for j in range(4)))
                 for c, w in enumerate(words) for _ in range(c % 3 + 1)]
        corpus = [(i, f"{words[i % 9]}{i % 9}{i % 4} shared{i % 3} "
                      f"{words[i % 9]}{i % 9}{(i + 1) % 4}")
                  for i in range(36)]
        corpus += [(36 + i, f"{words[i]}{i}0 {words[i + 4]}{i + 4}1")
                   for i in range(4)] + [(40, ""), (41, "unseen words")]
        exp = nb_reference(train, corpus)
        assert len({lab for _, lab, _ in exp}) == 9
        tt = pa.table({"label": [l for l, _ in train],
                       "text": [x for _, x in train]})
        ct = pa.table({"doc_id": pa.array([d for d, _ in corpus],
                                          type=pa.int64()),
                       "text": [x for _, x in corpus]})
        for blocks in (1, 4):
            got = (nb_train_classify(
                ray.data.from_arrow(tt).repartition(blocks),
                ray.data.from_arrow(ct).repartition(blocks),
                label_col="label").to_pandas().sort_values("doc_id"))
            assert list(map(tuple, got.itertuples(index=False))) == exp

    def test_tie_breaks_to_first_sorted_label(self):
        # identical training text for two labels → identical scores on
        # any doc; argmax must return the lexicographically first label
        train = [("b", "same words here"), ("a", "same words here")]
        out = nb_reference(train, [(0, "same words entirely new")])
        assert out[0][1] == "a"

    def test_empty_training_raises(self, ray_session):
        import ray.data

        empty = ray.data.from_arrow(pa.table({
            "label": pa.array([], type=pa.string()),
            "text": pa.array([], type=pa.string())}))
        with pytest.raises(ValueError):
            nb_train_classify(empty, _corpus_ds(), label_col="label")

    def test_null_labels_rejected_with_their_ids(self, ray_session):
        import ray.data

        t = pa.table({
            "doc_id": pa.array(list(range(len(TRAIN))) + [9001, 9002],
                               type=pa.int64()),
            "label": [l for l, _ in TRAIN] + [None, None],
            "text": [x for _, x in TRAIN] + ["apple soup", ""],
        })
        train = ray.data.from_arrow(t).repartition(3)
        with pytest.raises(ValueError) as err:
            nb_train_classify(train, _corpus_ds(), label_col="label")
        msg = str(err.value)
        assert "null 'label'" in msg
        assert "9001" in msg and "9002" in msg
