"""Tests of the benchmark itself: output checks, input generation, tracer."""

import math
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched, self_times  # noqa: E402

PARTNERS = {"w1": {"c1", "c2"}, "w2": {"c3"}}


def _recommend_file(tmp_path, rows):
    path = tmp_path / "recommend_u1.tsv"
    path.write_text("".join(f"u1\t{rank}\t{item}\t{tag}\n"
                            for rank, (item, tag) in enumerate(rows, 1)))
    return path


SCORES = {"w1": 9.0, "w2": 7.0, "w3": 7.0, "w4": 1.0}


def test_recommend_check_accepts_paired_rows_behind_their_partner(tmp_path):
    rows = [("w1", "cf"), ("c1", "paired"), ("c2", "paired"), ("w2", "cf"),
            ("c3", "paired"), ("w3", "cf")]
    path = _recommend_file(tmp_path, rows)
    assert checks.check_recommend(path, "u1", SCORES, 3, PARTNERS,
                                  max_len=20) == []
    assert checks.count_tags(path) == (3, 6)


def test_recommend_check_accepts_tied_cf_rows_in_either_order(tmp_path):
    path = _recommend_file(tmp_path, [("w1", "cf"), ("w3", "cf")])
    assert checks.check_recommend(path, "u1", SCORES, 2, PARTNERS,
                                  max_len=20) == []


def test_recommend_check_rejects_paired_row_moved_from_its_partner(tmp_path):
    rows = [("w1", "cf"), ("c1", "paired"), ("w2", "cf"), ("c2", "paired"),
            ("w3", "cf")]
    path = _recommend_file(tmp_path, rows)
    problems = checks.check_recommend(path, "u1", SCORES, 3, PARTNERS,
                                      max_len=20)
    assert len(problems) == 1 and "c2" in problems[0]


def test_recommend_check_rejects_changed_cf_rows_duplicates_and_length(tmp_path):
    rows = [("w2", "cf"), ("w1", "cf"), ("c1", "paired"), ("c1", "paired")]
    path = _recommend_file(tmp_path, rows)
    problems = checks.check_recommend(path, "u1", SCORES, 2, PARTNERS,
                                      max_len=3)
    assert any("cf rows are not" in p for p in problems)
    assert any("duplicate" in p for p in problems)
    assert any("max_len" in p for p in problems)
    short = _recommend_file(tmp_path, [("w1", "cf")])
    assert checks.check_recommend(short, "u1", SCORES, 2, PARTNERS,
                                  max_len=20) != []


def test_cf_scores_sum_similarity_times_rating_over_unrated_neighbours():
    nbrs = {"i1": [("i2", 0.5), ("i3", 0.25)], "i2": [("i3", 1.0)]}
    assert checks.cf_scores({"i1": 4.0}, nbrs) == {"i2": 2.0, "i3": 1.0}
    assert checks.cf_scores({"i1": 4.0, "i2": 2.0}, nbrs) == {"i3": 3.0}


def test_pairs_check_and_quality(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("cold_id\twarm_id\tscore\n"
                    "c1\tw1\t0.900000\nc2\t-\tnan\nc3\tw3\t0.400000\n")
    problems = checks.check_pairs(path, ["c1", "c2", "c3"], {"w1", "w2"})
    assert len(problems) == 1 and "c3" in problems[0]
    assert checks.check_pairs(path, ["c1", "c2"], {"w1", "w2", "w3"}) != []
    labels = {"c1": "0", "c2": "0", "c3": "1", "w1": "0", "w3": "0"}
    assert checks.pair_counts(checks.read_pairs(path), labels) == (3, 2, 1)


def test_top1_check_against_brute_force_scores():
    rows = [("c1", "w1", 0.9), ("c2", "-", math.nan)]
    best = {"c1": 0.9, "c2": 0.3}
    cosine = {("c1", "w1"): 0.9}
    assert checks.check_top1(rows, best, cosine, 0.5) == []
    # a better warm item exists, or an unpaired item had one above threshold
    assert len(checks.check_top1(rows, {"c1": 0.95, "c2": 0.6}, cosine,
                                 0.5)) == 2
    # the listed score is not the cosine, or is below the threshold
    assert checks.check_top1([("c1", "w1", 0.8)], best, cosine, 0.5) != []
    assert checks.check_top1(rows[:1], best, cosine, 0.95) != []


def test_neighborhood_check_against_brute_force_cosines():
    items = ["a", "b", "c", "d"]
    sims = np.array([[1.0, 0.9, 0.5, 0.1],
                     [0.9, 1.0, 0.2, 0.3],
                     [0.5, 0.2, 1.0, 0.0],
                     [0.1, 0.3, 0.0, 1.0]])
    good = {"a": [("b", 0.9), ("c", 0.5)], "b": [("a", 0.9), ("d", 0.3)],
            "c": [("a", 0.5), ("b", 0.2)], "d": [("b", 0.3), ("a", 0.1)]}
    assert checks.check_neighborhoods(good, items, sims, k=2) == []
    assert checks.check_neighborhoods(good, items, sims, k=3) != []
    empty = dict(good, c=[])
    assert len(checks.check_neighborhoods(empty, items, sims, k=2)) == 1
    skipped = dict(good, a=[("b", 0.9), ("d", 0.1)])
    assert len(checks.check_neighborhoods(skipped, items, sims, k=2)) == 1
    unordered = dict(good, a=[("c", 0.5), ("b", 0.9)])
    assert len(checks.check_neighborhoods(unordered, items, sims, k=2)) == 1
    wrong = dict(good, a=[("b", 0.8), ("c", 0.5)])
    assert len(checks.check_neighborhoods(wrong, items, sims, k=2)) == 1


def _files(inputs):
    return {p.name: p.read_bytes()
            for p in (inputs.corpus, inputs.corpus_all, inputs.ratings)}


def test_generator_is_byte_identical_for_one_seed(tmp_path):
    a = workloads.generate("lda-1k", 7, tmp_path / "a")
    b = workloads.generate("lda-1k", 7, tmp_path / "b")
    c = workloads.generate("lda-1k", 8, tmp_path / "c")
    assert _files(a) == _files(b)
    assert (a.users, a.labels) == (b.users, b.labels)
    assert _files(a)["corpus.jsonl"] != _files(c)["corpus.jsonl"]


def test_generator_shapes(tmp_path):
    inputs = workloads.generate("lda-1k", 3, tmp_path)
    assert not set(inputs.arrival_ids) & set(inputs.base_ids)
    assert inputs.cold_ids == inputs.base_ids[:len(inputs.cold_ids)]
    warm_clusters = {inputs.labels[d] for d in inputs.warm_ids}
    assert {inputs.labels[d] for d in inputs.cold_ids} <= warm_clusters
    assert b"classification" not in inputs.corpus_all.read_bytes()
    assert len(set(inputs.users)) == workloads.RECOMMEND_USERS


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
        ["d", 6.0, 7.5, 3, None],
        ["e", 7.0, 9.5, 3, None],  # overlaps d and runs past its parent
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.5, 2.5]


def test_wrapped_calls_nest_and_patches_are_restored():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.outer
    tracer = Tracer("t")
    targets = [(mod, "inner", tracer.wrap(mod.inner, "inner",
                                          lambda r, a, k: {"n": r})),
               (mod, "outer", tracer.wrap(mod.outer, "outer"))]
    with patched(targets):
        with tracer.span("phase") as root:
            assert mod.outer(1) == 4
    assert mod.outer is original
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("phase", -1, None), ("outer", root, None),
                     ("inner", 1, {"n": 2})]
