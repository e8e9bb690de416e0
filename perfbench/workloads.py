"""Seeded workload inputs: the single source of every workload's data.

The program only ever sees the files written here. The cluster labels stay
with the benchmark: ``classification`` is stripped from the written corpus,
because ``+context`` enrichment would append it to the body and two-digit
labels ("10".."19") survive tokenisation as a perfect cluster tag.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from coldpair.corpus import Document
from coldpair.synthetic import (boilerplate_corpus, random_ratings,
                                scale_corpus, write_corpus_jsonl,
                                write_ratings_tsv)

N_CLUSTERS = 20
RECOMMEND_USERS = 200


@dataclass(frozen=True)
class Spec:
    """One workload: corpus shape, backend flags, ratings shape, arrivals."""

    corpus: str  # "scale" | "boilerplate"
    n_docs: int
    cold_frac: float
    cli_args: tuple[str, ...]
    n_users: int
    ratings_per_user: int
    n_arrivals: int


# Why each workload exists is recorded in BENCHMARK.json; in short:
# d2v-10k stresses doc2vec, tfidf-burst the matcher and enrichment, lda-1k
# the LDA fit and fold-in.
SPECS = {
    "d2v-10k": Spec("scale", 10000, 0.02, ("--backend", "doc2vec"),
                    200, 5, 150),
    "tfidf-burst": Spec("boilerplate", 8000, 0.30,
                        ("--backend", "tfidf+context"), 200, 5, 1000),
    "lda-1k": Spec("scale", 1000, 0.10, ("--backend", "lda", "--sweeps", "20"),
                   200, 5, 50),
}


@dataclass
class Inputs:
    """Paths of the written inputs plus what the benchmark keeps to itself."""

    corpus: Path  # base corpus: warm items plus the base cold block
    corpus_all: Path  # base corpus plus the unseen cold arrivals
    ratings: Path
    labels: dict[str, str]  # doc id -> generated cluster
    base_ids: list[str]
    warm_ids: list[str]
    cold_ids: list[str]  # base cold block
    arrival_ids: list[str]
    users: list[str]  # the distinct users `recommend` is called for
    n_ratings: int


def _seeds(seed: int) -> tuple[int, int, int, int]:
    base, arrivals, ratings, users = np.random.SeedSequence(seed).generate_state(4)
    return int(base), int(arrivals), int(ratings), int(users)


def _docs(spec: Spec, n_docs: int, seed: int) -> list[Document]:
    if spec.corpus == "scale":
        return scale_corpus(n_docs, n_clusters=N_CLUSTERS, cold_frac=0.0,
                            seed=seed)
    return boilerplate_corpus(n_docs, n_clusters=N_CLUSTERS, dialects=3,
                              seed=seed)


def generate(name: str, seed: int, out_dir: Path) -> Inputs:
    """Write workload ``name``'s inputs for ``seed`` under ``out_dir``.

    Cold items are a contiguous block of ids at the start of the corpus, so
    every cluster (id mod 20) keeps warm members. Arrivals come from a second
    generator call with another seed and get fresh ``a``-prefixed ids.
    """
    spec = SPECS[name]
    s_base, s_arr, s_rat, s_users = _seeds(seed)
    n_cold = int(round(spec.n_docs * spec.cold_frac))
    base = [dataclasses.replace(d, warm=i >= n_cold)
            for i, d in enumerate(_docs(spec, spec.n_docs, s_base))]
    arrivals = [dataclasses.replace(d, id="a" + d.id, warm=False)
                for d in _docs(spec, spec.n_arrivals, s_arr)]
    labels = {d.id: d.classification for d in base + arrivals}
    stripped = [dataclasses.replace(d, classification=None)
                for d in base + arrivals]

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = out_dir / "corpus.jsonl"
    corpus_all = out_dir / "corpus_all.jsonl"
    ratings = out_dir / "ratings.tsv"
    write_corpus_jsonl(stripped[:len(base)], corpus)
    write_corpus_jsonl(stripped, corpus_all)

    warm_ids = [d.id for d in base if d.warm]
    rows = random_ratings(base, n_users=spec.n_users,
                          ratings_per_user=spec.ratings_per_user, seed=s_rat)
    write_ratings_tsv(rows, ratings)

    all_users = sorted({u for u, _, _ in rows})
    picks = np.random.default_rng(s_users).choice(
        len(all_users), size=min(RECOMMEND_USERS, len(all_users)),
        replace=False)
    return Inputs(
        corpus=corpus, corpus_all=corpus_all, ratings=ratings, labels=labels,
        base_ids=[d.id for d in base], warm_ids=warm_ids,
        cold_ids=[d.id for d in base if not d.warm],
        arrival_ids=[d.id for d in arrivals],
        users=[all_users[i] for i in sorted(picks)], n_ratings=len(rows))
