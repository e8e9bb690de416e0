"""Brute-force oracle for one workload run's pairs and neighbourhoods.

    python3 perfbench/oracle.py JOB.json

``run.py`` starts it in a fresh process after every timed phase, so its
time and memory stay out of the figures. JOB names the source directory,
the trained model's directory, the corpus holding every document, the
ratings, the workload's CLI flags, the pairs files to check and the
neighbourhoods file. The vectors come from the trained model through the
program's ``Embedder.vector``; the cosines, top-1 choices and neighbourhoods
are computed here with numpy. The last stdout line maps each checked file's
key to its problems.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import checks

CHUNK = 256  # cold rows scored against every warm item at once
# Processes embedding the documents: LDA fold-in and doc2vec inference are
# most of a check's time. Two at most, and no more than the CPUs this
# process may use.
WORKERS = min(2, len(os.sched_getaffinity(0)))

_embedder = None  # the trained model, inherited by the forked workers


def _vector(doc):
    return _embedder.vector(doc)


def vectors(embedder, docs: list) -> list:
    """``embedder.vector`` of each document, over WORKERS processes."""
    global _embedder
    _embedder = embedder
    with multiprocessing.get_context("fork").Pool(WORKERS) as pool:
        out = pool.map(_vector, docs, chunksize=16)
        pool.close()
        pool.join()
    return out


def unit_rows(mat):
    """``mat`` (dense or CSR) with each row scaled to unit norm; zero rows
    stay zero."""
    if not sp.issparse(mat):
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        return mat / norms[:, None]
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    return (sp.diags(1.0 / norms) @ mat).tocsr()


def stack(vectors: list):
    """One matrix of dense vectors, or CSR of tf-idf SparseVectors."""
    if isinstance(vectors[0], np.ndarray):
        return np.vstack([np.asarray(v, dtype=np.float64) for v in vectors])
    indptr = np.cumsum([0] + [len(v.indices) for v in vectors])
    indices = np.concatenate([v.indices for v in vectors])
    return sp.csr_matrix((np.concatenate([v.weights for v in vectors]),
                          indices, indptr),
                         shape=(len(vectors), int(indices.max()) + 1))


def pair_problems(job: dict, cli, corpus) -> dict[str, list[str]]:
    """check_top1 of every pairs file in ``job["pairs"]``."""
    args = cli.build_parser().parse_args(["pair", *job["cli_args"]])
    config = cli.resolve_config(args)
    embedder = cli._load_embedder(cli.backend_config(config),
                                  Path(job["model_dir"]))
    docs = corpus.load_corpus(job["corpus"])
    warm = [d for d in docs if d.warm]
    cold = [d for d in docs if not d.warm]
    rows = {key: checks.read_pairs(Path(path))
            for key, path in job["pairs"].items()}
    warm_pos = {d.id: b for b, d in enumerate(warm)}
    wanted: dict[str, set[int]] = {}
    for key_rows in rows.values():
        for c, w, _ in key_rows:
            if w in warm_pos:
                wanted.setdefault(c, set()).add(warm_pos[w])

    both = unit_rows(stack(vectors(embedder, warm + cold)))
    W, C = both[:len(warm)], both[len(warm):]
    best: dict[str, float] = {}
    cosine: dict[tuple[str, str], float] = {}
    for lo in range(0, len(cold), CHUNK):
        scores = C[lo:lo + CHUNK] @ W.T
        scores = scores.toarray() if sp.issparse(scores) else scores
        for r, doc in enumerate(cold[lo:lo + CHUNK]):
            best[doc.id] = float(scores[r].max())
            for b in wanted.get(doc.id, ()):
                cosine[(doc.id, warm[b].id)] = float(scores[r, b])
    threshold = float(config["threshold"])
    return {key: checks.check_top1(key_rows, best, cosine, threshold)
            for key, key_rows in rows.items()}


def neighborhood_problems(job: dict, cli) -> list[str]:
    """check_neighborhoods against cosines of the rating columns."""
    args = cli.build_parser().parse_args(["cf-build", *job["cli_args"]])
    config = cli.resolve_config(args)
    if config["metric"] != "cosine":
        return [f"the oracle checks cosine neighbourhoods only, not "
                f"{config['metric']}"]
    by_user = checks.read_ratings(Path(job["ratings"]))
    items = list(dict.fromkeys(i for rated in by_user.values() for i in rated))
    item_pos = {item: a for a, item in enumerate(items)}
    rows, cols, vals = [], [], []
    for u, rated in enumerate(by_user.values()):
        for item, rating in rated.items():
            rows.append(item_pos[item])
            cols.append(u)
            vals.append(rating)
    unit = unit_rows(sp.csr_matrix((vals, (rows, cols)),
                                   shape=(len(items), len(by_user))))
    sims = (unit @ unit.T).toarray()
    nbrs = checks.read_neighborhoods(Path(job["neighborhoods"]))
    return checks.check_neighborhoods(nbrs, items, sims, int(config["cf_k"]))


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from coldpair import cli, corpus
    problems = pair_problems(job, cli, corpus)
    problems["neighborhoods"] = neighborhood_problems(job, cli)
    print(json.dumps(problems))


if __name__ == "__main__":
    main()
