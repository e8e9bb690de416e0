"""Output checks. Each function returns a list of problems; empty means the
output is correct. The benchmark counts an operation with any problem as
failed.

The oracles are brute force and independent of the program's matcher, CF
and ranking code: ``oracle.py`` computes the cosines, and the functions here
compare the program's files against them."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PAIRED = "paired"
CF = "cf"
SCORE_TOL = 1e-6  # pairs.tsv writes scores with 6 decimals
SIM_TOL = 1e-8  # neighborhoods.tsv writes scores with 10 significant digits
TIE_TOL = 1e-9  # float noise between two ways of computing one sum


def read_pairs(path: Path) -> list[tuple[str, str, float]]:
    """Rows of a pairs.tsv as (cold id, warm id or "-", score)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("cold_id"):
        raise ValueError(f"{path}: missing header")
    rows = []
    for line in lines[1:]:
        cold, warm, score = line.split("\t")
        rows.append((cold, warm, float(score)))
    return rows


def read_ratings(path: Path) -> dict[str, dict[str, float]]:
    """user -> {item: rating}, in file order."""
    by_user: dict[str, dict[str, float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        user, item, rating = line.split("\t")
        by_user.setdefault(user, {})[item] = float(rating)
    return by_user


def read_neighborhoods(path: Path) -> dict[str, list[tuple[str, float]]]:
    """item -> [(neighbour, similarity)], in file order."""
    nbrs: dict[str, list[tuple[str, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        item, neighbor, score = line.split("\t")
        nbrs.setdefault(item, []).append((neighbor, float(score)))
    return nbrs


def check_pairs(path: Path, cold_ids: list[str],
                warm_ids: set[str]) -> list[str]:
    """Every cold id is listed exactly once, with a warm partner or as
    unpaired ("-" with no score)."""
    try:
        rows = read_pairs(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems = []
    listed = [cold for cold, _, _ in rows]
    if sorted(listed) != sorted(cold_ids):
        problems.append(f"{path.name}: lists {len(listed)} rows for "
                        f"{len(cold_ids)} cold ids, or other ids")
    for cold, warm, score in rows:
        if warm == "-":
            if not math.isnan(score):
                problems.append(f"{path.name}: unpaired {cold} has a score")
        elif warm not in warm_ids:
            problems.append(f"{path.name}: {cold} paired to non-warm {warm}")
    return problems


def check_top1(rows: list[tuple[str, str, float]], best: dict[str, float],
               cosine: dict[tuple[str, str], float],
               threshold: float) -> list[str]:
    """Each partner is a best-scoring warm item of its cold item, scores at
    least ``threshold`` and is listed with its cosine; an unpaired cold item
    has no warm item at or above ``threshold``. ``best[c]`` is cold item
    c's highest cosine over all warm items, ``cosine[(c, w)]`` the cosine of
    c and w."""
    problems = []
    for cold, warm, score in rows:
        top = best.get(cold)
        if top is None:
            problems.append(f"{cold}: not a cold item of the corpus")
            continue
        if warm == "-":
            if top >= threshold + TIE_TOL:
                problems.append(f"unpaired {cold} has a warm item scoring "
                                f"{top:.6f} >= {threshold}")
            continue
        exact = cosine.get((cold, warm))
        if exact is None:
            problems.append(f"{cold}->{warm}: not a warm item")
            continue
        if abs(exact - score) > SCORE_TOL:
            problems.append(f"{cold}->{warm} listed at {score}, cosine is "
                            f"{exact:.6f}")
        if exact < top - TIE_TOL:
            problems.append(f"{cold}->{warm} scores {exact:.6f}, below the "
                            f"best warm item's {top:.6f}")
        if exact < threshold - TIE_TOL:
            problems.append(f"{cold}->{warm} scores {exact:.6f} "
                            f"< {threshold}")
    return problems


def check_neighborhoods(nbrs: dict[str, list[tuple[str, float]]],
                        items: list[str], sims: np.ndarray,
                        k: int) -> list[str]:
    """Each rated item lists min(k, other rated items) distinct other rated
    items with their cosines, in descending order, and no item it leaves out
    scores above the lowest one it lists. ``sims[a, b]`` is the cosine of
    the rating columns of ``items[a]`` and ``items[b]``."""
    pos = {item: a for a, item in enumerate(items)}
    problems = [f"neighbourhood of unrated item {item}"
                for item in nbrs if item not in pos]
    want = min(k, len(items) - 1)
    for a, item in enumerate(items):
        listed = nbrs.get(item, [])
        idx = [pos.get(j, -1) for j, _ in listed]
        if len(idx) != want or -1 in idx or a in idx \
                or len(set(idx)) != len(idx):
            problems.append(f"{item}: lists {len(idx)} neighbours; want "
                            f"{want} distinct other rated items")
            continue
        exact = sims[a, idx]
        got = np.array([score for _, score in listed])
        if np.any(np.abs(exact - got) > SIM_TOL):
            problems.append(f"{item}: listed similarities differ from the "
                            f"cosines")
        if np.any(np.diff(exact) > TIE_TOL):
            problems.append(f"{item}: neighbours not in descending order")
        rest = np.delete(sims[a], idx + [a])
        if rest.size and exact.size and rest.max() > exact.min() + TIE_TOL:
            problems.append(f"{item}: leaves out an item scoring "
                            f"{rest.max():.6f} > {exact.min():.6f}")
    return problems


def cf_scores(rated: dict[str, float],
              nbrs: dict[str, list[tuple[str, float]]]) -> dict[str, float]:
    """Item-based score of each candidate the user has not rated: the sum,
    over the user's rated items i holding it as a neighbour, of
    sim(i, candidate) * rating(i) (Sarwar et al., WWW 2001)."""
    scores: dict[str, float] = {}
    for item, rating in rated.items():
        for neighbor, sim in nbrs.get(item, []):
            if neighbor not in rated:
                scores[neighbor] = scores.get(neighbor, 0.0) + sim * rating
    return scores


def cold_by_warm(rows: list[tuple[str, str, float]]) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for cold, warm, _ in rows:
        if warm != "-":
            out.setdefault(warm, set()).add(cold)
    return out


def check_recommend(path: Path, user: str, scores: dict[str, float], n: int,
                    partners: dict[str, set[str]], max_len: int) -> list[str]:
    """The cf rows are the user's top ``n`` candidates by ``scores`` in
    descending order (ties in any order); each paired row follows its
    partner or a sibling paired row; no duplicates; at most max_len rows."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [str(exc)]
    problems = []
    items, cf_items = [], []
    last_cf = None
    for rank, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 4 or fields[0] != user or fields[1] != str(rank):
            problems.append(f"{path.name}:{rank}: malformed row {line!r}")
            continue
        item, tag = fields[2], fields[3]
        items.append(item)
        if tag == CF:
            cf_items.append(item)
            last_cf = item
        elif tag == PAIRED:
            if last_cf is None or item not in partners.get(last_cf, ()):
                problems.append(f"{path.name}:{rank}: paired {item} does not "
                                f"follow its partner")
        else:
            problems.append(f"{path.name}:{rank}: unknown tag {tag!r}")
    ranked = sorted(scores.values(), reverse=True)[:n]
    if len(cf_items) != len(ranked) or len(set(cf_items)) != len(cf_items) \
            or any(item not in scores for item in cf_items) \
            or any(abs(scores[item] - s) > TIE_TOL
                   for item, s in zip(cf_items, ranked)):
        problems.append(f"{path.name}: cf rows are not the top {n} "
                        f"item-based scores")
    if len(set(items)) != len(items):
        problems.append(f"{path.name}: duplicate items")
    if len(lines) > max_len:
        problems.append(f"{path.name}: {len(lines)} rows > max_len {max_len}")
    return problems


def count_tags(path: Path) -> tuple[int, int]:
    """(paired rows, all rows) of a recommend file."""
    tags = [line.rsplit("\t", 1)[-1]
            for line in path.read_text(encoding="utf-8").splitlines()]
    return sum(t == PAIRED for t in tags), len(tags)


def pair_counts(rows: list[tuple[str, str, float]],
                labels: dict[str, str]) -> tuple[int, int, int]:
    """(cold items, paired ones, ones paired within their generated
    cluster). Only each cold item's first partner counts."""
    first: dict[str, str] = {}
    for cold, warm, _ in rows:
        first.setdefault(cold, warm)
    paired = [(c, w) for c, w in first.items() if w != "-"]
    return (len(first), len(paired),
            sum(labels[c] == labels[w] for c, w in paired))
