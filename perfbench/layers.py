"""Per-layer probes for the traced run: which public functions of each
``coldpair`` module get a span, what each span counts, and how the spans
become the per-layer metrics. Layers are named after the modules."""

from __future__ import annotations

from pathlib import Path

from coldpair import backends, cf, cli, doc2vec, lda, matcher, pairing, tfidf

from tracer import COUNTS, END, NAME, PARENT, START, Tracer, descendants

# Spans whose presence under a backends.vector span means the vector was
# computed rather than looked up.
RECOMPUTE = ("tfidf.transform", "lda.foldin", "doc2vec.infer")


class Context:
    """What the probes capture besides spans."""

    def __init__(self, train_ids: set[str]):
        self.train_ids = train_ids
        self.capture_vectors = False
        self.vectors: dict = {}  # doc id -> vector, from the pipeline's pair step
        self.embedder = None
        self.similarity = [0, 0]  # calls, calls that returned a value


def _in_vocab(tokens, vocab) -> int:
    return sum(1 for t in tokens if t in vocab)


def _model_bytes(config: dict) -> int:
    return sum(p.stat().st_size for p in Path(config["out_dir"]).iterdir()
               if p.is_file() and not p.name.startswith("manifest_"))


def probes(tracer: Tracer, ctx: Context) -> list[tuple]:
    """(owner, attribute, traced replacement) for every probe. A target
    that no longer exists raises KeyError, so a renamed function fails the
    traced run instead of reading as a layer doing no work."""

    def vector_counts(result, args, kwargs):
        embedder, doc = args
        if ctx.capture_vectors:
            ctx.embedder = embedder
            ctx.vectors.setdefault(doc.id, result)
        return {"seen": int(doc.id in ctx.train_ids)}

    def offered(result, args, kwargs):
        rec, pairs = args[0], args[1]
        by_warm = pairing.invert_pairs(pairs)
        listed = {item for item, _ in rec.items}
        cands = {c for item in listed for c in by_warm.get(item, ())} - listed
        inserted = sum(tag == "paired" for _, tag in result.items)
        return {"inserted": inserted, "offered": len(cands)}

    def neighborhood_counts(result, args, kwargs):
        calls, defined = ctx.similarity
        ctx.similarity[:] = [0, 0]
        return {"items": len(result), "sim_calls": calls,
                "sim_defined": defined,
                "empty": sum(1 for lst in result.values() if not lst)}

    table = [
        (cli, "cmd_train", "cli.train",
         lambda r, a, k: {"model_bytes": _model_bytes(a[0])}),
        (cli, "cmd_pair", "cli.pair", None),
        (cli, "cmd_cf_build", "cli.cf_build", None),
        (cli, "cmd_recommend", "cli.recommend", None),
        (cli, "atomic_write_text", "cli.write",
         lambda r, a, k: {"files": 1, "bytes": len(a[1].encode("utf-8"))}),
        (cli, "atomic_write_bytes", "cli.write",
         lambda r, a, k: {"files": 1, "bytes": len(a[1])}),
        (cli, "load_corpus", "corpus.load", lambda r, a, k: {"docs": len(r)}),
        (backends, "tokenize", "corpus.tokenize",
         lambda r, a, k: {"tokens": len(r)}),
        (backends, "build_vocabulary", "corpus.vocab_build",
         lambda r, a, k: {"vocab": len(r)}),
        (backends, "enrich", "enrichment.enrich",
         lambda r, a, k: {"added": len(r.body.split())
                          - len(a[0].body.split())}),
        (tfidf, "fit_tfidf", "tfidf.fit", None),
        (tfidf, "transform_tfidf", "tfidf.transform", None),
        (tfidf, "save_tfidf", "tfidf.save", None),
        (tfidf, "load_tfidf", "tfidf.load", None),
        (lda, "fit_lda", "lda.fit",
         lambda r, a, k: {"samples": int(r.topic_totals.sum()) * k["sweeps"]}),
        (lda, "lda_doc_vector", "lda.foldin",
         lambda r, a, k: {"samples": _in_vocab(a[1].tokens, a[0].vocab)
                          * k.get("fold_in_sweeps", 50)}),
        (lda, "save_lda", "lda.save", None),
        (lda, "load_lda", "lda.load", None),
        (doc2vec, "train_doc2vec", "doc2vec.train",
         lambda r, a, k: {
             "steps": a[1].epochs * sum(_in_vocab(d.tokens, a[2]) for d in a[0]),
             "skipped": sum(1 for d in a[0] if not _in_vocab(d.tokens, a[2]))}),
        (doc2vec, "infer_doc_vector", "doc2vec.infer",
         lambda r, a, k: {"steps": _in_vocab(a[1], a[0].vocab)
                          * k.get("steps", 50)}),
        (doc2vec, "save_doc2vec", "doc2vec.save", None),
        (doc2vec, "load_doc2vec", "doc2vec.load", None),
        (backends.Embedder, "fit", "backends.fit", None),
        (backends.Embedder, "vector", "backends.vector", vector_counts),
        (backends.Embedder, "build_index", "backends.build_index", None),
        (matcher.SimilarityIndex, "add", "matcher.index_add", None),
        (matcher, "pair_cold_items", "matcher.pair",
         lambda r, a, k: {"queries": len(a[0]),
                          "candidates": len(a[0]) * len(a[1]),
                          "paired": len(r.paired_ids())}),
        (matcher, "save_pairs", "matcher.save_pairs", None),
        (matcher, "load_pairs", "matcher.load_pairs", None),
        (cf, "load_ratings", "cf.load_ratings", None),
        (cf, "build_item_neighborhoods", "cf.build_neighborhoods",
         neighborhood_counts),
        (cf, "save_neighborhoods", "cf.save_neighborhoods", None),
        (cf, "load_neighborhoods", "cf.load_neighborhoods", None),
        (cf, "recommend", "cf.recommend", None),
        (pairing, "augment", "pairing.augment", offered),
    ]
    out = [(owner, attr, tracer.wrap(vars(owner)[attr], name, count))
           for owner, attr, name, count in table]
    # Item-item similarities run millions of times per build: count them
    # without a span each.
    for attr in ("pearson_item", "cosine_item"):
        out.append((cf, attr, _counted(vars(cf)[attr], ctx.similarity)))
    return out


def _counted(fn, tally: list[int]):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tally[0] += 1
        tally[1] += result is not None
        return result
    return counted


class Phase:
    """Sums over the spans of some phases of the traced run."""

    def __init__(self, spans: list[list], roots: list[int]):
        self.spans = spans
        self.members = [i for r in roots for i in descendants(spans, r)]

    def of(self, name: str) -> list[list]:
        return [self.spans[i] for i in self.members
                if self.spans[i][NAME] == name]

    def seconds(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.of(name))

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def count(self, name: str, key: str) -> float:
        return sum((s[COUNTS] or {}).get(key, 0) for s in self.of(name))

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls(name)
        return self.seconds(name) * scale / calls if calls else 0.0

    def last(self, name: str, key: str) -> float:
        found = self.of(name)
        return (found[-1][COUNTS] or {}).get(key, 0) if found else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def seen_recomputed(spans: list[list], phase: Phase) -> int:
    """backends.vector calls on training docs that computed the vector."""
    recomputing = {spans[i][PARENT] for i in phase.members
                   if spans[i][NAME] in RECOMPUTE}
    return sum(1 for i in phase.members
               if spans[i][NAME] == "backends.vector"
               and (spans[i][COUNTS] or {}).get("seen")
               and i in recomputing)


def layer_metrics(spans: list[list], roots: dict[str, int]) -> dict:
    """Per-layer metrics as {name: (value, unit)}. ``roots`` maps the phases
    "pipeline", "arrivals", "recommend" and the size sweep's "full" and
    "half" to their root span."""
    p = Phase(spans, [roots["pipeline"]])
    pa = Phase(spans, [roots["pipeline"], roots["arrivals"]])
    rec = Phase(spans, [roots["recommend"]])
    everything = Phase(spans, [roots["pipeline"], roots["arrivals"],
                               roots["recommend"]])
    full = Phase(spans, [roots["full"]])
    half = Phase(spans, [roots["half"]])

    lda_fit = p.seconds("lda.fit")
    d2v_train = p.seconds("doc2vec.train")
    pair_s = pa.seconds("matcher.pair")
    queries = pa.count("matcher.pair", "queries")
    return {
        "corpus.load_s": (pa.seconds("corpus.load"), "s"),
        "corpus.docs": (pa.count("corpus.load", "docs"), "count"),
        "corpus.tokenize_s": (pa.seconds("corpus.tokenize"), "s"),
        "corpus.tokens": (pa.count("corpus.tokenize", "tokens"), "count"),
        "corpus.vocab_build_s": (p.seconds("corpus.vocab_build"), "s"),
        "corpus.vocab_size": (p.last("corpus.vocab_build", "vocab"), "count"),
        "enrichment.enrich_s": (pa.seconds("enrichment.enrich"), "s"),
        "enrichment.added_tokens": (pa.count("enrichment.enrich", "added"),
                                    "count"),
        "tfidf.fit_s": (p.seconds("tfidf.fit"), "s"),
        "tfidf.transform_us_per_doc": (pa.per_call("tfidf.transform", 1e6),
                                       "us"),
        "lda.fit_s": (lda_fit, "s"),
        "lda.us_per_token_sample": (
            _ratio(lda_fit * 1e6, p.count("lda.fit", "samples")), "us"),
        "lda.foldin_us_per_doc": (pa.per_call("lda.foldin", 1e6), "us"),
        "lda.foldin_samples": (pa.count("lda.foldin", "samples"), "count"),
        "doc2vec.train_s": (d2v_train, "s"),
        "doc2vec.us_per_token_epoch": (
            _ratio(d2v_train * 1e6, p.count("doc2vec.train", "steps")), "us"),
        "doc2vec.train_steps": (p.count("doc2vec.train", "steps"), "count"),
        "doc2vec.infer_ms_per_doc": (pa.per_call("doc2vec.infer", 1e3), "ms"),
        "doc2vec.infer_steps": (pa.count("doc2vec.infer", "steps"), "count"),
        "doc2vec.docs_skipped": (p.count("doc2vec.train", "skipped"), "count"),
        "backends.fit_s": (p.seconds("backends.fit"), "s"),
        "backends.vector_s": (pa.seconds("backends.vector"), "s"),
        "backends.vector_calls": (pa.calls("backends.vector"), "count"),
        "backends.vector_seen_ratio": (
            _ratio(seen_recomputed(spans, pa), pa.calls("backends.vector")),
            "ratio"),
        "backends.build_index_s": (pa.seconds("backends.build_index"), "s"),
        "matcher.index_add_s": (full.seconds("matcher.index_add"), "s"),
        "matcher.index_add_s.half": (half.seconds("matcher.index_add"), "s"),
        "matcher.pair_s": (p.seconds("matcher.pair"), "s"),
        "matcher.pair_s.half": (half.seconds("matcher.pair"), "s"),
        "matcher.pair_us_per_query": (_ratio(pair_s * 1e6, queries), "us"),
        "matcher.candidates_scored": (pa.count("matcher.pair", "candidates"),
                                      "count"),
        "matcher.paired_ratio": (
            _ratio(pa.count("matcher.pair", "paired"), queries), "ratio"),
        "cf.load_ratings_s": (everything.seconds("cf.load_ratings"), "s"),
        "cf.neighborhood_build_s": (p.seconds("cf.build_neighborhoods"), "s"),
        "cf.neighborhood_build_s.half": (
            half.seconds("cf.build_neighborhoods"), "s"),
        "cf.similarity_calls": (p.count("cf.build_neighborhoods", "sim_calls"),
                                "count"),
        "cf.similarity_defined_ratio": (
            _ratio(p.count("cf.build_neighborhoods", "sim_defined"),
                   p.count("cf.build_neighborhoods", "sim_calls")), "ratio"),
        "cf.empty_neighborhoods": (p.count("cf.build_neighborhoods", "empty"),
                                   "count"),
        "cf.load_neighborhoods_s": (rec.seconds("cf.load_neighborhoods"), "s"),
        "cf.recommend_us": (rec.per_call("cf.recommend", 1e6), "us"),
        "pairing.augment_us": (rec.per_call("pairing.augment", 1e6), "us"),
        "pairing.inserted": (rec.count("pairing.augment", "inserted"), "count"),
        "pairing.inserted_ratio": (
            _ratio(rec.count("pairing.augment", "inserted"),
                   rec.count("pairing.augment", "offered")), "ratio"),
        "cli.train_s": (p.seconds("cli.train"), "s"),
        "cli.pair_s": (p.seconds("cli.pair"), "s"),
        "cli.cf_build_s": (p.seconds("cli.cf_build"), "s"),
        "cli.recommend_ms": (rec.per_call("cli.recommend", 1e3), "ms"),
        "cli.files_written": (everything.count("cli.write", "files"), "count"),
        "cli.bytes_written": (everything.count("cli.write", "bytes"), "bytes"),
        "cli.model_bytes": (p.count("cli.train", "model_bytes"), "bytes"),
    }


def breakdown(spans: list[list], selfs: list[float], root: int) -> dict:
    """Self time per span name under ``root``; what no probe covers is the
    root's own self time, reported as unexplained."""
    by_name: dict[str, float] = {}
    for i in descendants(spans, root):
        by_name[spans[i][NAME]] = by_name.get(spans[i][NAME], 0.0) + selfs[i]
    return {
        "wall_s": round(spans[root][END] - spans[root][START], 4),
        "unexplained_s": round(selfs[root], 4),
        "self_s": {k: round(v, 4) for k, v in
                   sorted(by_name.items(), key=lambda kv: -kv[1])},
    }
