"""coldpair benchmark: one workload run per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs are generated from ``--seed``
(see workloads.py) and the program is driven in process through its public
entry point ``coldpair.cli.main``, imported from ``src/``:

1. set-up: fresh interpreters import the CLI and load the inputs (median of
   probes taken before step 2, between steps 2 and 3, and after step 4);
2. ``pipeline`` (train, pair, cf-build) on the base corpus and ratings;
3. ``pair`` on base corpus plus unseen cold arrivals, with no retrain;
4. ``recommend -n 10`` for 200 distinct users, closed loop, one caller,
   in whole passes over the users: seven at least, and until ``--seconds``
   have passed.

Every command's output is checked (checks.py): each recommend file as the
call returns, the pairs and neighbourhoods against a brute-force oracle
(oracle.py) in a fresh process after the timed phases. A call that exits
non-zero or fails a check is a failed operation. With ``--trace 0`` the last stdout
line holds the end-to-end metrics. With ``--trace 1`` the pipeline runs
once untraced; then pipeline, arrivals and one recommend pass run with
spans around the public functions of every module (layers.py), a size
sweep follows, and the last line holds the per-layer metrics. The line
before it is a record of the machine, the filesystem and, when traced,
where the time of each phase went.

Scratch files go to ``.perfbench/`` in the repository root and are removed
at exit, except the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import Tracer, patched, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up probes per group. A run takes three groups: before the pipeline,
# between the pipeline and arrivals, and after recommend. Spread over the
# run, their median follows the host's load over the whole run rather than
# over one burst of it.
SETUP_PROBES = 4
# Whole recommend passes at least, whatever --seconds says: the per-user
# minimum filters random stalls only if every user gets several tries, and
# a time budget alone gives the fewest tries when the host is slowest.
RECOMMEND_PASSES = 7
TOP_N = "10"
ORACLE_TIMEOUT_S = 120


def _link(src: Path, dst: Path) -> Path:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)
    return dst


def _fork_dir(src: Path, dst: Path) -> Path:
    """A fresh output directory holding hard links to ``src``'s files.

    Every timed step starts from the state the previous step left, but
    writes nothing over an existing file: on a disk that discards freed
    blocks, replacing a file costs tens of milliseconds of device latency,
    which would swamp the program's own time (cli.files_written and
    cli.bytes_written keep the writes visible)."""
    dst.mkdir(parents=True)
    for f in src.iterdir():
        _link(f, dst / f.name)
    return dst


def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                left, right = line.split(" - ", 1)
                mount = left.split()[4]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(out_dir: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "output_fs": _fs_type(out_dir),
    }


@contextlib.contextmanager
def program_heap(short_lived: bool):
    """Collect now and freeze what exists, so that the collections of the
    timed call scan only what the program allocates, not the inputs and
    oracles the benchmark holds across calls.

    With ``short_lived`` full collections also wait until the call returns.
    A real ``coldpair recommend`` is a fresh process whose imports keep its
    full collections rare and whose garbage dies with it; here the frozen
    heap would otherwise make them frequent and land on calls at random."""
    gc.collect()
    gc.freeze()
    thresholds = gc.get_threshold()
    if short_lived:
        gc.set_threshold(thresholds[0], thresholds[1], 1 << 30)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


class Run:
    """One workload run: inputs, operations attempted and failed."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        import workloads
        from coldpair import cli
        self.cli = cli
        self.name = name
        self.seed = seed
        self.spec = workloads.SPECS[name]
        self.seconds = seconds
        self.work = work
        self.inputs = workloads.generate(name, seed, work / "inputs")
        self.config = cli.resolve_config(
            cli.build_parser().parse_args(["pair", *self.spec.cli_args]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Wall minus CPU time of the calling thread over the CLI calls (the
        # process's CPU time would count BLAS worker threads as well).
        self.io_wait = 0.0
        self._dirs = 0

    def fresh_dir(self, like: Path | None = None) -> Path:
        self._dirs += 1
        dst = self.work / f"out{self._dirs}"
        if like is None:
            dst.mkdir(parents=True)
            return dst
        return _fork_dir(like, dst)

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def call(self, argv: list[str],
             short_lived: bool = False) -> tuple[int, float]:
        """Run one CLI command in process; (exit code, wall seconds)."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                program_heap(short_lived):
            cpu0, t0 = time.thread_time(), time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            self.io_wait += elapsed - (time.thread_time() - cpu0)
        return code, elapsed

    # -------------------------------------------------------------- steps

    def setup_times(self) -> list[float]:
        """Wall times of SETUP_PROBES fresh interpreters importing the CLI
        and loading this workload's corpus and ratings."""
        probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                 str(SRC), str(self.inputs.corpus), str(self.inputs.ratings)]
        times = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = subprocess.run(probe, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            times.append(time.perf_counter() - t0)
            self.operation([f"setup probe: {proc.stderr.strip()[-300:]}"]
                           if proc.returncode else [])
        return times

    def pipeline(self, out: Path) -> tuple[float, list[str]]:
        """(wall seconds, problems the quick checks find)."""
        code, elapsed = self.call(
            ["pipeline", "--corpus", str(self.inputs.corpus),
             "--ratings", str(self.inputs.ratings), "--out-dir", str(out),
             *self.spec.cli_args])
        return elapsed, ([f"pipeline exited {code}"] if code else
                         checks.check_pairs(out / "pairs.tsv",
                                            self.inputs.cold_ids,
                                            set(self.inputs.warm_ids)))

    def arrivals(self, out: Path) -> tuple[float, list[str]]:
        code, elapsed = self.call(
            ["pair", "--corpus", str(self.inputs.corpus_all),
             "--out-dir", str(out), *self.spec.cli_args])
        return elapsed, ([f"pair exited {code}"] if code else
                         checks.check_pairs(out / "pairs.tsv",
                                            self.inputs.cold_ids
                                            + self.inputs.arrival_ids,
                                            set(self.inputs.warm_ids)))

    def verify(self, base: Path, base_problems: list[str], state: Path,
               state_problems: list[str]) -> None:
        """Count the pipeline and arrivals operations. If their quick
        checks pass, the oracle process checks each partner against a
        brute-force top-1 over the warm items and the neighbourhoods
        against brute-force cosines first."""
        if not base_problems and not state_problems:
            job = self.work / "oracle.json"
            job.write_text(json.dumps({
                "src": str(SRC), "model_dir": str(base),
                "corpus": str(self.inputs.corpus_all),
                "ratings": str(self.inputs.ratings),
                "cli_args": list(self.spec.cli_args),
                "pairs": {"pipeline": str(base / "pairs.tsv"),
                          "arrivals": str(state / "pairs.tsv")},
                "neighborhoods": str(base / "neighborhoods.tsv"),
            }), encoding="utf-8")
            script = Path(__file__).with_name("oracle.py")
            try:
                proc = subprocess.run([sys.executable, str(script), str(job)],
                                      capture_output=True, text=True,
                                      timeout=ORACLE_TIMEOUT_S)
                found = (json.loads(proc.stdout.splitlines()[-1])
                         if proc.returncode == 0 else None)
                failure = f"oracle: {proc.stderr.strip()[-300:]}"
            except subprocess.TimeoutExpired:
                found, failure = None, "oracle timed out"
            if found is None:
                found = {"pipeline": [failure], "arrivals": [failure],
                         "neighborhoods": []}
            base_problems = found["pipeline"] + found["neighborhoods"]
            state_problems = found["arrivals"]
        self.operation(base_problems)
        self.operation(state_problems)

    def oracle(self, state: Path) -> tuple[dict, dict]:
        """What the recommend checks compare against: each user's item-based
        scores from the neighbourhoods file, and the cold partners of each
        warm item."""
        by_user = checks.read_ratings(self.inputs.ratings)
        nbrs = checks.read_neighborhoods(state / "neighborhoods.tsv")
        scores = {u: checks.cf_scores(by_user[u], nbrs)
                  for u in self.inputs.users}
        return scores, checks.cold_by_warm(
            checks.read_pairs(state / "pairs.tsv"))

    def recommend(self, state: Path, oracle: tuple[dict, dict],
                  min_passes: int, min_seconds: float) -> dict:
        """Closed loop, one caller: whole passes over the users, at least
        ``min_passes`` of them and until ``min_seconds`` have passed. Each
        call gets a fresh copy of ``state`` and of the ratings, under a path
        no other call reads, so no cache keyed by path can carry over from
        one call to the next as it never would between two processes.
        Returns each user's latencies (ms) and the paired and total rows of
        the first pass."""
        scores, partners = oracle
        users = self.inputs.users
        latencies = {u: [] for u in users}
        paired = rows = 0
        started = time.perf_counter()
        passes = 0
        while passes < min_passes \
                or time.perf_counter() - started < min_seconds:
            first = passes == 0
            for user in users:
                out = self.fresh_dir(state)
                ratings = _link(self.inputs.ratings, out / "ratings.tsv")
                code, elapsed = self.call(
                    ["recommend", "--user", user, "-n", TOP_N,
                     "--ratings", str(ratings),
                     "--out-dir", str(out), *self.spec.cli_args],
                    short_lived=True)
                latencies[user].append(elapsed * 1e3)
                path = out / f"recommend_{user}.tsv"
                if code:
                    self.operation([f"recommend {user} exited {code}"])
                else:
                    self.operation(checks.check_recommend(
                        path, user, scores[user], int(TOP_N), partners,
                        int(self.config["max_len"])))
                    if first:
                        p, n = checks.count_tags(path)
                        paired, rows = paired + p, rows + n
                # Removed while its new files are still only in memory, which
                # is cheap; once written back, freeing their blocks is not.
                shutil.rmtree(out)
            passes += 1
        return {"latencies": latencies, "paired_rows": paired, "rows": rows}

    def quality(self, state: Path, rec: dict) -> dict:
        """Pair precision (same-cluster partners over paired cold items,
        0 when none is paired), pair recall (over all cold items) and the
        share of paired rows in the first recommend pass."""
        n, paired, right = checks.pair_counts(
            checks.read_pairs(state / "pairs.tsv"), self.inputs.labels)
        return {"pair_precision": (right / paired if paired else 0.0,
                                   "ratio"),
                "pair_recall": (right / n if n else 0.0, "ratio"),
                "recommend_paired_share": (
                    rec["paired_rows"] / rec["rows"] if rec["rows"] else 0.0,
                    "ratio")}

    def pair_record(self, base: Path, state: Path) -> dict:
        """(cold items, paired, paired within their cluster) for the base
        cold block after the pipeline and for the arrivals after ``pair``."""
        arrivals = set(self.inputs.arrival_ids)
        after = [r for r in checks.read_pairs(state / "pairs.tsv")
                 if r[0] in arrivals]
        return {
            "base": checks.pair_counts(checks.read_pairs(base / "pairs.tsv"),
                                       self.inputs.labels),
            "arrivals": checks.pair_counts(after, self.inputs.labels),
        }

    # -------------------------------------------------------------- modes

    def end_to_end(self) -> tuple[dict, dict]:
        setup = self.setup_times()
        base = self.fresh_dir()
        pipeline_s, base_problems = self.pipeline(base)
        setup += self.setup_times()
        state = self.fresh_dir(base)
        arrivals_s, state_problems = self.arrivals(state)
        rec = self.recommend(state, self.oracle(state), RECOMMEND_PASSES,
                             self.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += self.setup_times()
        self.verify(base, base_problems, state, state_problems)
        # One figure per user, the fastest of that user's calls: load from
        # outside the program (other tenants of the machine) stalls calls
        # at random and only ever adds time, while the spread across users
        # is the program's own.
        lat = [min(v) for v in rec["latencies"].values()]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pipeline_s": (pipeline_s, "s"),
            "arrivals_s": (arrivals_s, "s"),
            "recommend_p50_ms": (statistics.median(lat), "ms"),
            "recommend_p95_ms": (statistics.quantiles(lat, n=20)[18], "ms"),
            "peak_rss_mb": (rss, "MiB"),
        }
        quality = self.quality(state, rec)
        calls = sum(len(v) for v in rec["latencies"].values())
        return metrics, {"recommend_calls": calls,
                         "quality": {k: v for k, (v, _) in quality.items()},
                         "pairs": self.pair_record(base, state)}

    def traced(self) -> tuple[dict, dict]:
        import layers

        untraced_s, problems = self.pipeline(self.fresh_dir())
        self.operation(problems)
        tracer = Tracer(f"{self.name}-seed{self.seed}")
        ctx = layers.Context(set(self.inputs.base_ids))
        roots = {}
        with patched(layers.probes(tracer, ctx)):
            self.io_wait = 0.0
            base = self.fresh_dir()
            with tracer.span("phase.pipeline") as roots["pipeline"]:
                ctx.capture_vectors = True
                traced_s, base_problems = self.pipeline(base)
                ctx.capture_vectors = False
            state = self.fresh_dir(base)
            with tracer.span("phase.arrivals") as roots["arrivals"]:
                _, state_problems = self.arrivals(state)
            oracle = self.oracle(state)  # outside every phase span
            with tracer.span("phase.recommend") as roots["recommend"]:
                rec = self.recommend(state, oracle, 1, 0.0)
            io_wait = self.io_wait
            self.sweep(ctx, tracer, roots)
        self.verify(base, base_problems, state, state_problems)
        selfs = self_times(tracer.spans)
        metrics = layers.layer_metrics(tracer.spans, roots)
        metrics.update({
            "cf.ratings": (self.inputs.n_ratings, "count"),
            "cli.io_wait_s": (io_wait, "s"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        })
        metrics.update(self.quality(state, rec))
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{tracer.run_id}.jsonl")
        record = {phase: layers.breakdown(tracer.spans, selfs, roots[phase])
                  for phase in ("pipeline", "arrivals")}
        return metrics, {"phases": record, "spans": len(tracer.spans)}

    def sweep(self, ctx, tracer, roots: dict) -> None:
        """Size sweep. The index build replays the pipeline's warm and cold
        vectors at full and at half size, back to back, because inside the
        pipeline each insert is interleaved with embedding work. Pairing
        and the neighbourhood build run once more at half size only: the
        first half of the warm and cold vectors, and the ratings of the
        first half of the rated items; their full size is the pipeline's
        own call."""
        from coldpair import cf, matcher

        def index(ids, share):
            built = ctx.embedder.build_index([])
            for doc_id in ids[:len(ids) // share]:
                built.add(doc_id, ctx.vectors[doc_id])
            return built

        with tracer.span("phase.full") as roots["full"]:
            if ctx.embedder is not None:
                index(self.inputs.warm_ids, 1)
                index(self.inputs.cold_ids, 1)
        lines = self.inputs.ratings.read_text(encoding="utf-8").splitlines()
        items = list(dict.fromkeys(line.split("\t")[1] for line in lines))
        keep = set(items[:len(items) // 2])
        half = self.work / "ratings_half.tsv"
        half.write_text("".join(line + "\n" for line in lines
                                if line.split("\t")[1] in keep),
                        encoding="utf-8")
        with tracer.span("phase.half") as roots["half"]:
            if ctx.embedder is not None:
                matcher.pair_cold_items(index(self.inputs.cold_ids, 2),
                                        index(self.inputs.warm_ids, 2))
            cf.build_item_neighborhoods(cf.load_ratings(half))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coldpair" / "cli.py").is_file():
        print(f"error: {SRC / 'coldpair'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        metrics, extra = run.traced() if args.trace else run.end_to_end()
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "machine": machine_record(work), **extra}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
