"""The archmatch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports and launches archmatch from
that checkout's `src/`, with bytecode cached under `perfbench/.work/pycache`
(compiled once, before anything is timed, as a user's installed copy is).
Every workload is a closed loop with one client and one process; it
generates its catalog from the seed, then runs operations for S seconds
and at least the workload's `OPS` of them, with the set-up timed
`SETUP_REPS` times (median reported) before, between and after them.  Each
answer is checked against the answer the generator built the requirement
to have.

Workloads (see BENCHMARK.json and perfbench/predictions.json for why):

* warm-query   one `python -m archmatch.cli match REQ --format json`
               subprocess per operation, on a fresh cache;
* scan-query   `repo.load_requirement` + `matcher.match_requirement` in this
               process, against an index loaded once during set-up;
* edit-rebuild edit one unit, then one `match` subprocess that finds the
               cache stale, rebuilds the index and rewrites the cache.

With --trace 0 the run prints, with units and sample counts, latency_p50_s,
latency_tail_s (with the percentile it is), ops_per_s, setup_s,
peak_rss_mb and failed_ops_ratio; the last stdout line is the JSON result,
whose `attempted` and `failed` carry failed_ops_ratio.  latency_tail_s is
read at one fixed percentile per workload, the highest with ten samples
beyond it in `OPS` samples, so two commits compare the same percentile
however many operations each completes.  With --trace 1 every operation runs
twice on the same input, untraced and traced in alternating order
(subprocesses go through `perfbench/launch.py`), and the last line reports
the per-layer metrics.
Catalogs live under `perfbench/.work/` and are removed at exit; per-run
results and traces are kept in `perfbench/.work/results` and
`perfbench/.work/traces`.  All workloads, one after another:

    for w in warm-query scan-query edit-rebuild; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

The benchmark's own tests: PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# Bytecode of everything imported, outside src/ and the installed packages.
# It is written even where the environment asks for none: without it every
# `match` would compile archmatch (and, under the prefix, its dependencies)
# from source, a cost no user's warm query pays.
PYCACHE = WORK / "pycache"
sys.pycache_prefix = str(PYCACHE)
sys.dont_write_bytecode = False
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Tracer, layer_values  # noqa: E402

SETUP_REPS = 3
MIN_TRACED_PAIRS = 5
IMPORT_REPS = 3
OP_CPU_LIMIT_S = 60

END_TO_END = ("latency_p50_s", "latency_tail_s", "ops_per_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "cli.import_s",
    "dsl.tokenize.self_s", "dsl.tokens", "dsl.parse_unit.self_s", "dsl.parse_unit.calls",
    "model.resolve.self_s", "model.resolve.calls",
    "category.close.self_s",
    "model.validate_publication.self_s", "model.validate_publication.calls",
    "repo.load_cache.self_s", "repo.cache_bytes",
    "repo.build_index.self_s", "repo.save_cache.self_s",
    "repo.load_requirement.self_s", "matcher.match_requirement.self_s",
    "matcher.prefilter.kept_ratio",
    "sigmatch.match_module.self_s", "sigmatch.match_module.calls",
    "sigmatch.partial_match.self_s", "sigmatch.partial_match.calls",
    "protocol.compile.self_s", "protocol.compile.calls",
    "protocol.determinize.self_s", "protocol.determinize.calls",
    "protocol.determinize.states",
    "protocol.minimize.self_s",
    "protocol.includes.self_s", "protocol.includes.calls",
    "trace.overhead_s", "trace.accounted_share",
)


def unit_of(metric: str) -> str:
    if metric == "ops_per_s":
        return "1/s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric == "repo.cache_bytes":
        return "bytes"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "count"


def tail(samples: list[float], count: int | None = None) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it in `count` samples (default: all of them), read from
    `samples` by nearest rank.  With count == n it is the (n-10)-th smallest
    of n; more samples than `count` keep the percentile and leave at least
    ten beyond it."""
    count = len(samples) if count is None else count
    if count <= 10 or len(samples) < count:
        raise ValueError(f"the tail needs more than 10 samples and at least {count}, "
                         f"got {len(samples)}")
    ordered = sorted(samples)
    # nearest rank of p = (count-10)/count in n samples, in integers: ceil(n*p)
    rank = -(-len(ordered) * (count - 10) // count)
    return 100.0 * (count - 10) / count, ordered[rank - 1]


@dataclass
class Outcome:
    seconds: float
    ok: bool
    reason: str = ""
    rss_kb: int = 0
    trace: dict | None = None


# --- answers ---------------------------------------------------------------------

def check_answer(query: gen.Query, action: str | None, component: str | None) -> str:
    """Empty when (action, component) is the query's expected answer."""
    if (action, component) != (query.action, query.component):
        return (f"{query.path} ({query.family}): expected {query.action} "
                f"{query.component}, got {action} {component}")
    return ""


def check_cli(query: gen.Query, code: int, stdout: str, stderr: str,
              origin: str) -> str:
    """Exit code, no traceback, the index origin the workload promises, and
    the JSON recommendation."""
    want_code = 1 if query.action == gen.NEW else 0
    if "Traceback" in stderr:
        return f"{query.path}: traceback: {stderr.strip().splitlines()[-1]}"
    if code != want_code:
        return f"{query.path}: exit code {code}, expected {want_code}: {stderr.strip()[-200:]}"
    if f"index: {origin} " not in stderr:
        return f"{query.path}: expected index origin {origin!r}, stderr {stderr.strip()[-200:]!r}"
    try:
        rec = json.loads(stdout)["recommendation"]
    except (ValueError, KeyError, TypeError) as err:
        return f"{query.path}: unreadable JSON report ({err})"
    return check_answer(query, rec.get("action"), rec.get("component"))


# --- subprocess operations ---------------------------------------------------------

def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (OP_CPU_LIMIT_S, OP_CPU_LIMIT_S))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], cwd: Path, scratch: Path) -> tuple[int, str, str, float, int]:
    """Run one subprocess to completion: (exit code, stdout, stderr, wall
    seconds, peak RSS in KiB of that child alone)."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env(),
                                preexec_fn=_limit_cpu)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), seconds, usage.ru_maxrss)


def cli_match(catdir: Path, query: gen.Query, origin: str, traced: bool,
              scratch: Path) -> Outcome:
    args = ["--catalog", "catalog.txt", "--cache", "catalog.idx",
            "match", query.path, "--format", "json"]
    trace_file = scratch / "op-trace.json"
    if traced:
        argv = [sys.executable, str(HERE / "launch.py"), str(trace_file)] + args
    else:
        argv = [sys.executable, "-m", "archmatch.cli"] + args
    code, out, err, seconds, rss = run_child(argv, catdir, scratch)
    reason = check_cli(query, code, out, err, origin)
    trace = None
    if traced and trace_file.is_file():
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
    return Outcome(seconds, not reason, reason, rss, trace)


# --- workloads -----------------------------------------------------------------------

class Workload:
    """A seeded catalog and requirements, a set-up, then operations."""

    N = 0
    MIX = gen.Mix()
    KINDS: list[str] = []
    QUERIES = 40
    OPS = 11  # operations every run completes; fixes the tail percentile
    in_process = False

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.catdir = scratch / "catalog"
        self.catalog: gen.Catalog | None = None

    def targets(self) -> list[int] | None:
        """Component indices requirements may be built from (None: any)."""
        return None

    def reset(self) -> None:
        """Undo the previous set-up; runs outside the timed region.  A previous
        repetition's objects must not slow this one's allocations and
        collections."""
        shutil.rmtree(self.catdir, ignore_errors=True)
        self.catalog = None
        gc.collect()

    def write_catalog(self) -> None:
        self.catalog = gen.generate(self.seed, self.N, self.MIX)
        gen.add_queries(self.catalog, self.seed, self.KINDS, self.QUERIES, self.targets())
        self.catalog.write(self.catdir)

    def query(self, i: int) -> gen.Query:
        return self.catalog.queries[i % len(self.catalog.queries)]

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        """Operation `i`; traced when `tracer` is given."""
        raise NotImplementedError

    def pair(self, i: int, tracer: Tracer) -> tuple[Outcome, Outcome]:
        """Operation `i` untraced and traced on the same input; which of the
        two runs first alternates with `i`, so drift favours neither."""
        first_traced = i % 2 == 1
        first = self.op(i, tracer if first_traced else None)
        second = self.op(i, None if first_traced else tracer)
        return (second, first) if first_traced else (first, second)


class WarmQuery(Workload):
    name = "warm-query"
    N = 500
    MIX = gen.Mix(templates=(("seq", 1), ("alt", 1), ("star", 1), ("nest", 1)),
                  methods=3, depth=2,
                  publications=("explicit", "explicit-causal", "default"))
    # no "use-renamed": the keyword prefilter answers it NEW (ROADMAP's
    # name-blocking defect), and every operation of a workload must pass
    KINDS = ["use", "adapt-protocol", "use-plain", "adapt-partial", "new"]
    OPS = 11
    origin = "cache"  # what every timed `match` must report about the index

    def setup(self) -> None:
        self.write_catalog()
        # the cold run builds and writes the cache the timed operations read
        first = cli_match(self.catdir, self.query(0), "built", False, self.scratch)
        if not first.ok:
            raise RuntimeError(f"set-up failed: {first.reason}")

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        return cli_match(self.catdir, self.query(i), self.origin, tracer is not None,
                         self.scratch)


class EditRebuild(WarmQuery):
    name = "edit-rebuild"
    N = 200
    MIX = gen.Mix(templates=(("interleave", 2), ("nest", 1), ("star", 1), ("seq", 1)),
                  methods=6, k=3, depth=3,
                  publications=("causal", "explicit", "default"), chain=60)
    KINDS = ["use", "adapt-protocol"]
    OPS = 11
    origin = "built"

    def targets(self) -> list[int]:
        # edits touch the lower half of the catalog, requirements the upper half
        return list(range(self.N // 2, self.N))

    def setup(self) -> None:
        super().setup()
        self.edits = random.Random(f"edits:{self.seed}")

    def edit(self) -> None:
        path = gen.edit(self.catalog, self.MIX, self.edits.randrange(self.N // 2), self.edits)
        (self.catdir / path).write_text(self.catalog.files[path], encoding="utf-8")

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        start = time.perf_counter()
        self.edit()
        out = super().op(i, tracer)
        out.seconds = time.perf_counter() - start
        return out

    def pair(self, i: int, tracer: Tracer) -> tuple[Outcome, Outcome]:
        """One edit, then the untraced and the traced `match` each on the
        stale cache it left (the cache is restored in between); the edit is
        timed in neither."""
        self.edit()
        cache = self.catdir / "catalog.idx"
        stale = cache.read_bytes()
        outs = {}
        for traced in ((True, False) if i % 2 == 1 else (False, True)):
            cache.write_bytes(stale)
            outs[traced] = WarmQuery.op(self, i, tracer if traced else None)
        return outs[False], outs[True]


class ScanQuery(Workload):
    name = "scan-query"
    in_process = True
    N = 2000
    MIX = gen.Mix(templates=(("seq", 1), ("alt", 1), ("star", 1), ("interleave", 1),
                             ("nest", 1)),
                  methods=4, k=2, depth=2, required=False, shared=True)
    KINDS = ["use", "use-plain"]
    OPS = 24

    def reset(self) -> None:
        self.loaded = None
        super().reset()

    def setup(self) -> None:
        from archmatch import repo
        self.write_catalog()
        cat, model, diags = repo.load(self.catdir / "catalog.txt")
        if cat is None:
            raise RuntimeError(f"set-up failed: {[str(d) for d in diags][:3]}")
        self.loaded = (cat, model, repo.build_index(cat, model))

    def op(self, i: int, tracer: Tracer | None) -> Outcome:
        from archmatch import matcher, repo
        from archmatch.sigmatch import TypeLattice
        query = self.query(i)
        cat, model, index = self.loaded
        if tracer is not None:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            req, merged, diags = repo.load_requirement(self.catdir / query.path, cat, model)
            if req is None:
                reason = f"{query.path}: requirement rejected: {[str(d) for d in diags][:2]}"
            else:
                result = matcher.match_requirement(req, index,
                                                   TypeLattice.from_types(merged.types))
                rec = result.recommendation
                reason = check_answer(query, rec.action, rec.component)
        except Exception as err:  # a crash is a failed operation, not a failed run
            reason = f"{query.path}: {type(err).__name__}: {err}"
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        trace = tracer.dump() if tracer is not None else None
        return Outcome(seconds, not reason, reason, 0, trace)


WORKLOADS = {w.name: w for w in (WarmQuery, ScanQuery, EditRebuild)}


# --- measurement ------------------------------------------------------------------

def timed_setup(workload: Workload, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        workload.reset()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def closed_loop(workload: Workload, seconds: float, ops: int,
                outcomes: list[Outcome]) -> float:
    """Untraced operations appended to `outcomes` until `seconds` passed and
    it holds `ops`; returns the seconds this took."""
    start = time.perf_counter()
    while len(outcomes) < ops or time.perf_counter() - start < seconds:
        outcomes.append(workload.op(len(outcomes), None))
    return time.perf_counter() - start


def import_seconds(scratch: Path) -> list[float]:
    times = []
    for _ in range(IMPORT_REPS):
        code, _, err, seconds, _ = run_child([sys.executable, "-c", "import archmatch.cli"],
                                             ROOT, scratch)
        if code != 0:
            raise RuntimeError(f"import archmatch.cli failed: {err.strip()[-300:]}")
        times.append(seconds)
    return times


def end_to_end(workload: Workload, seconds: float) -> tuple[dict, list[Outcome], dict]:
    # The set-ups alternate with equal shares of the operations (set-up,
    # operations, ..., set-up), so their median samples the machine's speed
    # across the whole run, as the latency median does.
    setups: list[float] = []
    outcomes: list[Outcome] = []
    elapsed = 0.0
    phases = SETUP_REPS - 1
    for k in range(1, phases + 1):
        setups += timed_setup(workload, 1)
        elapsed += closed_loop(workload, seconds / phases, -(-workload.OPS * k // phases),
                               outcomes)
    setups += timed_setup(workload, 1)
    latencies = [o.seconds for o in outcomes]
    pct, tail_value = tail(latencies, workload.OPS)
    ok = sum(o.ok for o in outcomes)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.rss_kb for o in outcomes)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ops_per_s": ok / elapsed,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    metrics = {name: values[name] for name in END_TO_END}
    notes = {"samples": len(latencies), "tail_percentile": pct, "latencies": latencies,
             "setup_samples": setups, "failed_ops_ratio": (len(outcomes) - ok) / len(outcomes)}
    return metrics, outcomes, notes


def per_layer(workload: Workload, seconds: float) -> tuple[dict, list[Outcome], dict]:
    timed_setup(workload, 1)
    imports = [] if workload.in_process else import_seconds(workload.scratch)
    import_s = statistics.median(imports) if imports else 0.0
    tracer = Tracer()
    pairs: list[tuple[Outcome, Outcome]] = []
    start = time.perf_counter()
    while len(pairs) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        pairs.append(workload.pair(len(pairs), tracer))
    traced = [(t, layer_values(t.trace)) for _, t in pairs if t.trace is not None]
    metrics = {}
    for name in PER_LAYER:
        metrics[name] = statistics.median(v.get(name, 0.0) for _, v in traced) if traced else 0.0
    metrics["cli.import_s"] = import_s
    # each traced operation against its untraced twin, run next to it
    metrics["trace.overhead_s"] = statistics.median(t.seconds - p.seconds for p, t in pairs)
    # share of a traced operation that the import and the traced layers explain
    metrics["trace.accounted_share"] = statistics.median(
        (import_s + sum(x for k, x in v.items() if k.endswith(".self_s"))) / t.seconds
        for t, v in traced) if traced else 0.0
    notes = {"samples": len(traced), "pairs": len(pairs),
             "untraced_latency_p50_s": statistics.median(p.seconds for p, _ in pairs),
             "traced_latency_p50_s": statistics.median(t.seconds for _, t in pairs),
             "traces": [t.trace for _, t in pairs]}
    return metrics, [o for pair in pairs for o in pair], notes


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "src": str(SRC)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "archmatch" / "cli.py").is_file():
        print(f"error: no archmatch sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    scratch = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        # fill the bytecode cache before anything is timed, once per checkout
        filled = PYCACHE / "filled"
        if not filled.is_file():
            code, _, err, _, _ = run_child([sys.executable, "-c", "import archmatch.cli"],
                                           ROOT, scratch)
            if code != 0:
                print(f"error: import archmatch.cli failed: {err.strip()[-300:]}",
                      file=sys.stderr)
                return 2
            filled.write_text("", encoding="utf-8")
        if workload.in_process:
            sys.path.insert(0, str(SRC))
            import archmatch.cli  # noqa: F401  (set-up is timed without the import)
        if args.trace:
            metrics, outcomes, notes = per_layer(workload, args.seconds)
        else:
            metrics, outcomes, notes = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [o.reason for o in outcomes if not o.ok]
    env = environment()
    traces = notes.pop("traces", None)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "notes": notes,
              "attempted": len(outcomes), "failed": len(failures),
              "failures": failures[:20], "metrics": metrics}
    for sub, payload in (("results", record), ("traces", traces)):
        if payload is not None:
            (WORK / sub).mkdir(parents=True, exist_ok=True)
            (WORK / sub / f"{label}.json").write_text(json.dumps(payload), encoding="utf-8")

    print(f"# archmatch benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {env['python']}, nproc {env['nproc']}, archmatch from {SRC}")
    samples = notes["samples"]
    for name, value in metrics.items():
        extra = f"n={samples}"
        if name == "latency_tail_s":
            extra += f", p{notes['tail_percentile']:.1f}"
        elif name == "setup_s":
            extra = f"n={len(notes['setup_samples'])}"
        print(f"{name:36s} {value:14.6f} {unit_of(name):6s} ({extra})")
    if "failed_ops_ratio" in notes:
        print(f"{'failed_ops_ratio':36s} {notes['failed_ops_ratio']:14.6f} {'ratio':6s} "
              f"({len(failures)}/{len(outcomes)})")
    for reason in failures[:5]:
        print(f"# failed: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
