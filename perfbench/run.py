"""rhetor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` (it need not be installed).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``BENCHMARK.json`` with ``--trace 1``.  The line before it,
``DETAIL {...}``, carries sample counts and the oracle findings.

A run generates its inputs from the seed under ``.bench_work/``, measures
set-up in fresh interpreters, then runs whole passes over the workload's
job list, one job at a time, until ``--seconds`` is spent (and at least
100 jobs are done).  Every job is checked by an oracle.  Every reported
time is scaled to a fixed reference speed (see ``refclock``); ``DETAIL``
also gives the plain wall-clock figures.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from gen import GENERATORS, _plain  # noqa: E402
from refclock import ref_reading, scaled  # noqa: E402
from tracing import Direct, Tracer, loglog_slope  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_JOBS = 100            # distinct jobs per pass: 10 beyond p90
# Passes a run makes at least, so every job's latency comes from several
# executions.  A cli pass (100 subprocesses) takes about 17 s, so it gets two.
MIN_PASSES = {"corpus": 3, "mapping": 3, "closure": 3, "cli": 2}
HARD_STOP_S = 140          # a run must end well inside 180 s
SETUP_REPEATS = 7          # fresh-interpreter set-ups in a traced run's replays
SETUP_SAMPLES = (9, 31)    # fewest and most set-up samples of an untraced run
SETUP_BUDGET_S = 4.0       # wall time the samples may take, if above the fewest
SETUP_REF_REPEATS = 5      # reference loops per reading in a set-up child
PROBE_PER_KIND = 2
MODULES = ("rhetor", "errors", "registry", "capacity", "entropy", "operators",
           "pyramid", "documents", "cli")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RHETOR_REGISTRY", None)
    return env


def python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, **kwargs)


class Tally:
    """Job outcomes, and each job's times, for one phase of a run.

    A job's latency is the mean of the middle half of its executions in the
    run (one per pass), each timed at the reference speed (see
    ``refclock``).  The host is shared with other tenants whose load slows
    it by up to a third for seconds at a time; scaling by a reference loop
    timed around each execution takes that out, and averaging executions
    spread across the whole run, without the outer quarters, takes out most
    of what is left.  ``raw`` keeps the plain wall
    times.  A job counts once in ``attempted`` however often it ran, and
    once in ``failed`` if any execution was wrong, so both are the same on
    every run of one seed.
    """

    def __init__(self):
        self.times: dict = {}     # job key -> seconds at reference speed, per execution
        self.raw: dict = {}       # job key -> wall seconds, per execution
        self.items: dict = {}     # job key -> items one execution handles
        self.failed_keys: set = set()
        self.findings: Counter = Counter()
        self.examples: list[str] = []

    def add(self, key, wall: float, seconds: float, items: int, errs: list) -> None:
        self.times.setdefault(key, []).append(seconds)
        self.raw.setdefault(key, []).append(wall)
        self.items[key] = items
        if errs and key not in self.failed_keys:
            self.failed_keys.add(key)
            for kind, message in errs:
                self.findings[kind] += 1
                if len(self.examples) < 5:
                    self.examples.append(f"[{kind}] {message}")

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    @property
    def executions(self) -> int:
        return sum(len(t) for t in self.times.values())

    def latencies(self, raw: bool = False) -> list[float]:
        return [middle_mean(t) for t in (self.raw if raw else self.times).values()]

    @property
    def items_per_pass(self) -> int:
        return sum(self.items.values())

    def items_per_s(self, raw: bool = False) -> float:
        return self.items_per_pass / sum(self.latencies(raw))


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``; of all of them when fewer than four."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def run_job(wl, T, job, tally: Tally, key, job_id=None) -> None:
    T.job = job_id
    before = ref_reading()
    start = perf_counter()
    try:
        if job_id is None:
            items, out = wl.run(T, job)
        else:
            items, out = T.call(f"job.{wl.name}", wl.run, T, job)
        error = None
    except Exception as exc:  # any escape is a wrong answer, not a crash
        items, out, error = 0, None, exc
    elapsed = perf_counter() - start
    after = ref_reading()
    T.job = None
    errs = ([("wrong", f"{wl.kind(job)} job raised {error!r}")] if error
            else wl.check(job, out))
    tally.add(key, elapsed, scaled(elapsed, before, after), items, errs)


def run_cycles(wl, seconds: float, tracer: Tracer | None,
               between=None) -> tuple[list[Tally], int]:
    """Whole passes over the job list until the time is spent.

    Untraced, at least the workload's MIN_PASSES passes run, so every
    job's latency comes from several executions.  Traced, every job runs twice in a
    row, untraced and traced in alternating order, so that the two tallies
    see the same work and their difference is the tracing overhead.
    ``between(fraction)``, if given, runs before each pass with the share of
    ``seconds`` spent so far; its own time is not counted.
    """
    direct = Direct()
    plain, traced = Tally(), Tally()
    jobs = wl.cycle()
    if len(jobs) < MIN_JOBS:
        fail(f"{wl.name} has {len(jobs)} jobs per pass; p90 needs {MIN_JOBS}")
    min_passes = 1 if tracer else MIN_PASSES[wl.name]
    start = perf_counter()
    paused = 0.0
    passes, job_id = 0, 0
    while True:
        if between:
            pause_start = perf_counter()
            between((pause_start - start - paused) / seconds)
            paused += perf_counter() - pause_start
        pass_start = perf_counter()
        for i, job in enumerate(jobs):
            if tracer is None:
                run_job(wl, direct, job, plain, i)
                continue
            order = ((direct, plain), (tracer, traced))
            for T, tally in (order if i % 2 == 0 else order[::-1]):
                run_job(wl, T, job, tally, i, job_id if T is tracer else None)
            job_id += 1
        passes += 1
        now = perf_counter()
        if now - start > HARD_STOP_S:
            break
        if passes >= min_passes and now - start - paused + (now - pass_start) > seconds:
            break
    return [plain, traced], passes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SetupSampler:
    """Import plus the workload's loads, each time in a fresh interpreter.

    One warm-up sets how many samples the run takes: as many as fit in
    SETUP_BUDGET_S, within SETUP_SAMPLES.  The samples are spread evenly
    over the run (taken between passes), so that one slow stretch of a
    shared machine does not set their median.  Each child times itself and
    scales the time to the reference speed with readings of its own.
    """

    def __init__(self, wl):
        body = wl.setup_code() if wl.name != "cli" else "import rhetor.cli\n"
        self.code = (f"import sys, time\nsys.path.insert(0, {str(HERE)!r})\n"
                     "from refclock import ref_reading, scaled\n"
                     f"before = ref_reading({SETUP_REF_REPEATS})\n"
                     "t0 = time.perf_counter()\nimport rhetor\n"
                     f"from pathlib import Path\n{body}"
                     "wall = time.perf_counter() - t0\n"
                     f"after = ref_reading({SETUP_REF_REPEATS})\n"
                     "print(repr(wall), repr(scaled(wall, before, after)))\n")
        self.times: list[float] = []
        self.raw: list[float] = []
        fewest, most = SETUP_SAMPLES
        self.count = max(fewest, min(most, int(SETUP_BUDGET_S / python_wall(["-c", self.code]))))

    def _sample(self) -> None:
        proc = python(["-c", self.code])
        if proc.returncode != 0:
            fail(f"set-up failed in a fresh process:\n{proc.stderr}")
        wall, seconds = proc.stdout.strip().splitlines()[-1].split()
        self.raw.append(float(wall))
        self.times.append(float(seconds))

    def __call__(self, fraction: float) -> None:
        while len(self.times) < self.count and len(self.times) <= fraction * self.count:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self._sample()
        return self.times


# --- traced run: probes and replays -------------------------------------------

def probe_jobs(wl) -> list:
    """The first few jobs of each kind, in cycle order."""
    taken: Counter = Counter()
    out = []
    for job in wl.cycle():
        kind = wl.kind(job)
        if taken[kind] < PROBE_PER_KIND:
            taken[kind] += 1
            out.append(job)
    return out


def corpus_tags(truth) -> list[str]:
    tags = []
    for doc in truth["docs"]:
        if doc["malformed"]:
            continue
        for line in Path(doc["path"]).read_text(encoding="utf-8").splitlines():
            if line.startswith("seg"):
                tags += [n.strip() for n in line.split("|")[1].split(",")]
    return tags


def importtime() -> dict[str, float]:
    """Self time (ms) of each rhetor module and the whole import, from -X importtime."""
    proc = python(["-X", "importtime", "-c", "import rhetor.cli"])
    if proc.returncode != 0:
        fail(f"import failed:\n{proc.stderr}")
    out = {f"cli.import.{m}_ms": 0.0 for m in MODULES}
    total = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module == "rhetor" or module.startswith("rhetor."):
            out[f"cli.import.{module.split('.')[-1]}_ms"] = int(self_us) / 1000
            if name.startswith(" ") and not name.startswith("  "):  # top level
                total += int(cumulative_us) / 1000
    out["cli.import.stdlib_ms"] = total - sum(out[f"cli.import.{m}_ms"] for m in MODULES)
    out["cli.import_ms"] = total
    return out


def replays(T: Tracer, rhetor, wls: dict, truths: dict, errors: list) -> dict:
    """Layer replays after the jobs, outside any job span."""
    values: dict[str, float] = {}
    corpus, mapping, closure, cli = (wls[n] for n in ("corpus", "mapping", "closure", "cli"))

    tags = corpus_tags(truths["corpus"])
    resolve = corpus.registry.resolve
    T.call("registry.resolve", lambda: [resolve(n) for n in tags], calls=len(tags))

    unknown = set(truths["mapping"]["minted"])
    names = truths["mapping"]["r_names"]
    hits = [n for n in names if _plain(n) not in unknown]
    misses = [n for n in names if _plain(n) in unknown]
    resolve = mapping.registry.resolve

    def count_misses(batch):
        raised = 0
        for name in batch:
            try:
                resolve(name)
            except rhetor.UnknownMode:
                raised += 1
        return raised

    raised = T.call("registry.resolve.hit_replay", count_misses, hits, calls=len(hits))
    raised += T.call("registry.resolve.miss_replay", count_misses, misses, calls=len(misses))
    if raised != truths["mapping"]["r_misses"]:
        errors.append(f"resolve misses {raised} != {truths['mapping']['r_misses']} unknown names")
    values["registry.resolve.miss_share"] = raised / len(names)
    minted = [mapping.graph.registry.get(m) for m in truths["mapping"]["minted"]]
    T.call("registry.with_modes", mapping.registry.with_modes, minted)

    widest = max(truths["closure"]["jobs"], key=lambda j: len(j["seed"]))["seed"]
    reg, rules = closure.registry, closure.rules
    pairs = [(a, b) for i, a in enumerate(widest) for b in widest[i + 1:]]
    T.call("operators.unite", lambda: [rhetor.unite(reg, a, b) for a, b in pairs],
           calls=len(pairs))
    unary_ops = (rhetor.forward_backward, rhetor.expand, rhetor.reduce, rhetor.orthogonal)

    def unary_all():
        nodual = 0
        for op in unary_ops:
            for atom in widest:
                try:
                    op(reg, rules, atom)
                except rhetor.NoDual:
                    nodual += 1
        return nodual

    calls = len(unary_ops) * len(widest)
    values["operators.unary.nodual_share"] = T.call("operators.unary", unary_all,
                                                    calls=calls) / calls
    marginals = []
    deep = [j for j in closure.cycle() if j["depth"] >= 2 and "unite" in j["ops"]][:4]
    for job in deep:
        times = []
        for depth in (job["depth"], job["depth"] - 1):
            start = perf_counter()
            T.call(f"operators.closure.depth{depth}_replay", rhetor.closure, reg, rules,
                   job["ops"], depth, seed=job["seed"])
            times.append(perf_counter() - start)
        marginals.append(times[0] - times[1])
    values["operators.closure.depth_marginal_s"] = statistics.median(marginals)

    floors = [python_wall(["-c", "pass"]) for _ in range(SETUP_REPEATS)]
    values["cli.interpreter_ms"] = statistics.median(floors) * 1000
    runs = [importtime() for _ in range(SETUP_REPEATS)]
    for key in runs[0]:
        values[key] = statistics.median(r[key] for r in runs)

    from rhetor import cli as rhetor_cli
    for _ in range(20):
        T.call("cli.build_parser", rhetor_cli.build_parser)
    seen = set()
    for job in cli.cycle():
        argv = job["argv"]
        if job["exit"] or "json" not in argv or "--file" in argv or argv[0] in seen:
            continue
        seen.add(argv[0])
        argv = [str(ROOT / a) if a.startswith("tests/") else a for a in argv]
        for _ in range(5):
            with contextlib.redirect_stdout(io.StringIO()):
                code = T.call(f"cli.main.{argv[0]}", rhetor_cli.main, argv)
            if code != 0:
                errors.append(f"in-process main({argv}) returned {code}")
    for _ in range(20):
        T.call("capacity.capacity_table", rhetor.capacity_table, 120)
    for _ in range(3):
        T.call("entropy.entropy_subset_sizes.sweep",
               lambda: [rhetor.entropy_subset_sizes(k) for k in range(1, 1001)])
    return values


def python_wall(args: list[str]) -> float:
    start = perf_counter()
    python(args)
    return perf_counter() - start


def layer_values(T: Tracer, own: str, passes: int, values: dict,
                 plain: Tally, traced: Tally, probed: dict) -> dict:
    """Per-layer metrics from the spans; job-level busy times are per pass."""
    agg = T.aggregate()
    owner = {"documents": "corpus", "pyramid": "mapping", "operators": "closure"}

    def entry(name):
        return agg.get(name, {"spans": 0, "calls": 0, "busy": 0.0, "points": []})

    def busy(name, layer=None):
        return entry(name)["busy"] / (passes if owner.get(layer) == own else 1)

    def per_call(name, scale):
        e = entry(name)
        return e["busy"] / e["calls"] * scale if e["calls"] else 0.0

    parse = entry("documents.parse_document")
    closure_pts = entry("operators.closure")["points"]
    values.update({
        "registry.resolve.calls": entry("registry.resolve")["calls"],
        "registry.resolve.busy_s": busy("registry.resolve"),
        "registry.resolve.miss_per_call_us": per_call("registry.resolve.miss_replay", 1e6),
        "registry.with_modes.busy_s": busy("registry.with_modes"),
        "registry.load_registry.busy_s": busy("registry.load_registry"),
        "documents.parse_document.busy_s": busy("documents.parse_document", "documents"),
        "documents.parse_document.segments_per_s":
            sum(s for s, _ in parse["points"]) / sum(d for _, d in parse["points"]),
        "documents.parse_document.growth_exp": loglog_slope(parse["points"]),
        "documents.serialize_document.busy_s":
            busy("documents.serialize_document", "documents"),
        "documents.analyze_coverage.busy_s": busy("documents.analyze_coverage", "documents"),
        "documents.trace_layers.busy_s": busy("documents.trace_layers", "documents"),
        "documents.trace_layers.growth_exp":
            loglog_slope(entry("documents.trace_layers")["points"]),
        "pyramid.load_pyramid.busy_s": busy("pyramid.load_pyramid"),
        "pyramid.children.calls": entry("pyramid.children")["calls"]
            / (passes if own == "mapping" else 1),
        "pyramid.children.per_call_us": per_call("pyramid.children", 1e6),
        "pyramid.node.per_call_us": per_call("pyramid.node", 1e6),
        "pyramid.branching_stats.per_call_ms": per_call("pyramid.branching_stats", 1e3),
        "pyramid.compose_re.per_call_ms": per_call("pyramid.compose_re", 1e3),
        "pyramid.serialize_pyramid.per_call_ms": per_call("pyramid.serialize_pyramid", 1e3),
        "operators.closure.busy_s": busy("operators.closure", "operators"),
        "operators.closure.derivations": (traced if own == "closure"
                                          else probed["closure"]).items_per_pass,
        "operators.closure.growth_exp": loglog_slope(
            [(s[0], d) for s, d in closure_pts], [s[1] for s, _ in closure_pts]),
        "operators.unite.per_call_us": per_call("operators.unite", 1e6),
        "operators.unary.per_call_us": per_call("operators.unary", 1e6),
        "cli.build_parser.per_call_ms": per_call("cli.build_parser", 1e3),
        "capacity.capacity_table.per_call_ms": per_call("capacity.capacity_table", 1e3),
        "entropy.entropy_subset_sizes.sweep_ms":
            entry("entropy.entropy_subset_sizes.sweep")["busy"] / 3 * 1e3,
        "trace.untraced_items_per_s": plain.items_per_s(),
        "trace.items_per_s": traced.items_per_s(),
        "trace.overhead_items_per_s": plain.items_per_s() - traced.items_per_s(),
        "trace.overhead_share": 1 - traced.items_per_s() / plain.items_per_s(),
        "trace.spans": len(T.spans),
    })
    for name in agg:
        if name.startswith("cli.main."):
            values[f"{name}.per_call_ms"] = per_call(name, 1e3)
    return values


# --- main ---------------------------------------------------------------------

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rhetor" / "__init__.py").is_file():
        fail(f"no rhetor sources under {SRC}; run from a source checkout")
    if not (ROOT / "tests" / "fixtures").is_dir():
        fail("tests/fixtures is missing; the cli oracles read it")
    sys.path.insert(0, str(SRC))
    import rhetor
    if Path(rhetor.__file__).resolve().parent != SRC / "rhetor":
        fail(f"imported rhetor from {rhetor.__file__}, not from {SRC}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    names = [args.workload] if not args.trace else list(WORKLOADS)
    truths = {}
    for name in names:
        (work / name).mkdir(parents=True)
        truths[name] = GENERATORS[name](args.seed, work / name)
    wls = {n: (WORKLOADS[n](rhetor, truths[n], ROOT, child_env()) if n == "cli"
               else WORKLOADS[n](rhetor, truths[n])) for n in names}
    own = wls[args.workload]

    try:
        if args.trace:
            result = traced_run(args, rhetor, own, wls, truths)
        else:
            result = plain_run(args, own)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("DETAIL " + json.dumps(result.pop("detail"), sort_keys=True))
    print(json.dumps(result))


def plain_run(args, own) -> dict:
    errors = [m for _, m in own.setup(Direct())]
    sampler = SetupSampler(own)
    (tally, _), passes = run_cycles(own, args.seconds, None, sampler)
    setup_times = sampler.finish()
    who = resource.RUSAGE_CHILDREN if own.name == "cli" else resource.RUSAGE_SELF
    lat_ms = [t * 1000 for t in tally.latencies()]
    raw_ms = [t * 1000 for t in tally.latencies(raw=True)]
    metrics = {
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (percentile(lat_ms, 90), "ms"),
        "items_per_s": (tally.items_per_s(), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return finish(own, [tally], errors, metrics, {
        "item": own.item, "passes": passes, "job_samples": len(lat_ms),
        "executions": tally.executions, "setup_samples": len(setup_times),
        "items_per_pass": tally.items_per_pass, "error_rate": tally.failed / tally.attempted,
        "wall": {"job_p50_ms": statistics.median(raw_ms), "job_p90_ms": percentile(raw_ms, 90),
                 "items_per_s": tally.items_per_s(raw=True),
                 "setup_s": statistics.median(sampler.raw)}})


def traced_run(args, rhetor, own, wls, truths) -> dict:
    T = Tracer()
    errors = []
    for wl in wls.values():
        errors += [m for _, m in wl.setup(T)]
    (plain, traced), passes = run_cycles(own, args.seconds, T)
    probed = {}
    for name in ("corpus", "mapping", "closure"):
        probed[name] = Tally()
        if name != own.name:
            for i, job in enumerate(probe_jobs(wls[name])):
                run_job(wls[name], T, job, probed[name], i, f"probe-{name}-{i}")
    values = replays(T, rhetor, wls, truths, errors)
    values = layer_values(T, own.name, passes, values, plain, traced, probed)
    T.export(ROOT / ".bench_work" / "spans" / f"{own.name}-{args.seed}.jsonl")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    missing = set(units) - set(values)
    if missing:
        fail(f"per-layer metrics not measured: {sorted(missing)}")
    metrics = {name: (values[name], units[name]) for name in units}
    return finish(own, [plain, traced, *probed.values()], errors, metrics, {
        "passes": passes, "spans": len(T.spans),
        "spans_file": f".bench_work/spans/{own.name}-{args.seed}.jsonl",
        "untraced_items_per_s": plain.items_per_s(), "traced_items_per_s": traced.items_per_s()})


def finish(own, tallies: list[Tally], errors: list, metrics: dict, detail: dict) -> dict:
    findings = sum((t.findings for t in tallies), Counter())
    examples = [e for t in tallies for e in t.examples][:5] + errors[:5]
    unexplained = findings.get("wrong", 0) + len(errors)
    detail.update({"workload": own.name, "findings": dict(findings), "examples": examples})
    if examples:
        print("\n".join(examples), file=sys.stderr)
    return {
        "correct": unexplained == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


if __name__ == "__main__":
    main()
