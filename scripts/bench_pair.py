"""Paired benchmark runs of two revisions: a parent and a change.

    python3 scripts/bench_pair.py --base 8b8178b --change HEAD --topic spelling \\
        --workload corpus --seeds 12-21
    python3 scripts/bench_pair.py --base HEAD~1 --change HEAD --topic closure \\
        --workload closure,corpus,mapping,cli --seeds 1-3

``--workload`` takes one workload or a comma-separated list; each runs
over every seed, one workload after the other.

Both revisions are exported with ``git archive`` into a temporary
directory, and the unchanged benchmark of each tree
(``perfbench/run.py --seconds 20 --trace 0``) runs once per seed and side,
one run at a time.  Pair k runs the parent first when k is even and the
change first when k is odd.

The result goes to ``BENCH_<topic>.json`` at the root of this checkout:
both commit ids, every run, and per workload the seeds, each end-to-end
metric's median and interquartile range on each side, the pairs the change
won (ties count for neither), failed and attempted jobs, and whether the
change's median stayed within the metric's bound from ``BENCHMARK.json``.
Runs already in that file for the same two commits are kept, so one topic
can gather several workloads over several calls.  The file is rewritten
after every pair.

Run it from the root of the checkout; it needs ``git`` and ``tar``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20
SIDES = ("base", "change")


def parse_result(stdout: str) -> dict:
    """The result object a benchmark run prints on its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and interquartile range; a single value has IQR 0."""
    median = statistics.median(values)
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else (median, median)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-workload comparison of paired runs.

    ``runs`` holds one record per run: ``workload``, ``seed``, ``side``
    (``base`` or ``change``) and the fields of :func:`parse_result`.  A pair
    is the two runs of one workload on one seed.  ``end_to_end`` is the
    list of the same name in ``BENCHMARK.json``.
    """
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                by_seed.setdefault(run["seed"], {})[run["side"]] = run
        pairs = [(p["base"], p["change"]) for p in by_seed.values() if len(p) == 2]
        summary: dict = {
            "seeds": [seed for seed, p in by_seed.items() if len(p) == 2],
            "pairs": len(pairs),
            "correct": {side: all(pair[i]["correct"] for pair in pairs)
                        for i, side in enumerate(SIDES)},
            "failed": {side: sum(pair[i]["failed"] for pair in pairs)
                       for i, side in enumerate(SIDES)},
            "attempted": {side: sum(pair[i]["attempted"] for pair in pairs)
                          for i, side in enumerate(SIDES)},
            "metrics": {},
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs]
            if not values:
                continue
            base = quartiles([b for b, _ in values])
            change = quartiles([c for _, c in values])
            wins = sum((c < b) if lower else (c > b) for b, c in values)
            gain = (base["median"] - change["median"] if lower
                    else change["median"] - base["median"])
            limit = base["median"] * (1 + metric["bound"] if lower else 1 - metric["bound"])
            summary["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "base": base, "change": change, "wins": wins,
                "within_bound": change["median"] <= limit if lower
                else change["median"] >= limit,
                "gain_beyond_base_iqr": gain > base["iqr"],
            }
        out[workload] = summary
    return out


def commit_id(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {tree.name} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def seed_list(text: str) -> list[int]:
    """Seeds as ``12-21``, ``1,3,5`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def workload_list(text: str) -> list[str]:
    """Workload names as ``closure`` or ``closure,corpus``; repeats are dropped."""
    names = [name.strip() for name in text.split(",")]
    if not all(names):
        raise ValueError(f"empty workload name in {text!r}")
    return list(dict.fromkeys(names))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="revision with the change")
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--workload", type=workload_list, required=True,
                        help="one workload or a comma-separated list")
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = set(args.workload) - {w["name"] for w in bench["workloads"]}
    if unknown:
        parser.error(f"unknown workload {', '.join(sorted(unknown))}")
    commits = {"base": commit_id(args.base), "change": commit_id(args.change)}
    out_path = ROOT / f"BENCH_{args.topic}.json"
    runs: list[dict] = []
    if out_path.exists():
        previous = json.loads(out_path.read_text(encoding="utf-8"))
        if all(previous[side] == commits[side] for side in SIDES):
            runs = previous["runs"]
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload, seed in [(w, s) for w in args.workload for s in args.seeds]:
            seeds_run = {r["seed"] for r in runs if r["workload"] == workload}
            if seed in seeds_run:
                continue
            order = SIDES if len(seeds_run) % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = bench_run(trees[side], workload, seed)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": position == 0, **result})
                print(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{n}={v:.5g}" for n, v in result["metrics"].items())
                    + f" failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            report = {
                "topic": args.topic, **commits,
                "command": [*bench["command"], "--seconds", str(SECONDS), "--trace", "0"],
                "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                         "python": platform.python_version()},
                "workloads": summarize(runs, bench["end_to_end"]),
                "runs": runs,
            }
            out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")


if __name__ == "__main__":
    main()
