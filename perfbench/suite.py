"""Run the whole rhetor benchmark and summarise it.

    python3 perfbench/suite.py run   [--seeds N] [--seconds S] [--workloads a,b]
    python3 perfbench/suite.py trace [--seed N]  [--seconds S] [--workloads a,b]
    python3 perfbench/suite.py check [--seeds N] [--seconds S] [--workloads a,b]

``run`` prints the six end-to-end metrics of every workload (median over
seeds, with units and sample counts), untraced.  ``trace`` prints the
per-layer metrics of each workload's traced run and the tracing overhead.
``check`` is the steadiness self-check: it runs every workload on N seeds,
twice over (fresh seeds in the second round), and prints each end-to-end
metric's spread (interquartile range over median) in each round and the
drift of its median between the rounds, either way, next to the metric's
bound from BENCHMARK.json.  A workload is unsteady if any spread or drift
exceeds the bound.

Run from the root of the checkout; runs go one at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHERE = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
ROUNDS = 2


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("DETAIL "))
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def cmd_run(args) -> None:
    for workload in args.workloads:
        results = [one_run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        detail = results[0]["detail"]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}  ({args.seeds} run(s), item = {detail['item']}, "
              f"correct = {all(r['correct'] for r in results)})")
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            samples = sum(r["detail"]["setup_samples" if name == "setup_s" else "job_samples"]
                          for r in results)
            print(f"  {name:<12} {statistics.median(values):>14.6g} {metric['unit']:<5}"
                  f" n={samples}")
        print(f"  {'error_rate':<12} {failed / attempted:>14.6g} {'ratio':<5}"
              f" n={attempted}  findings={_findings(results)}")


def _findings(results) -> dict:
    total: dict[str, int] = {}
    for r in results:
        for kind, count in r["detail"]["findings"].items():
            total[kind] = total.get(kind, 0) + count
    return total


def cmd_trace(args) -> None:
    for workload in args.workloads:
        result = one_run(workload, args.seed, args.seconds, 1)
        detail = result["detail"]
        print(f"\n{workload}  (traced, seed {args.seed}, {detail['spans']} spans in "
              f"{detail['spans_file']}, correct = {result['correct']})")
        for layer in BENCH["per_layer"]:
            name, where = layer["name"], WHERE[layer["name"]]
            value = result["metrics"][name]["value"]
            mark = "*" if where["on"] in (workload, "all") else " "
            print(f" {mark}{name:<42} {value:>14.6g} {layer['unit']:<6}"
                  f" -> {','.join(where['moves']) or '-'} on {where['on']}")
        overhead = result["metrics"]["trace.overhead_items_per_s"]["value"]
        print(f"  tracing overhead: {overhead:.6g} items/s "
              f"({result['metrics']['trace.overhead_share']['value']:.2%})")
        if workload == "cli":
            print_import_breakdown(result["metrics"])


def print_import_breakdown(metrics: dict) -> None:
    """Import self time per module, set against the bare interpreter start."""
    floor = metrics["cli.interpreter_ms"]["value"]
    total = metrics["cli.import_ms"]["value"]
    print(f"  interpreter start (floor) {floor:.1f} ms; import rhetor.cli {total:.1f} ms"
          f" = {total / floor:.2f} x floor")
    parts = sorted(((m["value"], name.removeprefix("cli.import.").removesuffix("_ms"))
                    for name, m in metrics.items() if name.startswith("cli.import.")),
                   reverse=True)
    for ms, module in parts:
        print(f"    {module:<10} {ms:7.2f} ms  {ms / floor:6.1%} of floor")


def cmd_check(args) -> None:
    runs: dict[tuple[int, str], list[dict]] = {}
    for rnd in range(1, ROUNDS + 1):
        for k in range(args.seeds):
            seed = 100 * rnd + k + 1
            for workload in args.workloads:
                start = time.perf_counter()
                result = one_run(workload, seed, args.seconds, 0)
                runs.setdefault((rnd, workload), []).append(result)
                print(f"round {rnd} seed {seed} {workload} ({time.perf_counter() - start:.1f} s): "
                      + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                      file=sys.stderr)
    unsteady: dict[str, list[str]] = {}
    print(f"{'workload':<8} {'metric':<12} {'bound':>6} "
          + " ".join(f"{'spread' + str(r):>8}" for r in range(1, ROUNDS + 1))
          + f" {'drift':>8}")
    for workload in args.workloads:
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_round = [[r["metrics"][name]["value"] for r in runs[(rnd, workload)]]
                         for rnd in range(1, ROUNDS + 1)]
            spreads = [spread(v) for v in per_round]
            first, second = (statistics.median(v) for v in per_round)
            drift = abs(second - first) / first
            flags = []
            if max(spreads) > bound:
                flags.append(f"{name} spread {max(spreads):.3f} > {bound}")
            if drift > bound:
                flags.append(f"{name} drift {drift:.3f} > {bound}")
            unsteady.setdefault(workload, []).extend(flags)
            print(f"{workload:<8} {name:<12} {bound:>6} "
                  + " ".join(f"{s:>8.4f}" for s in spreads) + f" {drift:>8.4f}"
                  + ("  UNSTEADY" if flags else ""))
        results = [r for rnd in range(1, ROUNDS + 1) for r in runs[(rnd, workload)]]
        if not all(r["correct"] for r in results):
            unsteady[workload].append("an oracle found an unexplained wrong answer")
        print(f"{workload:<8} failed jobs {sum(r['failed'] for r in results)}, "
              f"findings {_findings(results)}")
    bad = {w: why for w, why in unsteady.items() if why}
    for workload, why in bad.items():
        print(f"unsteady: {workload}: {'; '.join(why)}")
    if not bad:
        print("every workload checked is steady within its bounds")
    sys.exit(1 if bad else 0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("run", "trace", "check"))
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    if args.seeds is None:
        args.seeds = 10 if args.command == "check" else 1
    {"run": cmd_run, "trace": cmd_trace, "check": cmd_check}[args.command](args)


if __name__ == "__main__":
    main()
