"""Command-line front end: one binary, seven subcommands.

``rhetor tables|capacity|entropy|derive|map|analyze|cone`` with ``table``
(aligned text), ``csv``, or ``json`` output.  csv/json output is
byte-deterministic so it can be golden-file tested or piped to plotting.

Exit status: 0 on success, 1 on a domain error (the error class name is
the first token on stderr), 2 on usage errors or missing or unreadable
files, 141 (128 + SIGPIPE) when the reader of stdout stops early.  The
``RHETOR_REGISTRY`` environment variable may point at a registry JSON used
whenever ``--registry`` is not given.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

# Building the parser needs only the width caps.  Each command imports the
# rest of what it calls, so a call loads only the modules it uses.
# note: "from . import capacity" would bind the re-exported capacity()
# function, not the submodule, so names are imported explicitly instead.
from .capacity import MAX_WIDTH, capacity, capacity_table, coverage, growth
from .entropy import MAX_ENTROPY_WIDTH, entropy_layered, entropy_subset_sizes
from .errors import RhetorError

TABLE = "table"
CSV = "csv"
JSON = "json"
FORMATS = (TABLE, CSV, JSON)

REGISTRY_ENV = "RHETOR_REGISTRY"


def _real(x: float) -> str:
    return f"{x:.4f}"


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    numeric = [all(_is_numberish(row[i]) for row in rows) if rows else False
               for i in range(len(headers))]

    def fmt(cells):
        out = []
        for i, cell in enumerate(cells):
            out.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(out).rstrip()

    print(fmt(headers))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print(fmt(row))


def _is_numberish(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _emit(fmt: str, payload, *blocks) -> None:
    """Render one result: ``payload`` for json, otherwise ``blocks`` in order.

    A dict block is one record, printed as name/value lines (table) or a
    one-row csv; a ``(headers, rows)`` block is a table.  In table format a
    blank line separates blocks; csv blocks follow each other directly.
    """
    if fmt == JSON:
        from .registry import _json_text
        sys.stdout.write(_json_text(payload))
        return
    for i, block in enumerate(blocks):
        if fmt == CSV:
            import csv
            headers, rows = ((list(block), [list(block.values())])
                             if isinstance(block, dict) else block)
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(headers)
            writer.writerows(rows)
            continue
        if i:
            print()
        if isinstance(block, dict):
            width = max(len(name) for name in block)
            for name, value in block.items():
                print(f"{name.ljust(width)}  {value}")
        else:
            _print_table(*block)


# --- subcommands ------------------------------------------------------------

def cmd_tables(args) -> int:
    reports = capacity_table(args.max_k)
    headers = ["K", "k_m", "K_max", "K_NRC"]
    rows = [[str(r.K), str(r.k_m), str(r.K_max), str(r.K_NRC)] for r in reports]
    payload = [{"K": r.K, "k_m": r.k_m, "K_max": r.K_max, "K_NRC": r.K_NRC}
               for r in reports]
    _emit(args.format, payload, (headers, rows))
    return 0


def cmd_capacity(args) -> int:
    report = capacity(args.k)
    record = {"K": str(report.K), "k_m": str(report.k_m), "K_max": str(report.K_max),
              "K_NRC": str(report.K_NRC), "K_RC": _real(report.K_RC),
              "MRB": _real(report.MRB)}
    payload = asdict(report)
    if args.ln is not None:
        params = growth(args.ln, args.c0)
        record.update(L_n=_real(params.L_n), C_0=_real(params.C_0),
                      R_scale=_real(params.R_scale),
                      R_scale_norm=_real(params.R_scale_norm),
                      load_class=params.load_class)
        payload["growth"] = asdict(params)
    if args.used is not None:
        cov = coverage(args.used, args.k)
        record.update(K_u=str(cov.K_u), C_m=_real(cov.C_m), band=cov.band)
        payload["coverage"] = asdict(cov)
    _emit(args.format, payload, record)
    return 0


def _parse_layers(parser, text: str) -> list[tuple[str, int]]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--layers needs comma-separated integers, got {text!r}")
    if not counts:
        parser.error("--layers needs at least one branching factor")
    for count in counts:
        if count < 1 or count > MAX_ENTROPY_WIDTH:
            parser.error(f"--layers value {count} is outside "
                         f"1..{MAX_ENTROPY_WIDTH}")
    return [(f"L{i}", count) for i, count in enumerate(counts, start=1)]


def cmd_entropy(args, parser) -> int:
    if args.layers is not None:
        if args.flat is None:
            parser.error("--layers requires --flat")
        report = entropy_layered(_parse_layers(parser, args.layers), args.flat)
        headers = ["stage", "branching", "H"]
        rows = [[name, str(b), _real(h)] for name, b, h in report.stage_entropies]
        rows.append(["flat", str(report.flat_K), _real(report.flat_H)])
        rows.append(["max_stage", "", _real(report.max_stage_H)])
        rows.append(["sum_stage", "", _real(report.sum_stage_H)])
        payload = asdict(report)
        payload["stages"] = [{"name": name, "branching": b, "H": h}
                             for name, b, h in payload.pop("stage_entropies")]
        _emit(args.format, payload, (headers, rows))
        return 0
    report = entropy_subset_sizes(args.k)
    record = {"K": str(report.K), "H_flat": _real(report.H_flat),
              "H_subset": _real(report.H_subset),
              "H_asymptotic": _real(report.H_asymptotic), "gap": _real(report.gap)}
    _emit(args.format, asdict(report), record)
    return 0


def cmd_derive(args, parser) -> int:
    from .operators import OPERATOR_KINDS, closure, load_rules, operator_kind
    from .registry import base_atoms, load_registry
    kinds = OPERATOR_KINDS
    if args.ops is not None:
        try:
            kinds = [operator_kind(name.strip())
                     for name in args.ops.split(",") if name.strip()]
        except ValueError as exc:
            parser.error(str(exc))
        if not kinds:
            parser.error("--ops needs at least one operator")
    registry = load_registry(args.registry)
    rules = load_rules(args.rules)
    seed = base_atoms() if args.atoms_only_base else None
    derivations = closure(registry, rules, kinds, args.depth, seed=seed)
    headers = ["depth", "operator", "inputs", "results", "rediscovery"]
    rows = [[str(d.depth), d.operator, "+".join(d.inputs),
             "+".join(d.result_ids), str(d.rediscovery).lower()]
            for d in derivations]
    payload = [{"depth": d.depth, "operator": d.operator, "inputs": d.inputs,
                "results": d.result_ids, "rediscovery": d.rediscovery}
               for d in derivations]
    _emit(args.format, payload, (headers, rows))
    return 0


def cmd_map(args) -> int:
    from .pyramid import C, DEFAULT_PROFILE, E, branching_stats, compose_re, load_pyramid
    from .registry import load_registry
    profile = DEFAULT_PROFILE if args.profile is None else args.profile
    graph = load_pyramid(profile, source=args.file,
                         registry=load_registry(args.registry))
    if args.realizers is not None:
        layer, _, name = args.realizers.partition(":")
        nodes = graph.children(layer.strip().upper(), name.strip())
        rows = [[n.id, n.display_name] for n in nodes]
        payload = [{"id": n.id, "display_name": n.display_name} for n in nodes]
        _emit(args.format, payload, (["id", "display_name"], rows))
        return 0
    if args.compose is not None:
        reached = compose_re(graph, args.compose)
        _emit(args.format, reached, (["mode"], [[r] for r in reached]))
        return 0
    if args.stats:
        stats = branching_stats(graph)
        rows = [["C", node, str(degree)] for node, degree in stats.c_degrees]
        rows += [["E", node, str(degree)] for node, degree in stats.e_degrees]
        payload = {
            "C": dict(stats.c_degrees), "E": dict(stats.e_degrees),
            "C_max": stats.max_degree(C), "C_mean": stats.mean_degree(C),
            "E_max": stats.max_degree(E), "E_mean": stats.mean_degree(E),
        }
        _emit(args.format, payload, (["layer", "node", "out_degree"], rows))
        return 0
    rows = [["C", c, r] for c, r in sorted(graph.edges_cr)]
    rows += [["E", e, c] for e, c in sorted(graph.edges_ec)]
    _emit(args.format, graph.to_document(), (["layer", "from", "to"], rows))
    return 0


def cmd_analyze(args) -> int:
    from .documents import analyze_coverage, load_stage_map, parse_document, trace_layers
    from .pyramid import DEFAULT_PROFILE, load_pyramid
    from .registry import load_registry
    registry = load_registry(args.registry)
    doc = parse_document(args.file, registry)
    cov = analyze_coverage(doc, args.k)
    record = {"doc": doc.id, "K_u": str(cov.K_u), "K": str(cov.K),
              "C_m": _real(cov.C_m), "band": cov.band}
    payload: dict = {"doc": doc.id, "coverage": asdict(cov)}
    if args.map is None:
        _emit(args.format, payload, record)
        return 0
    stage_map = load_stage_map(args.map)
    profile = DEFAULT_PROFILE if args.profile is None else args.profile
    trace = trace_layers(doc, load_pyramid(profile, registry=registry), stage_map)
    payload["trace"] = {"e_ids": trace.e_ids, "stages": [asdict(s) for s in trace.stages]}
    headers = ["stage", "c_ids", "e_id", "observed", "overlap", "mismatch"]
    rows = [[s.stage, "+".join(s.c_ids), s.e_id, "+".join(sorted(s.observed)),
             "+".join(sorted(s.overlap)), "+".join(sorted(s.mismatch))]
            for s in trace.stages]
    _emit(args.format, payload, record, (headers, rows))
    return 0


def cmd_cone(args) -> int:
    from .documents import cone, load_schedule
    schedule = load_schedule(args.schedule)
    rows_data = cone(schedule, args.c0)
    headers = ["stage", "K", "K_NRC", "K_RC", "R_scale", "R_scale_norm"]
    rows = [[r.stage, str(r.K), str(r.K_NRC), _real(r.K_RC),
             _real(r.R_scale), _real(r.R_scale_norm)] for r in rows_data]
    _emit(args.format, [asdict(r) for r in rows_data], (headers, rows))
    return 0


# --- parser -----------------------------------------------------------------

def _int_in_range(lo: int, hi: int):
    """argparse type: integer within [lo, hi]; violations are usage errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo or value > hi:
            raise argparse.ArgumentTypeError(f"{value} is outside {lo}..{hi}")
        return value
    return parse


def _file_flag(text: str) -> Path:
    """argparse type for FILE values: an empty name is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got an empty string")
    return Path(text)


_width_flag = _int_in_range(1, MAX_WIDTH)
_entropy_width_flag = _int_in_range(1, MAX_ENTROPY_WIDTH)
_depth_flag = _int_in_range(1, 10_000)
_count_flag = _int_in_range(0, 10**9)
_positive_flag = _int_in_range(1, math.inf)


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=FORMATS, default=TABLE,
                     help="output format (default: table)")


def _add_registry(sub) -> None:
    sub.add_argument("--registry", metavar="FILE", type=_file_flag,
                     help="registry JSON (default: built-in modes, or "
                          "$RHETOR_REGISTRY when set)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhetor",
        description="Mode registry, duality operators, capacity and entropy "
                    "metrics, layer mapping, and annotated-document analysis.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("tables", help="capacity table for widths 1..K")
    sub.add_argument("--max-k", type=_width_flag, required=True, metavar="K")
    _add_format(sub)
    sub.set_defaults(func=cmd_tables)

    sub = commands.add_parser("capacity", help="capacity report for one width")
    sub.add_argument("--k", "--K", dest="k", type=_width_flag, required=True)
    sub.add_argument("--ln", type=float, metavar="L_N",
                     help="introduction rate; adds growth fields")
    sub.add_argument("--c0", type=float, default=1.0, metavar="C_0",
                     help="learner capacity in bits/stage (default 1.0)")
    sub.add_argument("--used", type=_count_flag, metavar="K_U",
                     help="modes actually used; adds coverage fields")
    _add_format(sub)
    sub.set_defaults(func=cmd_capacity)

    sub = commands.add_parser("entropy", help="choice-entropy report")
    sub.add_argument("--k", "--K", dest="k", type=_entropy_width_flag, required=True)
    sub.add_argument("--layers", metavar="B1,B2,...",
                     help="per-stage branching factors for a layered report")
    sub.add_argument("--flat", type=_entropy_width_flag, metavar="K",
                     help="flat width the layered report compares against")
    _add_format(sub)
    sub.set_defaults(func=cmd_entropy, needs_parser=True)

    sub = commands.add_parser("derive", help="closure of duality operators")
    sub.add_argument("--ops", metavar="OP[,OP...]",
                     help="operators: split, unite, fb, expand, reduce, ortho")
    sub.add_argument("--depth", type=_depth_flag, default=1)
    sub.add_argument("--rules", metavar="FILE", type=_file_flag,
                     help="duality rules JSON")
    sub.add_argument("--atoms-only-base", action="store_true",
                     help="seed with the 7 canonical-table atoms only")
    _add_registry(sub)
    _add_format(sub)
    sub.set_defaults(func=cmd_derive, needs_parser=True)

    sub = commands.add_parser("map", help="three-layer mapping graph")
    sub.add_argument("--profile",
                     help="built-in profile name (default/academic-writing)")
    sub.add_argument("--file", metavar="FILE", type=_file_flag,
                     help="mapping document JSON")
    action = sub.add_mutually_exclusive_group()
    action.add_argument("--realizers", metavar="LAYER:NODE",
                        help="list the lower-layer nodes of one node (e.g. C:observe)")
    action.add_argument("--compose", metavar="E_NODE",
                        help="list all modes reachable from an E-node")
    action.add_argument("--stats", action="store_true",
                        help="out-degree of every upper-layer node")
    _add_registry(sub)
    _add_format(sub)
    sub.set_defaults(func=cmd_map)

    sub = commands.add_parser("analyze", help="coverage and layer trace of a document")
    sub.add_argument("file", metavar="FILE.rma", type=_file_flag)
    sub.add_argument("--k", "--K", dest="k", type=_positive_flag,
                     help="repertoire width (default: declared_K)")
    sub.add_argument("--map", metavar="FILE", type=_file_flag,
                     help="stage map JSON enabling the trace")
    sub.add_argument("--profile", help="mapping profile for the trace")
    _add_registry(sub)
    _add_format(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = commands.add_parser("cone", help="capacity growth along a stage schedule")
    sub.add_argument("--schedule", metavar="FILE", type=_file_flag,
                     help="schedule JSON")
    sub.add_argument("--c0", type=float, default=1.0, metavar="C_0",
                     help="learner capacity in bits/stage (default 1.0)")
    _add_format(sub)
    sub.set_defaults(func=cmd_cone)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_registry = os.environ.get(REGISTRY_ENV)
    if env_registry is not None and "registry" in vars(args) and args.registry is None:
        if not env_registry:
            parser.error(f"{REGISTRY_ENV} is set but empty")
        args.registry = Path(env_registry)
    try:
        if getattr(args, "needs_parser", False):
            code = args.func(args, parser)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return code
    except RhetorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader stopped early: end quietly, as a SIGPIPE-killed filter would.
        # Pointing stdout at devnull keeps the final flush from failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
