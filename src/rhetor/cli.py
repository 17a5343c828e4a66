"""Command-line front end: one binary, seven subcommands.

``rhetor tables|capacity|entropy|derive|map|analyze|cone`` with ``table``
(aligned text), ``csv``, or ``json`` output.  csv/json output is
byte-deterministic so it can be golden-file tested or piped to plotting.
Each ``cmd_*`` returns :func:`_emit`'s arguments ``(payload, *blocks)`` and
writes nothing; :func:`main` renders it once and maps errors to exit status.

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
from pathlib import Path

# Building the parser needs only the width caps.  Each command imports the
# rest of what it calls, so a call loads only the modules it uses.
# note: "from . import capacity" would bind the re-exported capacity()
# function, not the submodule, so names are imported explicitly instead.
from .capacity import MAX_WIDTH, capacity, capacity_table, coverage, growth
from .entropy import MAX_ENTROPY_WIDTH, entropy_layered, entropy_subset_sizes
from .errors import RhetorError, shown
from .records import asdict

TABLE = "table"
CSV = "csv"
JSON = "json"
FORMATS = (TABLE, CSV, JSON)

REGISTRY_ENV = "RHETOR_REGISTRY"


def _cell(value) -> str:
    """One table or csv cell: ``true``/``false``, reals to 4 places, sets
    sorted and sequences in order joined with ``+``, anything else as str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, (set, frozenset)):
        return "+".join(sorted(value))
    if isinstance(value, (tuple, list)):
        return "+".join(value)
    return str(value)


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
    one-row csv; a ``(headers, rows)`` block is a table whose rows are
    sequences or dicts keyed by header.  Blocks hold raw values; every cell
    goes through :func:`_cell`.  In table format a blank line separates
    blocks; csv blocks follow each other directly.
    """
    if fmt == JSON:
        from .jsontext import json_text
        sys.stdout.write(json_text(payload))
        return
    for i, block in enumerate(blocks):
        record = isinstance(block, dict)
        headers, rows = (list(block), [block]) if record else block
        cells = [[_cell(row[h]) for h in headers] if isinstance(row, dict)
                 else [_cell(value) for value in row] for row in rows]
        if fmt == CSV:
            import csv
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(headers)
            writer.writerows(cells)
            continue
        if i:
            print()
        if record:
            width = max(len(name) for name in headers)
            for name, cell in zip(headers, cells[0]):
                print(f"{name.ljust(width)}  {cell}")
        else:
            _print_table(headers, cells)


# --- subcommands ------------------------------------------------------------

def cmd_tables(args, parser) -> tuple:
    records = [{"K": r.K, "k_m": r.k_m, "K_max": r.K_max, "K_NRC": r.K_NRC}
               for r in capacity_table(args.max_k)]
    return records, (["K", "k_m", "K_max", "K_NRC"], records)


def cmd_capacity(args, parser) -> tuple:
    payload = asdict(capacity(args.k))
    record = dict(payload)
    if args.ln is not None:
        payload["growth"] = asdict(growth(args.ln, args.c0))
        record.update(payload["growth"])
    if args.used is not None:
        # coverage's K is args.k, so merging it keeps the record's K in place
        payload["coverage"] = asdict(coverage(args.used, args.k))
        record.update(payload["coverage"])
    return payload, record


def _parse_layers(parser, text: str) -> list[tuple[str, int]]:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--layers needs comma-separated integers, got {shown(text)}")
    if not counts:
        parser.error("--layers needs at least one branching factor")
    for count in counts:
        if count < 1 or count > MAX_ENTROPY_WIDTH:
            parser.error(f"--layers value {shown(count)} is outside "
                         f"1..{MAX_ENTROPY_WIDTH}")
    return [(f"L{i}", count) for i, count in enumerate(counts, start=1)]


def cmd_entropy(args, parser) -> tuple:
    if args.layers is None:
        record = asdict(entropy_subset_sizes(args.k))
        return record, record
    if args.flat is None:
        parser.error("--layers requires --flat")
    report = entropy_layered(_parse_layers(parser, args.layers), args.flat)
    rows = [*report.stage_entropies, ("flat", report.flat_K, report.flat_H),
            ("max_stage", "", report.max_stage_H), ("sum_stage", "", report.sum_stage_H)]
    payload = asdict(report)
    payload["stages"] = [{"name": name, "branching": b, "H": h}
                         for name, b, h in payload.pop("stage_entropies")]
    return payload, (["stage", "branching", "H"], rows)


def cmd_derive(args, parser) -> tuple:
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
    records = [{"depth": d.depth, "operator": d.operator, "inputs": d.inputs,
                "results": d.result_ids, "rediscovery": d.rediscovery}
               for d in closure(registry, rules, kinds, args.depth, seed=seed)]
    headers = ["depth", "operator", "inputs", "results", "rediscovery"]
    return records, (headers, records)


def cmd_map(args, parser) -> tuple:
    from .pyramid import C, DEFAULT_PROFILE, E, branching_stats, compose_re, load_pyramid
    from .registry import load_registry
    profile = DEFAULT_PROFILE if args.profile is None else args.profile
    graph = load_pyramid(profile, source=args.file,
                         registry=load_registry(args.registry))
    if args.realizers is not None:
        layer, _, name = args.realizers.partition(":")
        records = [{"id": n.id, "display_name": n.display_name}
                   for n in graph.children(layer.strip().upper(), name.strip())]
        return records, (["id", "display_name"], records)
    if args.compose is not None:
        reached = compose_re(graph, args.compose)
        return reached, (["mode"], [[r] for r in reached])
    if args.stats:
        stats = branching_stats(graph)
        rows = [["C", node, degree] for node, degree in stats.c_degrees]
        rows += [["E", node, degree] for node, degree in stats.e_degrees]
        payload = {
            "C": dict(stats.c_degrees), "E": dict(stats.e_degrees),
            "C_max": stats.max_degree(C), "C_mean": stats.mean_degree(C),
            "E_max": stats.max_degree(E), "E_mean": stats.mean_degree(E),
        }
        return payload, (["layer", "node", "out_degree"], rows)
    doc = graph.to_document()  # each layer's nodes and children come sorted
    rows = [["C", node["id"], r] for node in doc["c_nodes"] for r in node["modes"]]
    rows += [["E", node["id"], c] for node in doc["e_nodes"] for c in node["cognitive"]]
    return doc, (["layer", "from", "to"], rows)


def cmd_analyze(args, parser) -> tuple:
    from .documents import analyze_coverage, load_stage_map, parse_document, trace_layers
    from .pyramid import DEFAULT_PROFILE, load_pyramid
    from .registry import load_registry
    registry = load_registry(args.registry)
    doc = parse_document(args.file, registry)
    payload: dict = {"doc": doc.id, "coverage": asdict(analyze_coverage(doc, args.k))}
    record = {"doc": doc.id, **payload["coverage"]}
    if args.map is None:
        return payload, record
    stage_map = load_stage_map(args.map)
    profile = DEFAULT_PROFILE if args.profile is None else args.profile
    trace = trace_layers(doc, load_pyramid(profile, registry=registry), stage_map)
    stages = [asdict(s) for s in trace.stages]
    payload["trace"] = {"e_ids": trace.e_ids, "stages": stages}
    headers = ["stage", "c_ids", "e_id", "observed", "overlap", "mismatch"]
    return payload, record, (headers, stages)


def cmd_cone(args, parser) -> tuple:
    from .schedule import cone, load_schedule
    records = [asdict(r) for r in cone(load_schedule(args.schedule), args.c0)]
    headers = ["stage", "K", "K_NRC", "K_RC", "R_scale", "R_scale_norm"]
    return records, (headers, records)


# --- parser -----------------------------------------------------------------

def _int_in_range(lo: int, hi: int):
    """argparse type: integer within [lo, hi]; violations are usage errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{shown(text)} is not an integer") from None
        if value < lo or value > hi:
            raise argparse.ArgumentTypeError(f"{shown(value)} is outside {lo}..{hi}")
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
    sub.set_defaults(func=cmd_tables, parser=sub)

    sub = commands.add_parser("capacity", help="capacity report for one width")
    sub.add_argument("--k", "--K", dest="k", type=_width_flag, required=True)
    sub.add_argument("--ln", type=float, metavar="L_N",
                     help="introduction rate; adds growth fields")
    sub.add_argument("--c0", type=float, default=1.0, metavar="C_0",
                     help="learner capacity in bits/stage (default 1.0)")
    sub.add_argument("--used", type=_count_flag, metavar="K_U",
                     help="modes actually used; adds coverage fields")
    _add_format(sub)
    sub.set_defaults(func=cmd_capacity, parser=sub)

    sub = commands.add_parser("entropy", help="choice-entropy report")
    sub.add_argument("--k", "--K", dest="k", type=_entropy_width_flag, required=True)
    sub.add_argument("--layers", metavar="B1,B2,...",
                     help="per-stage branching factors for a layered report")
    sub.add_argument("--flat", type=_entropy_width_flag, metavar="K",
                     help="flat width the layered report compares against")
    _add_format(sub)
    sub.set_defaults(func=cmd_entropy, parser=sub)

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
    sub.set_defaults(func=cmd_derive, parser=sub)

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
    sub.set_defaults(func=cmd_map, parser=sub)

    sub = commands.add_parser("analyze", help="coverage and layer trace of a document")
    sub.add_argument("file", metavar="FILE.rma", type=_file_flag)
    sub.add_argument("--k", "--K", dest="k", type=_positive_flag,
                     help="repertoire width (default: declared_K)")
    sub.add_argument("--map", metavar="FILE", type=_file_flag,
                     help="stage map JSON enabling the trace")
    sub.add_argument("--profile", help="mapping profile for the trace")
    _add_registry(sub)
    _add_format(sub)
    sub.set_defaults(func=cmd_analyze, parser=sub)

    sub = commands.add_parser("cone", help="capacity growth along a stage schedule")
    sub.add_argument("--schedule", metavar="FILE", type=_file_flag,
                     help="schedule JSON")
    sub.add_argument("--c0", type=float, default=1.0, metavar="C_0",
                     help="learner capacity in bits/stage (default 1.0)")
    _add_format(sub)
    sub.set_defaults(func=cmd_cone, parser=sub)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    env_registry = os.environ.get(REGISTRY_ENV)
    if env_registry is not None and "registry" in vars(args) and args.registry is None:
        if not env_registry:
            args.parser.error(f"{REGISTRY_ENV} is set but empty")
        args.registry = Path(env_registry)
    try:
        _emit(args.format, *args.func(args, args.parser))
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return 0
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
