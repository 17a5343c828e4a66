"""The four benchmark workloads: set-up, one job cycle, and an oracle per job.

Each workload runs closed-loop with one client: the next job starts only
when the last one has returned.  ``run`` makes the library calls of one
job through ``T.call`` (a tracer, or a pass-through when untraced) and
returns ``(items, output)``; ``check`` compares the output with the
generator's ground truth, outside the timed region, and returns a list of
``(kind, message)`` mismatches.  ``kind`` is ``"wrong"`` or the name of a
known defect the mismatch is attributed to.
"""
from __future__ import annotations

import csv
import json
import math
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

UNITE_ID_CLASH = "unite-id-clash"

_GRAPH_SETUP = """
reg = rhetor.load_registry(Path({registry!r}))
rhetor.load_pyramid(source=Path({mapping!r}), registry=reg)
"""


def _band(c_m: float) -> str:
    return "limited" if c_m < 0.3 else "moderate" if c_m < 0.7 else "high"


def _cmp(errs, what, got, want):
    if got != want:
        errs.append(("wrong", f"{what}: got {_short(got)}, want {_short(want)}"))


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 160 else text[:157] + "..."


class Corpus:
    """Annotated documents: parse, coverage, layer trace, serialize, parse back."""

    name = "corpus"
    item = "segments"

    def __init__(self, rhetor, truth):
        self.r = rhetor
        self.t = truth

    def setup_code(self) -> str:
        return _GRAPH_SETUP.format(**self.t) + f"rhetor.load_stage_map(Path({self.t['stages']!r}))\n"

    def setup(self, T):
        r, t = self.r, self.t
        self.registry = T.call("registry.load_registry", r.load_registry, Path(t["registry"]))
        self.graph = T.call("pyramid.load_pyramid", r.load_pyramid,
                            source=Path(t["mapping"]), registry=self.registry)
        self.stage_map = T.call("documents.load_stage_map", r.load_stage_map,
                                Path(t["stages"]))
        return []

    def cycle(self):
        return self.t["docs"]

    @staticmethod
    def kind(doc) -> str:
        return "malformed" if doc["malformed"] else "document"

    def run(self, T, doc):
        r = self.r
        path = Path(doc["path"])
        if doc["malformed"]:
            try:
                T.call("documents.parse_document", r.parse_document, path, self.registry)
            except r.RhetorError as exc:
                return 0, exc
            return 0, None
        n = len(doc["segments"])
        parsed = T.call("documents.parse_document", r.parse_document, path, self.registry,
                        size=n)
        cov = T.call("documents.analyze_coverage", r.analyze_coverage, parsed, size=n)
        trace = T.call("documents.trace_layers", r.trace_layers, parsed, self.graph,
                       self.stage_map, size=n * len(doc["stages"]))
        text = T.call("documents.serialize_document", r.serialize_document, parsed, size=n)
        back = T.call("documents.parse_document", r.parse_document, text, self.registry,
                      size=n)
        return n, (parsed, cov, trace, back)

    def check(self, doc, out):
        errs = []
        if doc["malformed"]:
            got = (type(out).__name__, getattr(out, "line", None)) if out else None
            _cmp(errs, f"{doc['id']} error", got, (doc["error"], doc["line"]))
            return errs
        parsed, cov, trace, back = out
        _cmp(errs, f"{doc['id']} header", (parsed.id, parsed.declared_K),
             (doc["id"], doc["declared_K"]))
        _cmp(errs, f"{doc['id']} segments",
             [(s.index, s.stage, s.modes) for s in parsed.segments], doc["segments"])
        _cmp(errs, f"{doc['id']} union", parsed.mode_union(), doc["union"])
        k_u, k = len(doc["union"]), doc["declared_K"]
        _cmp(errs, f"{doc['id']} coverage", (cov.K_u, cov.K, cov.C_m, cov.band),
             (k_u, k, k_u / k, _band(k_u / k)))
        observed: dict[str, set] = {}
        for _, stage, modes in doc["segments"]:
            observed.setdefault(stage, set()).update(modes)
        want_stages, want_e = [], []
        for stage in doc["stages"]:
            c_ids, e_id = self.t["stage_truth"][stage]
            expected = frozenset().union(*(self.t["c_children"][c] for c in c_ids))
            seen = frozenset(observed[stage])
            want_stages.append((stage, c_ids, e_id, seen, expected,
                                seen & expected, seen - expected))
            if e_id not in want_e:
                want_e.append(e_id)
        _cmp(errs, f"{doc['id']} trace", [
            (s.stage, s.c_ids, s.e_id, s.observed, s.expected, s.overlap, s.mismatch)
            for s in trace.stages], want_stages)
        _cmp(errs, f"{doc['id']} trace e_ids", list(trace.e_ids), want_e)
        _cmp(errs, f"{doc['id']} round trip", back, parsed)
        return errs


class Mapping:
    """Queries against one large R->C->E graph loaded from a mapping document."""

    name = "mapping"
    item = "queries"

    def __init__(self, rhetor, truth):
        self.r = rhetor
        self.t = truth

    def setup_code(self) -> str:
        return _GRAPH_SETUP.format(**self.t)

    def setup(self, T):
        r, t = self.r, self.t
        self.registry = T.call("registry.load_registry", r.load_registry, Path(t["registry"]))
        self.graph = T.call("pyramid.load_pyramid", r.load_pyramid,
                            source=Path(t["mapping"]), registry=self.registry)
        errs = []
        minted = sorted(m.id for m in self.graph.registry if m.id not in self.registry)
        _cmp(errs, "minted atoms", minted, t["minted"])
        return errs

    def cycle(self):
        return self.t["jobs"]

    @staticmethod
    def kind(job) -> str:
        return job[0]

    def _lookup(self, T, layer, ident):
        name = self.t["loose"][ident]
        return (T.call("pyramid.node", self.graph.node, layer, name),
                T.call("pyramid.children", self.graph.children, layer, name))

    def run(self, T, job):
        kind, arg = job
        if kind == "lookup":
            return 2 * len(arg), [self._lookup(T, "C", c) for c in arg]
        if kind == "drill":
            e_id, c_ids = arg
            top = self._lookup(T, "E", e_id)
            below = [self._lookup(T, "C", c) for c in c_ids]
            reached = T.call("pyramid.compose_re", self.r.compose_re, self.graph,
                             self.t["loose"][e_id])
            return 3 + 2 * len(c_ids), (top, below, reached)
        if kind == "stats":
            return 1, T.call("pyramid.branching_stats", self.r.branching_stats, self.graph)
        return 1, T.call("pyramid.serialize_pyramid", self.r.serialize_pyramid, self.graph)

    def _check_lookup(self, errs, layer, ident, got):
        node, children = got
        want = (self.t["c_children"] if layer == "C" else self.t["e_children"])[ident]
        _cmp(errs, f"node {layer}:{ident}", (node.layer, node.id), (layer, ident))
        _cmp(errs, f"children {layer}:{ident}", tuple(n.id for n in children), want)

    def check(self, job, out):
        errs = []
        kind, arg = job
        t = self.t
        if kind == "lookup":
            for c_id, got in zip(arg, out):
                self._check_lookup(errs, "C", c_id, got)
        elif kind == "drill":
            e_id, c_ids = arg
            top, below, reached = out
            self._check_lookup(errs, "E", e_id, top)
            for c_id, got in zip(c_ids, below):
                self._check_lookup(errs, "C", c_id, got)
            want = sorted(set().union(*(t["c_children"][c] for c in t["e_children"][e_id])))
            _cmp(errs, f"compose_re {e_id}", reached, tuple(want))
        elif kind == "stats":
            _cmp(errs, "C degrees", out.c_degrees,
                 tuple(sorted((c, len(m)) for c, m in t["c_children"].items())))
            _cmp(errs, "E degrees", out.e_degrees,
                 tuple(sorted((e, len(m)) for e, m in t["e_children"].items())))
        else:
            _cmp(errs, "export", json.loads(out), t["export"])
        return errs


class Closure:
    """Bounded-depth operator closure over generated seeds and rules."""

    name = "closure"
    item = "derivations"

    def __init__(self, rhetor, truth):
        self.r = rhetor
        self.t = truth
        self.registered = {a: () for a in truth["atoms"]}
        self.registered.update(truth["diatomics"])
        self.pair_owner = {frozenset(p): d for d, p in truth["diatomics"].items()}

    def setup_code(self) -> str:
        return (f"rhetor.load_registry(Path({self.t['registry']!r}))\n"
                f"rhetor.load_rules(Path({self.t['rules']!r}))\n")

    def setup(self, T):
        r, t = self.r, self.t
        self.registry = T.call("registry.load_registry", r.load_registry, Path(t["registry"]))
        self.rules = T.call("operators.load_rules", r.load_rules, Path(t["rules"]))
        return []

    def cycle(self):
        return self.t["jobs"]

    @staticmethod
    def kind(job) -> str:
        return "+".join(job["ops"])

    def run(self, T, job):
        derivations = T.call("operators.closure", self.r.closure, self.registry, self.rules,
                             job["ops"], job["depth"], seed=job["seed"],
                             size=(len(job["seed"]), f"{self.kind(job)}/{job['depth']}"))
        return len(derivations), derivations

    def check(self, job, derivations):
        """Structural invariants; none of them re-runs rhetor's closure."""
        errs = []
        unary = self.t["unary"]
        shape = {s: () for s in job["seed"]}   # id -> constituents, as the universe holds it
        universe = set(job["seed"])
        fresh_before: set[str] = set()          # ids first added at the previous depth
        depth, last_key, seen = 0, None, set()
        first_depth: dict[str, object] = {}
        for d in derivations:
            if d.depth != depth:
                if not depth < d.depth <= job["depth"]:
                    errs.append(("wrong", f"depth {d.depth} after {depth}"))
                if depth:
                    fresh_before = added
                    universe |= added
                depth, last_key, added = d.depth, None, set()
            key = d.result_ids
            if last_key is not None and key <= last_key:
                errs.append(("wrong", f"depth {depth}: {key} not in sorted order"))
            last_key = key
            if not set(d.inputs) <= universe:
                errs.append(("wrong", f"{d.operator}{d.inputs}: input outside the universe"))
            if depth > 1 and not set(d.inputs) & fresh_before:
                errs.append(("wrong", f"{d.operator}{d.inputs} at depth {depth} was "
                                      f"reachable one depth earlier"))
            self._replay(errs, d, shape)
            for res in d.results:
                if res.id in seen:
                    errs.append(("wrong", f"result {res.id} recorded twice"))
                seen.add(res.id)
                if depth == 1:
                    first_depth[res.id] = res
                if shape.setdefault(res.id, res.constituents) != res.constituents:
                    errs.append((UNITE_ID_CLASH, f"id {res.id} names two structures"))
                if res.id not in universe:
                    added.add(res.id)
        atoms = [s for s in job["seed"] if not self.registered.get(s)]
        if "unite" in job["ops"]:
            reached = {frozenset(d.results[0].constituents) for d in derivations
                       if d.depth == 1 and d.operator == "unite"}
            for a, b in combinations(atoms, 2):
                pair = frozenset((a, b))
                if pair not in reached:
                    errs.append(self._missing(pair, self.pair_owner.get(pair) or
                                              "-".join(sorted(pair)), first_depth, job))
        for op in set(job["ops"]) & set(unary):
            for a in atoms:
                partner = unary[op].get(a)
                if partner and (partner not in first_depth
                                or first_depth[partner].constituents):
                    errs.append(self._missing(f"{op}({a})", partner, first_depth, job))
        return errs

    def _replay(self, errs, d, shape):
        """The derivation's single operator, applied by hand to its inputs."""
        ins = d.inputs
        res = d.results
        registered = self.registered
        if d.operator == "unite":
            ok = (len(ins) == 2 and len(res) == 1 and not shape.get(ins[0])
                  and not shape.get(ins[1]) and ins[0] != ins[1])
            owner = self.pair_owner.get(frozenset(ins))
            want = registered[owner] if owner else tuple(sorted(ins))
            ok = ok and res[0].constituents == want and (not owner or res[0].id == owner)
        elif d.operator == "split":
            parts = shape.get(ins[0], ())
            ok = (len(ins) == 1 and len(parts) == 2 and 0 < len(res) <= 2
                  and all(r.id in parts and not r.constituents for r in res))
        else:
            partner = self.t["unary"][d.operator].get(ins[0])
            ok = (len(ins) == 1 and not shape.get(ins[0]) and len(res) == 1
                  and res[0].id == partner and not res[0].constituents)
        if not ok:
            errs.append(("wrong", f"{d.operator}{ins} -> {d.result_ids} does not replay"))
        rediscovery = all(registered.get(r.id, None) == r.constituents for r in res)
        if d.rediscovery != rediscovery:
            clash = any(r.id in registered and registered[r.id] != r.constituents for r in res)
            errs.append((UNITE_ID_CLASH if clash else "wrong",
                         f"{d.operator}{ins} -> {d.result_ids}: rediscovery={d.rediscovery}"))

    def _missing(self, what, want_id, first_depth, job):
        """A depth-1 result that is absent; a clash if its id went to another structure."""
        taken = want_id in first_depth or want_id in job["seed"]
        return (UNITE_ID_CLASH if taken else "wrong",
                f"{what} not reached at depth 1" + (f" (id {want_id} taken)" if taken else ""))


# --- cli --------------------------------------------------------------------

# Variant spellings the README documents for the built-in registry.
_README_ALIASES = {"narrative": "narration", "illustration": "evidence",
                   "cause-and-effect": "cause-effect", "process": "process-analysis"}


class Cli:
    """``python -m rhetor.cli`` subprocesses, one at a time."""

    name = "cli"
    item = "invocations"

    def __init__(self, rhetor, truth, root: Path, env: dict):
        self.t = truth
        self.root = root
        self.env = env
        fixtures = root / "tests" / "fixtures"
        edges = json.loads((fixtures / "pyramid_edges.json").read_text(encoding="utf-8"))
        self.c_edges = {c: sorted(set(rs)) for c, rs in edges["c"].items()}
        self.e_edges = {e: sorted(cs) for e, cs in edges["e"].items()}
        self.golden = (fixtures / "capacity_table_golden.csv").read_text(
            encoding="utf-8").splitlines()
        self.lesson = self._lesson(fixtures)

    def _lesson(self, fixtures: Path) -> dict:
        """The analyze oracle, read from the fixtures by a parser of our own."""
        stages: dict[str, set] = {}
        doc, k, stage = None, None, None
        for line in (fixtures / "lesson_nature_of_memory.rma").read_text(
                encoding="utf-8").splitlines():
            word, _, rest = line.strip().partition(" ")
            if word == "doc":
                doc = rest.strip()
            elif word == "declared_K":
                k = int(rest)
            elif word == "stage":
                stage = rest.strip()
            elif word == "seg":
                for name in line.split("|")[1].split(","):
                    name = "-".join(name.strip().lower().split())
                    stages.setdefault(stage, set()).add(_README_ALIASES.get(name, name))
        plan = json.loads((fixtures / "lesson_map.json").read_text(encoding="utf-8"))
        rows, e_ids = [], []
        for entry in plan["stages"]:
            seen = stages[entry["stage"]]
            expected = set().union(*(self.c_edges[c] for c in entry["c"]))
            rows.append({"stage": entry["stage"], "c_ids": entry["c"], "e_id": entry["e"],
                         "observed": sorted(seen), "expected": sorted(expected),
                         "overlap": sorted(seen & expected),
                         "mismatch": sorted(seen - expected)})
            if entry["e"] not in e_ids:
                e_ids.append(entry["e"])
        used = len(set().union(*stages.values()))
        return {"doc": doc, "coverage": {"K_u": used, "K": k, "C_m": used / k,
                                         "band": _band(used / k)},
                "trace": {"e_ids": e_ids, "stages": rows}}

    def setup_code(self) -> str:
        return ""

    def setup(self, T):
        return []

    def cycle(self):
        return self.t["jobs"]

    @staticmethod
    def kind(job) -> str:
        return job["argv"][0] if job["exit"] == 0 else f"exit{job['exit']}"

    def run(self, T, job):
        proc = T.call("cli.invoke", subprocess.run,
                      [sys.executable, "-m", "rhetor.cli", *job["argv"]],
                      cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)
        return 1, proc

    def check(self, job, proc):
        errs = []
        argv = job["argv"]
        if proc.returncode != job["exit"]:
            return [("wrong", f"{argv}: exit {proc.returncode}, want {job['exit']}: "
                              f"{proc.stderr.strip()[:200]}")]
        if job["exit"]:
            first = proc.stderr.split()[0] if proc.stderr.split() else ""
            _cmp(errs, f"{argv} stderr", first, job["stderr"])
            return errs
        fmt = argv[argv.index("--format") + 1]
        try:
            getattr(self, f"_check_{argv[0]}")(errs, argv, fmt, proc.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errs.append(("wrong", f"{argv}: unreadable output ({exc!r})"))
        return errs

    # Each _check_<subcommand> reads the output in its format and compares it
    # with values computed here from first principles or from the fixtures.

    def _check_tables(self, errs, argv, fmt, out):
        k = int(argv[argv.index("--max-k") + 1])
        want = [[w, w // 2, math.comb(w, w // 2), 2**w - 1] for w in range(1, k + 1)]
        if fmt == "json":
            got = [[r["K"], r["k_m"], r["K_max"], r["K_NRC"]] for r in json.loads(out)]
        else:
            rows = _rows(out, fmt)
            _cmp(errs, "tables header", rows[0], ["K", "k_m", "K_max", "K_NRC"])
            got = [[int(c) for c in r] for r in rows[1:]]
            if fmt == "csv" and k <= 30:
                _cmp(errs, "tables golden csv", out.splitlines(), self.golden[:k + 1])
        _cmp(errs, f"tables {k}", got, want)

    def _check_capacity(self, errs, argv, fmt, out):
        k = int(_flag(argv, "--k"))
        ln, c0, used = float(_flag(argv, "--ln")), float(_flag(argv, "--c0")), int(_flag(argv, "--used"))
        norm = ln / c0
        load = ("critical" if abs(norm - 1) <= 1e-9 else
                "subcritical" if norm < 1 else "supercritical")
        want = {"K": k, "k_m": k // 2, "K_max": math.comb(k, k // 2), "K_NRC": 2**k - 1,
                "K_RC": math.log2(2**k - 1), "MRB": 1.0, "L_n": ln, "C_0": c0,
                "R_scale": ln, "R_scale_norm": norm, "load_class": load,
                "K_u": used, "C_m": used / k, "band": _band(used / k)}
        if fmt == "json":
            doc = json.loads(out)
            got = {**{n: doc[n] for n in ("K", "k_m", "K_max", "K_NRC", "K_RC", "MRB")},
                   **doc["growth"], **doc["coverage"]}
        else:
            got = _record(out, fmt)
        _close(errs, f"capacity {k}", got, want, fmt)

    def _check_entropy(self, errs, argv, fmt, out):
        k = int(_flag(argv, "--k"))
        nrc = 2**k - 1
        h = -sum(q * math.log2(q) for q in (math.comb(k, i) / nrc for i in range(1, k + 1))
                 if q > 0)
        asym = 0.5 * math.log2(math.pi * math.e * k / 2)
        want = {"K": k, "H_flat": math.log2(k), "H_subset": h, "H_asymptotic": asym,
                "gap": h - asym}
        got = json.loads(out) if fmt == "json" else _record(out, fmt)
        _close(errs, f"entropy {k}", got, want, fmt)

    def _check_derive(self, errs, argv, fmt, out):
        if fmt == "json":
            rows = [(r["depth"], r["operator"], tuple(r["inputs"]), tuple(r["results"]),
                     r["rediscovery"]) for r in json.loads(out)]
        else:
            table = _rows(out, fmt)
            _cmp(errs, "derive header", table[0],
                 ["depth", "operator", "inputs", "results", "rediscovery"])
            rows = [(int(d), op, tuple(i.split("+")), tuple(r.split("+")), red == "true")
                    for d, op, i, r, red in table[1:]]
        pairs = {frozenset(r[2]) for r in rows}
        atoms = set().union(*pairs) if pairs else set()
        _cmp(errs, "derive shape", (len(rows), len(pairs), len(atoms)),
             (math.comb(7, 2), math.comb(7, 2), 7))
        _cmp(errs, "derive rows", {(r[0], r[1], len(r[2]), len(r[3]), r[4]) for r in rows},
             {(1, "unite", 2, 1, False)})
        _cmp(errs, "derive unique results", len({r[3] for r in rows}), len(rows))

    def _check_map(self, errs, argv, fmt, out):
        if "--file" in argv:
            c_edges, e_edges = self.t["c_children"], self.t["e_children"]
        else:
            c_edges, e_edges = self.c_edges, self.e_edges
        if "--stats" in argv:
            want = [["C", c, len(rs)] for c, rs in sorted(c_edges.items())]
            want += [["E", e, len(cs)] for e, cs in sorted(e_edges.items())]
            if fmt == "json":
                doc = json.loads(out)
                got = [["C", c, d] for c, d in sorted(doc["C"].items())]
                got += [["E", e, d] for e, d in sorted(doc["E"].items())]
            else:
                got = [[a, b, int(c)] for a, b, c in _rows(out, fmt)[1:]]
        elif "--compose" in argv:
            e = _flag(argv, "--compose")
            want = sorted(set().union(*(c_edges[c] for c in e_edges[e])))
            got = json.loads(out) if fmt == "json" else [r[0] for r in _rows(out, fmt)[1:]]
        elif "--realizers" in argv:
            c = _flag(argv, "--realizers").partition(":")[2]
            want = list(c_edges[c])
            got = ([r["id"] for r in json.loads(out)] if fmt == "json"
                   else [r[0] for r in _rows(out, fmt)[1:]])
        else:
            want = sorted(["C", c, r] for c, rs in c_edges.items() for r in rs)
            want += sorted(["E", e, c] for e, cs in e_edges.items() for c in cs)
            if fmt == "json":
                doc = json.loads(out)
                got = sorted(["C", n["id"], r] for n in doc["c_nodes"] for r in n["modes"])
                got += sorted(["E", n["id"], c] for n in doc["e_nodes"] for c in n["cognitive"])
            else:
                got = _rows(out, fmt)[1:]
        _cmp(errs, f"map {[a for a in argv if not a.startswith('/')]}", got, want)

    def _check_analyze(self, errs, argv, fmt, out):
        want = self.lesson
        if fmt == "json":
            doc = json.loads(out)
            _close(errs, "analyze coverage", doc["coverage"], want["coverage"], fmt)
            _cmp(errs, "analyze doc", doc["doc"], want["doc"])
            _cmp(errs, "analyze trace", doc["trace"], want["trace"])
            return
        head, _, tail = out.partition("\n\n") if fmt == "table" else (None, None, None)
        if fmt == "csv":
            lines = out.splitlines()
            head, tail = "\n".join(lines[:2]), "\n".join(lines[2:])
        record = _record(head, fmt)
        _cmp(errs, "analyze doc", record.pop("doc"), want["doc"])
        _close(errs, "analyze coverage", record, want["coverage"], fmt)
        rows = _rows(tail, fmt)
        cols = ["stage", "c_ids", "e_id", "observed", "overlap", "mismatch"]
        _cmp(errs, "analyze trace header", rows[0], cols)
        got = [r + [""] * (len(cols) - len(r)) for r in rows[1:]]
        wanted = [[s["stage"], "+".join(s["c_ids"]), s["e_id"], "+".join(s["observed"]),
                   "+".join(s["overlap"]), "+".join(s["mismatch"])]
                  for s in want["trace"]["stages"]]
        _cmp(errs, "analyze trace", got, wanted)

    def _check_cone(self, errs, argv, fmt, out):
        c0 = float(_flag(argv, "--c0"))
        want, previous = [], 0
        for row in self.t["schedule"]:
            rate = (row["K"] - previous) / row["duration"]
            want.append({"stage": row["name"], "K": row["K"], "K_NRC": 2**row["K"] - 1,
                         "K_RC": math.log2(2**row["K"] - 1), "R_scale": rate,
                         "R_scale_norm": rate / c0})
            previous = row["K"]
        if fmt == "json":
            got = json.loads(out)
        else:
            rows = _rows(out, fmt)
            got = [dict(zip(rows[0], r)) for r in rows[1:]]
        _cmp(errs, "cone rows", len(got), len(want))
        for g, w in zip(got, want):
            _close(errs, f"cone {w['stage']}", g, w, fmt)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _rows(text: str, fmt: str) -> list[list[str]]:
    """Header and data rows of a csv block or an aligned text table."""
    if fmt == "csv":
        return [row for row in csv.reader(text.splitlines())]
    lines = [line for line in text.splitlines() if line.strip()]
    return [re.split(r"\s{2,}", line.strip()) for line in lines[:1] + lines[2:]]


def _record(text: str, fmt: str) -> dict:
    """A single record: a two-line csv block or ``name  value`` lines."""
    if fmt == "csv":
        header, values = list(csv.reader(text.splitlines()))[:2]
        return dict(zip(header, values))
    return dict(line.split(None, 1) for line in text.splitlines() if line.strip())


def _close(errs, what, got: dict, want: dict, fmt: str):
    """Field-wise comparison; text formats print reals with four decimals."""
    tol = 1e-9 if fmt == "json" else 6e-5
    if set(got) != set(want):
        errs.append(("wrong", f"{what}: fields {sorted(got)} != {sorted(want)}"))
        return
    for key, value in want.items():
        g = got[key]
        if isinstance(value, str):
            ok = g == value
        elif isinstance(value, int) and not isinstance(value, bool):
            ok = int(g) == value
        else:
            ok = abs(float(g) - value) <= tol * max(1.0, abs(value))
        if not ok:
            errs.append(("wrong", f"{what} {key}: got {g!r}, want {value!r}"))


WORKLOADS = {"corpus": Corpus, "mapping": Mapping, "closure": Closure, "cli": Cli}
