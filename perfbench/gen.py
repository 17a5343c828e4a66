"""Seeded input generator for the rhetor benchmark.

Every input is written as a file under a work directory, and the program
under test only ever sees those files.  The ground truth returned beside
them is derived from the generator's own choices (which canonical id each
spelling stands for, which edges each node has) and never from rhetor, so
the oracles stay independent of the code they check.

Sizes are stratified: item ``i`` of ``m`` sits at the centre of the
``i``-th of ``m`` equal slices of the (log-)range.  Every seed therefore
covers the same spread of sizes, and the seed changes what fills them
(names, spellings, which modes, which defects, job order), which keeps
run-to-run medians steady.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

ONSETS = "bdfgklmnprstvz"
VOWELS = "aeiou"
DASHES = (" ", "–", "—", "/")

# Built-in atoms of the canonical table, as the README lists them; the
# corpus mixes them in by their canonical ids.
BUILTIN_ATOMS = ("analogy", "definition", "description", "evaluation",
                 "exposition", "narration", "process-analysis")


def stratified(m: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """``m`` values covering [lo, hi], one at the centre of each slice, in order."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    out = [lo + (hi - lo) * (i + 0.5) / m for i in range(m)]
    return [math.exp(v) for v in out] if log else out


def pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` fresh consonant-vowel words, none in ``taken`` (which is extended)."""
    out = []
    while len(out) < n:
        word = "".join(rng.choice(ONSETS) + rng.choice(VOWELS)
                       for _ in range(rng.choice((2, 3))))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def title(ident: str) -> str:
    return " ".join(part.capitalize() for part in ident.split("-"))


def loose(rng: random.Random, name: str, variant_share: float) -> str:
    """A spelling of ``name`` that canonicalizes back to it."""
    if rng.random() >= variant_share:
        return name
    kind = rng.randrange(4)
    if kind == 0:
        return name.upper()
    if kind == 1:
        return title(name).replace(" ", "-")
    if kind == 2:
        return name.replace("-", rng.choice(DASHES))
    return title(name)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _atom_ids(rng: random.Random, taken: set[str], one_word: int, two_word: int) -> list[str]:
    """One-word ids plus two-word hyphenated ids built from the same words."""
    words = pseudo_words(rng, one_word, taken)
    pairs: set[str] = set()
    while len(pairs) < two_word:
        a, b = rng.sample(words, 2)
        pairs.add(f"{a}-{b}")
    return words + sorted(pairs)


def _registry_doc(ids: list[str], aliases: dict[str, str], diatomics=()) -> dict:
    modes = [{"id": i, "display_name": title(i), "constituents": [],
              "description": f"Generated atom {i}."} for i in ids]
    modes += [{"id": d, "display_name": title(d), "constituents": list(parts),
               "description": f"Generated pairing {d}."} for d, parts in diatomics]
    return {"version": "bench-1", "modes": modes, "aliases": aliases}


# --- corpus -----------------------------------------------------------------

CORPUS_DOCS = 100         # documents per cycle
CORPUS_MALFORMED = 16     # every 16th document is malformed (6.25 %)
CORPUS_SEGMENTS = (20, 2000)
CORPUS_STAGES = (1, 300)
MALFORMED_KINDS = ("unknown", "index", "empty", "keyword", "declared", "nostage")


def gen_corpus(seed: int, out: Path) -> dict:
    rng = random.Random(f"corpus-{seed}")
    taken: set[str] = set()
    atoms = _atom_ids(rng, taken, 140, 60)
    alias_words = pseudo_words(rng, 50, taken)
    aliases = dict(zip(alias_words, rng.sample(atoms, len(alias_words))))
    alias_of: dict[str, list[str]] = {}
    for alias, target in aliases.items():
        alias_of.setdefault(target, []).append(alias)
    _write_json(out / "registry.json", _registry_doc(atoms, aliases))
    vocabulary = atoms + list(BUILTIN_ATOMS)

    c_children: dict[str, frozenset[str]] = {}
    c_rows = []
    for word in pseudo_words(rng, 24, taken):
        cid = f"fn-{word}"
        targets = rng.sample(atoms, rng.randint(3, 8))
        c_children[cid] = frozenset(targets)
        c_rows.append({"id": cid, "display_name": title(cid), "modes": targets})
    c_ids = sorted(c_children)
    e_rows = [{"id": f"goal-{w}", "display_name": title(w),
               "cognitive": rng.sample(c_ids, rng.randint(3, 6))}
              for w in pseudo_words(rng, 6, taken)]
    _write_json(out / "mapping.json", {"profile": "bench-corpus",
                                       "c_nodes": c_rows, "e_nodes": e_rows})
    e_ids = [row["id"] for row in e_rows]

    stage_truth: dict[str, tuple[tuple[str, ...], str]] = {}
    stage_rows = []
    for i, word in enumerate(pseudo_words(rng, CORPUS_STAGES[1] + 20, taken)):
        label = f"Part {i + 1} {title(word)}"
        cs = tuple(rng.sample(c_ids, rng.randint(1, 3)))
        e = rng.choice(e_ids)
        stage_truth[label] = (cs, e)
        stage_rows.append({"stage": label, "c": [loose(rng, c, 0.3) for c in cs],
                           "e": loose(rng, e, 0.3)})
    _write_json(out / "stages.json", {"stages": stage_rows})
    labels = list(stage_truth)

    seg_counts = stratified(CORPUS_DOCS, *CORPUS_SEGMENTS, log=True)
    stage_counts = stratified(CORPUS_DOCS, *CORPUS_STAGES, log=True)
    variant_shares = stratified(CORPUS_DOCS, 0.0, 0.6)
    docs_dir = out / "docs"
    docs_dir.mkdir()
    docs = []
    for i in range(CORPUS_DOCS):
        n = round(seg_counts[i])
        # Fixed rank pairing of sizes: the (segments, stages) pairs, and with
        # them the trace cost, are spread the same way for every seed.
        s = max(1, min(n, round(stage_counts[(i * 7) % CORPUS_DOCS])))
        variant = variant_shares[(i * 11) % CORPUS_DOCS]
        malformed = MALFORMED_KINDS[rng.randrange(len(MALFORMED_KINDS))] \
            if i % CORPUS_MALFORMED == 5 else None
        doc = _corpus_doc(rng, i, n, rng.sample(labels, s), stage_truth, c_children,
                          vocabulary, alias_of, variant, malformed, taken)
        doc["path"] = str(docs_dir / f"doc{i:03d}.rma")
        Path(doc["path"]).write_text("\n".join(doc.pop("lines")) + "\n", encoding="utf-8")
        docs.append(doc)
    rng.shuffle(docs)
    return {"docs": docs, "registry": str(out / "registry.json"),
            "mapping": str(out / "mapping.json"), "stages": str(out / "stages.json"),
            "stage_truth": stage_truth, "c_children": c_children}


def _corpus_doc(rng, i, n, stages, stage_truth, c_children, vocabulary, alias_of,
                variant, malformed, taken) -> dict:
    cuts = sorted(rng.sample(range(1, n), len(stages) - 1)) if len(stages) > 1 else []
    bounds = [0, *cuts, n]
    doc_id = f"corpus-{i:03d}"
    lines = [f"# generated benchmark document {i}", f"doc {doc_id}", "declared_K 0"]
    segments = []   # (index, stage, frozenset(ids))
    seg_lines = []  # 0-based positions of seg lines in ``lines``
    index = 0
    for block, stage in enumerate(stages):
        lines.append(f"stage {stage}")
        expected = sorted(set().union(*(c_children[c] for c in stage_truth[stage][0])))
        for _ in range(bounds[block + 1] - bounds[block]):
            ids = set()
            names = []
            for _ in range(rng.randint(1, 4)):
                mode = rng.choice(expected) if rng.random() < 0.7 else rng.choice(vocabulary)
                ids.add(mode)
                spelled = mode
                if mode in alias_of and rng.random() < variant / 2:
                    spelled = rng.choice(alias_of[mode])
                names.append(loose(rng, spelled, variant))
            jump = rng.randint(2, 4) if rng.random() < 0.05 else 1
            index += jump
            head = "seg" if jump == 1 else f"seg {index}"
            text = " ".join(rng.choices(("the", "memory", "shows", "a", "step", "why"),
                                        k=rng.randint(0, 6)))
            seg_lines.append(len(lines))
            lines.append(f"{head} | {', '.join(names)}" + (f" | {text}" if text else ""))
            segments.append((index, stage, frozenset(ids)))
    union = frozenset().union(*(m for _, _, m in segments))
    declared = len(union) + rng.randint(0, 40)
    lines[2] = f"declared_K {declared}"
    truth = {"id": doc_id, "declared_K": declared, "segments": segments,
             "stages": stages, "union": union, "malformed": malformed, "lines": lines}
    if malformed:
        truth.update(_break(rng, lines, seg_lines, malformed, taken))
    return truth


def _break(rng, lines, seg_lines, kind, taken) -> dict:
    """Apply one defect; return the error class and 1-based line it must raise at."""
    pos = seg_lines[len(seg_lines) // 2] if len(seg_lines) > 1 else seg_lines[0]
    if kind == "unknown":
        head, _, rest = lines[pos].partition("|")
        names, sep, text = rest.partition("|")
        bogus = pseudo_words(rng, 1, taken)[0] + "-qx"
        lines[pos] = f"{head}| {names.strip()}, {bogus} {sep}{text}"
        return {"error": "UnknownMode", "line": pos + 1}
    if kind == "index" and len(seg_lines) > 1:
        lines[pos] = "seg 1 | " + lines[pos].partition("|")[2].strip()
        return {"error": "BadIndex", "line": pos + 1}
    if kind == "empty":
        lines[pos] = "seg | , | nothing tagged here"
        return {"error": "EmptySegment", "line": pos + 1}
    if kind == "declared":
        lines[2] = "declared_K many"
        return {"error": "ParseError", "line": 3}
    if kind == "nostage":
        first_stage = seg_lines[0] - 1
        del lines[first_stage]
        return {"error": "ParseError", "line": first_stage + 1}
    lines[pos] = "segment " + lines[pos].partition("|")[2]
    return {"error": "ParseError", "line": pos + 1}


# --- mapping ----------------------------------------------------------------

MAPPING_C = 2000
MAPPING_E = 40
MAPPING_UNKNOWN_SHARE = 0.2


def gen_mapping(seed: int, out: Path, n_c: int = MAPPING_C, n_e: int = MAPPING_E) -> dict:
    rng = random.Random(f"mapping-{seed}-{n_c}")
    taken: set[str] = set()
    atoms = _atom_ids(rng, taken, 80, 40)
    alias_words = pseudo_words(rng, 30, taken)
    aliases = dict(zip(alias_words, rng.sample(atoms, len(alias_words))))
    alias_of = {target: alias for alias, target in aliases.items()}
    _write_json(out / "registry.json", _registry_doc(atoms, aliases))
    unknown = _atom_ids(rng, taken, 100, 50)  # never registered: minted on load

    c_children: dict[str, tuple[str, ...]] = {}
    c_rows = []
    node_words = pseudo_words(rng, 60, taken)
    for i in range(n_c):
        cid = f"{rng.choice(node_words)}-{rng.choice(node_words)}-{i}"
        targets, names = set(), []
        for _ in range(rng.randint(2, 8)):
            if rng.random() < MAPPING_UNKNOWN_SHARE:
                mode = spelled = rng.choice(unknown)
            else:
                mode = spelled = rng.choice(atoms)
                if mode in alias_of and rng.random() < 0.2:
                    spelled = alias_of[mode]
            targets.add(mode)
            names.append(loose(rng, spelled, 0.3))
        c_children[cid] = tuple(sorted(targets))
        row = {"id": loose(rng, cid, 0.3), "display_name": title(cid), "modes": names}
        if i % 2:
            row["description"] = f"Cognitive function number {i}."
        c_rows.append(row)
    c_ids = list(c_children)
    e_members: dict[str, set[str]] = {f"purpose-{w}": set()
                                      for w in pseudo_words(rng, n_e, taken)}
    e_ids = list(e_members)
    for k, cid in enumerate(c_ids):
        e_members[e_ids[k % n_e]].add(cid)
        if rng.random() < 0.5:
            e_members[rng.choice(e_ids)].add(cid)
    e_rows = [{"id": e, "display_name": title(e), "description": "",
               "cognitive": [loose(rng, c, 0.3) for c in sorted(members)]}
              for e, members in e_members.items()]
    _write_json(out / "mapping.json", {"profile": "bench-mapping",
                                       "c_nodes": c_rows, "e_nodes": e_rows})
    e_children = {e: tuple(sorted(m)) for e, m in e_members.items()}
    export = {
        "profile": "bench-mapping",
        "c_nodes": sorted(({"id": c, "display_name": row["display_name"],
                            "description": row.get("description", ""),
                            "modes": list(c_children[c])}
                           for c, row in zip(c_ids, c_rows)), key=lambda r: r["id"]),
        "e_nodes": sorted(({"id": e, "display_name": title(e), "description": "",
                            "cognitive": list(e_children[e])} for e in e_ids),
                          key=lambda r: r["id"]),
    }
    minted = sorted({m for ms in c_children.values() for m in ms} & set(unknown))
    occurrences = [name for row in c_rows for name in row["modes"]]
    unknown_set = set(unknown)
    misses = sum(1 for row in c_rows for name in row["modes"]
                 if _plain(name) in unknown_set)
    jobs = _mapping_jobs(rng, c_ids, e_ids, e_children)
    return {"registry": str(out / "registry.json"), "mapping": str(out / "mapping.json"),
            "c_children": c_children, "e_children": e_children, "export": export,
            "minted": minted, "r_names": occurrences, "r_misses": misses, "jobs": jobs,
            "loose": {c: loose(rng, c, 0.8) for c in c_ids + e_ids}}


def _plain(spelled: str) -> str:
    """Undo :func:`loose` for generator spellings (lower-case, dashes back)."""
    out = spelled.lower()
    for dash in DASHES:
        out = out.replace(dash, "-")
    return out


MAPPING_CYCLE = {"lookup": 60, "drill": MAPPING_E, "stats": 10, "export": 1}
LOOKUP_BATCH = 20


def _mapping_jobs(rng, c_ids, e_ids, e_children) -> list[tuple]:
    jobs = [("lookup", tuple(rng.sample(c_ids, LOOKUP_BATCH)))
            for _ in range(MAPPING_CYCLE["lookup"])]
    jobs += [("drill", (e, tuple(rng.sample(e_children[e], min(3, len(e_children[e]))))))
             for e in e_ids]
    jobs += [("stats", ())] * MAPPING_CYCLE["stats"]
    jobs += [("export", ())] * MAPPING_CYCLE["export"]
    rng.shuffle(jobs)
    return jobs


# --- closure ----------------------------------------------------------------

OPERATOR_SETS = (
    ("split", "unite", "forward_backward", "expand", "reduce", "orthogonal"),
    ("unite",),
    ("unite", "forward_backward"),
    ("split", "unite", "expand", "reduce"),
    ("forward_backward", "expand", "reduce", "orthogonal"),
    ("split", "forward_backward", "orthogonal"),
)
CLOSURE_WIDTHS = (20, 80)
CLOSURE_STRATA = 17


def gen_closure(seed: int, out: Path) -> dict:
    rng = random.Random(f"closure-{seed}")
    taken: set[str] = set()
    atoms = _atom_ids(rng, taken, 180, 120)
    one_word = atoms[:180]
    diatomics = []
    atom_set = set(atoms)
    while len(diatomics) < 20:
        a, b = rng.sample(one_word, 2)
        if f"{a}-{b}" not in atom_set and f"{b}-{a}" not in atom_set:
            atom_set.add(f"{a}-{b}")
            diatomics.append((f"{a}-{b}", (a, b)))
    _write_json(out / "registry.json", _registry_doc(atoms, {}, diatomics))

    fresh = pseudo_words(rng, 120, taken)  # partners the registry does not know
    partners = {"reversal": {}, "scale": {}, "orthogonal": {}}
    rules = {"reversal": [], "scale": [], "orthogonal": []}
    for relation, share in (("reversal", 0.25), ("scale", 0.10), ("orthogonal", 0.15)):
        pool = rng.sample(atoms, round(len(atoms) * share))
        while len(pool) >= 2:
            a = pool.pop()
            b = pool.pop() if rng.random() < 0.6 else fresh.pop()
            rules[relation].append([loose(rng, a, 0.2), loose(rng, b, 0.2)])
            partners[relation][a] = b
            if relation != "scale":
                partners[relation][b] = a
    _write_json(out / "rules.json", rules)
    unary = {
        "forward_backward": partners["reversal"],
        "orthogonal": partners["orthogonal"],
        "reduce": partners["scale"],
        "expand": {b: a for a, b in partners["scale"].items()},
    }
    widths = stratified(CLOSURE_STRATA, *CLOSURE_WIDTHS)
    jobs = []
    for w, width in enumerate(widths):
        for o, ops in enumerate(OPERATOR_SETS):
            depth = (w + o) % 3 + 1
            jobs.append({"ops": ops, "depth": depth,
                         "seed": tuple(rng.sample(atoms, round(width)))})
    rng.shuffle(jobs)
    return {"registry": str(out / "registry.json"), "rules": str(out / "rules.json"),
            "atoms": atoms, "diatomics": dict(diatomics), "unary": unary, "jobs": jobs}


# --- cli --------------------------------------------------------------------

FORMATS = ("table", "csv", "json")


CLI_MAP_C = 200   # C-nodes of the mapping file the heavier cli calls load


def gen_cli(seed: int, out: Path) -> dict:
    """One cycle of argument lists (100 calls).

    84 light calls: the 7 subcommands in the 3 formats, four times over, on
    built-in data, the fixtures and a generated schedule.  12 heavier
    ``map --file`` calls on a generated 200-C-node mapping, which sit
    above p90, so that p50 and p90 each fall inside one group.  And 4
    calls that must fail with a usage or domain error or a missing file.
    """
    rng = random.Random(f"cli-{seed}")
    rows, k = [], 0
    for i in range(rng.randint(4, 7)):
        k += rng.randint(1, 6)
        rows.append({"name": f"Stage {i + 1}", "K": k, "duration": rng.choice((1, 2, 3, 4.5))})
    (out / "schedule.json").write_text(json.dumps({"stages": rows}) + "\n", encoding="utf-8")
    mapping = gen_mapping(seed, out, CLI_MAP_C, 10)
    e_nodes = ("knowledge-formation", "scientific-discovery", "communication",
               "teaching-learning", "problem-solving", "innovation-design",
               "evaluation-decision-making", "policy-action-implementation")
    c_nodes = ("observe", "identify", "compare", "classify", "abstract", "hypothesize",
               "model", "infer", "test-validate", "explain", "evaluate", "predict",
               "integrate-synthesize", "reflect")
    maps = (["--stats"], ["--compose", rng.choice(e_nodes)],
            ["--realizers", f"C:{rng.choice(c_nodes)}"], [])
    file_maps = (["--stats"], ["--compose", rng.choice(sorted(mapping["e_children"]))],
                 ["--realizers", f"C:{rng.choice(sorted(mapping['c_children']))}"], [])
    file_args = ["--file", mapping["mapping"], "--registry", mapping["registry"]]
    jobs = []
    for variant in range(4):
        for f, fmt in enumerate(FORMATS):
            jobs.append({"argv": ["map", *file_args, *file_maps[(variant + f) % 4],
                                  "--format", fmt], "exit": 0})
            k_cap = rng.randint(1, 120)
            argvs = (
                ["tables", "--max-k", str(rng.randint(1, 120))],
                ["capacity", "--k", str(k_cap), "--ln", f"{rng.uniform(0, 3):.3f}",
                 "--c0", f"{rng.uniform(0.5, 2):.3f}", "--used", str(rng.randint(0, k_cap))],
                ["entropy", "--k", str(rng.randint(1, 1000))],
                ["derive", "--ops", "unite", "--atoms-only-base",
                 "--depth", str(rng.randint(1, 2))],
                ["map", *maps[(variant + f) % 4]],
                ["analyze", "tests/fixtures/lesson_nature_of_memory.rma",
                 "--map", "tests/fixtures/lesson_map.json"],
                ["cone", "--schedule", str(out / "schedule.json"),
                 "--c0", f"{rng.uniform(0.5, 4):.3f}"],
            )
            jobs += [{"argv": [*argv, "--format", fmt], "exit": 0} for argv in argvs]
    jobs.append({"argv": rng.choice((["tables", "--max-k", str(rng.randint(121, 500))],
                                     ["entropy", "--k", str(rng.randint(1, 9)), "--layers", "2,3"],
                                     ["capacity", "--k", "0"])),
                 "exit": 2, "stderr": "usage:"})
    jobs.append({"argv": ["capacity", "--k", "10", "--used", str(rng.randint(11, 99))],
                 "exit": 1, "stderr": "BadCount:"})
    jobs.append({"argv": rng.choice((["map", "--compose", "no-such-purpose"],
                                     ["map", *file_args, "--realizers", "C:no-such-node"])),
                 "exit": 1, "stderr": "UnknownNode:"})
    jobs.append({"argv": ["analyze", str(out / "missing.rma")], "exit": 2, "stderr": "error:"})
    rng.shuffle(jobs)
    return {"jobs": jobs, "schedule": rows, "c_children": mapping["c_children"],
            "e_children": mapping["e_children"]}


GENERATORS = {"corpus": gen_corpus, "mapping": gen_mapping,
              "closure": gen_closure, "cli": gen_cli}
