#!/usr/bin/env python3
"""Hot-path purity checker: proves ODYSSEY_HOT functions stay pure.

Every function annotated ODYSSEY_HOT (src/common/hotpath.h) promises the
scoring-loop purity contract: no heap allocation, no lock acquisition, no
blocking wait, no syscall/I/O, no throwing construct — transitively,
through everything it calls, including calls dispatched through the SIMD
kernel tables (src/distance/simd.h). This tool builds a static call graph
of src/ and reports every path from an ODYSSEY_HOT root to a forbidden
sink, so a `push_back` sneaking three calls below a scan loop fails CI
instead of showing up as an allocation spike in a flame graph.

Front end: a deliberately textual one (comment stripping + brace walking
over the sources named by compile_commands.json), in the same spirit as
tools/lint_odyssey.py. The container that runs the tier-1 gate has no
clang binary, and `-ast-dump=json` emits hundreds of MB per TU — far past
the <60s budget this job has. The textual graph over-approximates name
resolution (an unqualified callee resolves to every same-named definition),
which errs on the side of reporting; the committed allowlist absorbs the
few deliberate exceptions.

Sink categories (the vocabulary of ODYSSEY_HOT_ALLOWS and the allowlist):

  alloc     operator new / malloc / container growth (push_back, resize,
            reserve, assign, ...) on a receiver whose name chain does not
            contain "scratch" — growth of self-documenting scratch buffers
            is sanctioned because they are grow-only and reach a steady
            state (asserted by the counting-allocator tests).
  lock      Mutex::Lock, MutexLock guards, std lock wrappers.
  wait      CondVar waits, sleeps, joins.
  io        getenv, stdio, iostreams, file syscalls.
  throw     `throw`, .at(), stoi-family.
  indirect  a call through a std::function-typed field or a function
            pointer the checker cannot resolve (kernel-table slots ARE
            resolved, through the tables' positional initializers).

Escapes, in decreasing order of preference:
  1. name the receiver chain "scratch" (alloc only — and only do this for
     genuinely grow-only reusable buffers);
  2. ODYSSEY_HOT_ALLOWS("cat1,cat2: reason") on the function, which
     excuses those categories in that function's *own body* only;
  3. an entry in tools/hotpath_allowlist.txt (reviewed in the diff).

Usage:
  tools/check_hot_paths.py                   # check the repo, exit 1 on findings
  tools/check_hot_paths.py --self-test       # run against tools/hotpath_fixtures/
  tools/check_hot_paths.py --cache-dir DIR   # persist per-file parses (sha256 keyed)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tools" / "hotpath_fixtures"
ALLOWLIST = REPO / "tools" / "hotpath_allowlist.txt"

# Bump to invalidate cached parses when the parser or sink tables change.
PARSER_VERSION = "2"

CATEGORIES = ("alloc", "lock", "wait", "io", "throw", "indirect")

# ----------------------------------------------------------------------------
# Sink tables
# ----------------------------------------------------------------------------

# Free functions / any call position.
SINK_NAMES = {
    "malloc": "alloc", "calloc": "alloc", "realloc": "alloc",
    "strdup": "alloc", "make_unique": "alloc", "make_shared": "alloc",
    "to_string": "alloc",
    "MutexLock": "lock", "lock_guard": "lock", "unique_lock": "lock",
    "scoped_lock": "lock", "shared_lock": "lock",
    "sleep_for": "wait", "sleep_until": "wait",
    "getenv": "io", "setenv": "io", "system": "io",
    "printf": "io", "fprintf": "io", "vfprintf": "io", "fputs": "io",
    "puts": "io", "fopen": "io", "fclose": "io", "fread": "io",
    "fwrite": "io", "fflush": "io", "fseek": "io",
    "stoi": "throw", "stol": "throw", "stoul": "throw", "stoull": "throw",
    "stof": "throw", "stod": "throw",
}

# Method-position sinks (receiver chain present or the bare method name).
SINK_METHODS = {
    "Lock": "lock", "lock": "lock",
    "Wait": "wait", "WaitFor": "wait", "WaitUntil": "wait",
    "WaitIdle": "wait", "wait": "wait", "wait_for": "wait",
    "wait_until": "wait", "Join": "wait", "join": "wait",
    "at": "throw",
}

# Container growth: alloc sinks unless the receiver chain carries the
# "scratch" token (grow-only reusable buffers reach a steady state).
GROWTH_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "assign",
    "insert", "emplace", "append", "push", "push_front", "emplace_front",
}

# Callee names too generic to resolve by name: dozens of classes define
# them as one-line accessors, so resolving `x.size()` to *every* size()
# in the repo (including e.g. Mailbox::size, which locks) would drown the
# report in receiver-type confusions. Mirrors lint_odyssey.py's
# AMBIGUOUS_STATUS_NAMES escape. Anything substantive must not hide
# behind one of these names.
AMBIGUOUS_CALLEES = {
    "size", "empty", "data", "begin", "end", "front", "back",
    "get", "value", "length", "capacity", "load", "store",
}

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "catch", "new", "delete", "throw", "defined", "decltype", "noexcept",
    "static_assert", "alignas", "case", "else", "do", "operator",
}

NEW_KEYWORD = re.compile(r"\bnew\b")
THROW_KEYWORD = re.compile(r"\bthrow\b")
STREAM_IO = re.compile(r"\bstd::(?:cout|cerr|clog)\b")
# A container constructed with arguments allocates right there.
CONTAINER_CTOR = re.compile(
    r"\b(?:std::)?(?:vector|deque|string|basic_string|map|set|"
    r"unordered_map|unordered_set|multimap|multiset)\s*<[^;(){}=&]*>"
    r"\s+\w+\s*\("
)
CALL = re.compile(
    r"((?:[A-Za-z_]\w*(?:\.|->|::)\s*)*)([A-Za-z_]\w*)\s*\("
)
FUNCTION_FIELD = re.compile(r"\bstd::function\s*<[^;]*>\s*(\w+)\s*[;=]")
ALLOWS_CALL = re.compile(r"\bODYSSEY_HOT_ALLOWS\s*\(")
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
FN_TAIL = re.compile(r"(?:\)|\bconst\b|\bnoexcept\b|\boverride\b|\bfinal\b)\s*$")
FN_NAME = re.compile(r"([A-Za-z_~][\w]*(?:::~?[A-Za-z_]\w*)*)\s*\(")
CLASS_HEAD = re.compile(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)")
NAMESPACE_HEAD = re.compile(r"\bnamespace\b\s*([A-Za-z_]\w*)?\s*$")

# ----------------------------------------------------------------------------
# Text preparation
# ----------------------------------------------------------------------------


def strip_comments(text, keep_strings=False):
    """Removes // and /* */ comments (and, unless keep_strings, string and
    char literal contents), preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            end = min(j + 1, n)
            out.append(text[i:end] if keep_strings else c + c)
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_preprocessor(text):
    """Blanks preprocessor lines (and their continuations), keeping \\n."""
    out = []
    in_directive = False
    for line in text.split("\n"):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            out.append(line)
    return "\n".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ----------------------------------------------------------------------------
# Per-file parse
# ----------------------------------------------------------------------------


def parse_allowances(text_with_strings):
    """Maps line -> (categories, reason) for each ODYSSEY_HOT_ALLOWS("..")
    in the file. Literal concatenation across lines is honored."""
    allowances = {}
    for m in ALLOWS_CALL.finditer(text_with_strings):
        i = m.end()
        depth = 1
        while i < len(text_with_strings) and depth:
            if text_with_strings[i] == "(":
                depth += 1
            elif text_with_strings[i] == ")":
                depth -= 1
            i += 1
        arg = text_with_strings[m.end():i - 1]
        reason = "".join(STRING_LITERAL.findall(arg))
        cats_part, _, why = reason.partition(":")
        cats = tuple(c.strip() for c in cats_part.split(",") if c.strip())
        bad = [c for c in cats if c not in CATEGORIES]
        line = line_of(text_with_strings, m.start())
        if not cats or bad or not why.strip():
            allowances[line] = ("__malformed__",), reason
        else:
            allowances[line] = cats, why.strip()
    return allowances


def classify_head(head):
    h = head.strip()
    if not h:
        return "blk", None
    if h[-1] in "=,([":
        return "blk", None  # aggregate init / lambda intro / initializer
    m = NAMESPACE_HEAD.search(h)
    if m:
        return "ns", m.group(1) or "<anon>"
    if re.search(r"\benum\b", h):
        return "blk", None
    m = CLASS_HEAD.search(h)
    if m and "(" not in h[m.end():]:
        return "cls", m.group(1)
    if "(" not in h or not FN_TAIL.search(h):
        return "blk", None
    m = FN_NAME.search(h)
    if m is None:
        return "blk", None
    name = m.group(1)
    if name.split("::")[0] in KEYWORDS or name.startswith("operator"):
        return "blk", None
    return "fn", name


def scan_body(body, body_offset, text):
    """Extracts (sinks, calls) from a function body.

    sinks: [(category, line, detail)]; calls: [(callee, line)].
    """
    sinks, calls = [], []

    def add_sink(cat, offset, detail):
        sinks.append((cat, line_of(text, body_offset + offset), detail))

    for m in NEW_KEYWORD.finditer(body):
        add_sink("alloc", m.start(), "`new` expression")
    for m in THROW_KEYWORD.finditer(body):
        add_sink("throw", m.start(), "`throw` expression")
    for m in STREAM_IO.finditer(body):
        add_sink("io", m.start(), f"{m.group(0)} stream I/O")
    for m in CONTAINER_CTOR.finditer(body):
        add_sink("alloc", m.start(), "container constructed with arguments")
    for m in CALL.finditer(body):
        chain, callee = m.group(1), m.group(2)
        if callee in KEYWORDS or callee in AMBIGUOUS_CALLEES:
            continue
        if callee in GROWTH_METHODS:
            if "scratch" not in chain.lower():
                add_sink("alloc", m.start(),
                         f"'{callee}' grows a non-scratch container "
                         f"('{chain}{callee}')")
            continue
        if callee in SINK_METHODS:
            add_sink(SINK_METHODS[callee], m.start(),
                     f"'{chain}{callee}' ({SINK_METHODS[callee]})")
            continue
        if callee in SINK_NAMES:
            add_sink(SINK_NAMES[callee], m.start(),
                     f"'{callee}' ({SINK_NAMES[callee]})")
            continue
        calls.append((callee, line_of(text, body_offset + m.start())))
    return sinks, calls


def parse_struct_slots(text):
    """Slot names, in declaration order, of every struct that carries at
    least one function-pointer member — the KernelTable shape."""
    slots_by_struct = {}
    for m in re.finditer(r"\bstruct\s+(\w+)\s*\{", text):
        depth, i = 1, m.end()
        while i < len(text) and depth:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        body = text[m.end():i - 1]
        slots = []
        has_fnptr = False
        # Top-level declarations only: mask nested braces (inline methods).
        masked, d = [], 0
        for c in body:
            if c == "{":
                d += 1
            elif c == "}":
                d -= 1
                continue
            masked.append(c if d == 0 else " ")
        for decl in "".join(masked).split(";"):
            fp = re.search(r"\(\s*\*\s*(\w+)\s*\)\s*\(", decl)
            if fp:
                slots.append(fp.group(1))
                has_fnptr = True
                continue
            plain = re.match(r"\s*[\w:<>,\s*&]+?(\w+)\s*(?:=[^;]*)?$",
                             decl.rstrip())
            if plain and "(" not in decl:
                slots.append(plain.group(1))
        if has_fnptr:
            slots_by_struct[m.group(1)] = slots
    return slots_by_struct


# `Type name = { a, b, ... }` with no nested braces or statements: the
# shape of a kernel table's positional initializer.
BRACE_INIT = re.compile(r"\b(\w+)\s+(\w+)\s*=?\s*\{([^{};]*)\}")


def parse_brace_inits(text):
    """Every flat aggregate initializer of the file, as candidate tables.
    They are bound to slots only once every file is parsed, because a
    table's struct may be declared in another file (KernelTable sits in
    simd.h, its tables in simd.cc)."""
    return [{"type": m.group(1), "name": m.group(2),
             "items": [x.strip() for x in m.group(3).split(",")],
             "line": line_of(text, m.start())}
            for m in BRACE_INIT.finditer(text)]


def bind_tables(inits, slots_by_struct):
    """Positional aggregate initializers of fn-pointer structs:
    {table_name: (struct, {slot: bound_function_name}, line)}."""
    tables = {}
    for init in inits:
        slots = slots_by_struct.get(init["type"])
        if slots is None:
            continue
        binding = {}
        for idx, item in enumerate(init["items"]):
            if idx >= len(slots) or not item:
                continue
            if re.fullmatch(r"[A-Za-z_][\w:]*", item) and "::" not in item:
                binding[slots[idx]] = item
        tables[init["name"]] = (init["type"], binding, init["line"])
    return tables


def parse_file(path, text):
    """Full parse of one source file. Returns a JSON-serializable dict."""
    with_strings = strip_comments(text, keep_strings=True)
    code = strip_preprocessor(strip_comments(text))
    allowances = parse_allowances(strip_preprocessor(with_strings))

    functions = []
    hot_decls = {}  # name -> {"line": int, "allows": [cats]}

    stack = []  # (kind, name, head_start_offset, body_start_offset)
    head_start = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "{":
            inside_fn = any(e[0] == "fn" for e in stack)
            if inside_fn:
                stack.append(("blk", None, head_start, i + 1))
            else:
                kind, name = classify_head(code[head_start:i])
                stack.append((kind, name, head_start, i + 1))
            head_start = i + 1
        elif c == "}":
            if stack:
                kind, name, h_start, b_start = stack.pop()
                if kind == "fn":
                    head = code[h_start:b_start - 1]
                    head_line = line_of(code, h_start + len(
                        code[h_start:b_start]) - len(
                        code[h_start:b_start].lstrip()))
                    body = code[b_start:i]
                    sinks, calls = scan_body(body, b_start, code)
                    cls = next((e[1] for e in reversed(stack)
                                if e[0] == "cls"), None)
                    qualified = (f"{cls}::{name}"
                                 if cls and "::" not in name else name)
                    allows = []
                    start_line = head_line
                    end_line = line_of(code, b_start)
                    for ln in range(start_line, end_line + 1):
                        if ln in allowances:
                            allows.extend(allowances[ln][0])
                    functions.append({
                        "name": qualified,
                        "last": qualified.split("::")[-1],
                        "line": start_line,
                        "hot": "ODYSSEY_HOT " in head or
                               head.strip().startswith("ODYSSEY_HOT"),
                        "allows": allows,
                        "sinks": sinks,
                        "calls": calls,
                    })
            head_start = i + 1
        elif c == ";":
            inside_fn = any(e[0] == "fn" for e in stack)
            head = code[head_start:i]
            if not inside_fn and "ODYSSEY_HOT" in head:
                m = FN_NAME.search(head)
                if m and m.group(1).split("::")[0] not in KEYWORDS:
                    decl_line = line_of(code, head_start + len(head) -
                                        len(head.lstrip()))
                    end_line = line_of(code, i)
                    allows = []
                    for ln in range(decl_line, end_line + 1):
                        if ln in allowances:
                            allows.extend(allowances[ln][0])
                    name = m.group(1).split("::")[-1]
                    hot_decls[name] = {"line": decl_line, "allows": allows}
            head_start = i + 1
        i += 1

    slots_by_struct = parse_struct_slots(code)
    malformed = [
        {"line": ln, "reason": reason}
        for ln, (cats, reason) in allowances.items()
        if cats == ("__malformed__",)
    ]
    return {
        "functions": functions,
        "hot_decls": hot_decls,
        "function_fields": sorted(set(FUNCTION_FIELD.findall(code))),
        "slots": slots_by_struct,
        "inits": parse_brace_inits(code),
        "malformed_allows": malformed,
    }


def parse_file_cached(path, cache_dir):
    text = path.read_text()
    if cache_dir is None:
        return parse_file(path, text)
    key = hashlib.sha256(
        (PARSER_VERSION + "\n" + text).encode()).hexdigest()
    cache_path = cache_dir / f"{key}.json"
    if cache_path.is_file():
        try:
            return json.loads(cache_path.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    parsed = parse_file(path, text)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_path.write_text(json.dumps(parsed))
    return parsed


# ----------------------------------------------------------------------------
# Repo model + call-graph analysis
# ----------------------------------------------------------------------------


class Model:
    def __init__(self):
        self.functions = []        # all records, with "file" attached
        self.by_last = {}          # last name -> [records]
        self.hot_decl_allows = {}  # last name -> [cats]
        self.hot_decl_names = set()
        self.function_fields = set()
        self.slot_names = set()
        self.slots_by_struct = {}  # fn-pointer struct -> slot names
        self.inits = []            # (file, candidate table initializers)
        self.slot_bindings = {}    # slot -> {bound function names}
        self.tables = []           # (file, table, struct, binding, line)
        self.malformed = []        # (file, line, reason)

    def add_file(self, path, parsed):
        rel = str(path)
        for fn in parsed["functions"]:
            fn = dict(fn, file=rel)
            self.functions.append(fn)
            self.by_last.setdefault(fn["last"], []).append(fn)
        for name, decl in parsed["hot_decls"].items():
            self.hot_decl_names.add(name)
            self.hot_decl_allows.setdefault(name, []).extend(decl["allows"])
        self.function_fields.update(parsed["function_fields"])
        for struct, slots in parsed["slots"].items():
            self.slot_names.update(slots)
            self.slots_by_struct[struct] = slots
        self.inits.append((rel, parsed["inits"]))
        for bad in parsed["malformed_allows"]:
            self.malformed.append((rel, bad["line"], bad["reason"]))

    def bind_tables(self):
        """Binds every file's table initializers to the slot structs of all
        files; called once every file is added."""
        for rel, inits in self.inits:
            tables = bind_tables(inits, self.slots_by_struct)
            for table, (struct, binding, line) in tables.items():
                self.tables.append((rel, table, struct, binding, line))
                for slot, fname in binding.items():
                    self.slot_bindings.setdefault(slot, set()).add(fname)

    def is_hot(self, fn):
        return fn["hot"] or fn["last"] in self.hot_decl_names

    def allows_of(self, fn):
        return set(fn["allows"]) | set(
            self.hot_decl_allows.get(fn["last"], []))


class Finding:
    def __init__(self, file, line, category, path_names, detail):
        self.file = file
        self.line = line
        self.category = category
        self.path = path_names  # [root, ..., function containing the sink]
        self.detail = detail

    def __str__(self):
        chain = " -> ".join(self.path)
        return (f"{self.file}:{self.line}: [{self.category}] "
                f"{chain}: {self.detail}")


def analyze(model, max_depth=12):
    """Walks the call graph from every hot root; returns Findings."""
    memo = {}  # id(fn) -> [(category, file, line, subpath, detail)]

    def impurities(fn, stack):
        key = id(fn)
        if key in memo:
            return memo[key]
        if key in stack:
            return []  # recursion cycle: judged at the first visit
        stack = stack | {key}
        allows = model.allows_of(fn)
        out = []
        for cat, line, detail in fn["sinks"]:
            if cat not in allows:
                out.append((cat, fn["file"], line, [fn["name"]], detail))
        for callee, line in fn["calls"]:
            if callee in model.function_fields:
                if "indirect" not in allows:
                    out.append(("indirect", fn["file"], line, [fn["name"]],
                                f"call through std::function field "
                                f"'{callee}'"))
                continue
            targets = list(model.by_last.get(callee, []))
            if callee in model.slot_bindings:
                for bound in model.slot_bindings[callee]:
                    targets.extend(model.by_last.get(bound, []))
            if len(stack) >= max_depth:
                continue
            seen_targets = set()
            for target in targets:
                if id(target) in seen_targets:
                    continue
                seen_targets.add(id(target))
                for cat, file, s_line, subpath, detail in \
                        impurities(target, stack):
                    out.append((cat, file, s_line,
                                [fn["name"]] + subpath, detail))
        # Dedup identical sinks reached via several same-named targets.
        unique = {}
        for item in out:
            unique[(item[0], item[1], item[2], item[4])] = item
        result = list(unique.values())
        memo[key] = result
        return result

    findings = []
    for fn in model.functions:
        if not model.is_hot(fn):
            continue
        for cat, file, line, path, detail in impurities(fn, frozenset()):
            # Only report from roots: paths through intermediate hot
            # functions are reported once, at the outermost root... but a
            # hot function that is also called by another hot function is
            # still its own contract, so report each hot function's own
            # closure and dedup on the sink site + innermost function.
            findings.append(Finding(file, line, cat, path, detail))
    unique = {}
    for f in findings:
        key = (f.file, f.line, f.category, f.path[-1], f.detail)
        prev = unique.get(key)
        if prev is None or len(f.path) < len(prev.path):
            unique[key] = f  # keep the shortest path to each sink
    findings = sorted(unique.values(),
                      key=lambda f: (f.file, f.line, f.category))

    # Kernel-table closure: every bound function must itself be hot.
    for rel, table, struct, binding, line in model.tables:
        for slot, fname in binding.items():
            records = model.by_last.get(fname, [])
            if not records:
                continue  # declared elsewhere; the slot call edge covers it
            if not any(model.is_hot(r) for r in records):
                findings.append(Finding(
                    rel, line, "indirect", [table],
                    f"slot '{slot}' of {struct} binds '{fname}', which is "
                    f"not declared ODYSSEY_HOT"))
    for rel, line, reason in model.malformed:
        findings.append(Finding(
            rel, line, "indirect", ["<config>"],
            f"malformed ODYSSEY_HOT_ALLOWS reason {reason!r} — want "
            f"\"cat1,cat2: reason\" with categories from "
            f"{', '.join(CATEGORIES)}"))
    return findings


# ----------------------------------------------------------------------------
# Allowlist
# ----------------------------------------------------------------------------


def load_allowlist(path):
    """Lines of `<function> <category> <reason...>`; # comments."""
    entries = []
    if not path.is_file():
        return entries
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3 or parts[1] not in CATEGORIES:
            print(f"{path}:{ln}: malformed allowlist entry "
                  f"(want `<function> <category> <reason>`)",
                  file=sys.stderr)
            continue
        entries.append({"function": parts[0], "category": parts[1],
                        "reason": parts[2], "used": False})
    return entries


def apply_allowlist(findings, entries):
    kept = []
    for f in findings:
        excused = False
        for e in entries:
            if e["category"] == f.category and \
                    f.path[-1].split("::")[-1] == \
                    e["function"].split("::")[-1]:
                e["used"] = True
                excused = True
                break
        if not excused:
            kept.append(f)
    return kept


# ----------------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------------


def repo_sources(build_dir):
    """Source list: TUs from compile_commands.json (filtered to src/),
    plus every header under src/."""
    files = set()
    cc_json = build_dir / "compile_commands.json"
    if cc_json.is_file():
        for entry in json.loads(cc_json.read_text()):
            p = Path(entry["file"])
            if not p.is_absolute():
                p = (Path(entry["directory"]) / p).resolve()
            try:
                rel = p.relative_to(REPO)
            except ValueError:
                continue
            if rel.parts[0] == "src" and p.is_file():
                files.add(p)
    if not files:
        files.update((REPO / "src").rglob("*.cc"))
    files.update((REPO / "src").rglob("*.h"))
    return sorted(files)


def build_model(paths, cache_dir):
    model = Model()
    for path in paths:
        try:
            rel = path.relative_to(REPO)
        except ValueError:
            rel = path
        model.add_file(rel, parse_file_cached(path, cache_dir))
    model.bind_tables()
    return model


def check_repo(build_dir, cache_dir):
    model = build_model(repo_sources(build_dir), cache_dir)
    findings = analyze(model)
    entries = load_allowlist(ALLOWLIST)
    findings = apply_allowlist(findings, entries)
    for f in findings:
        print(f)
    for e in entries:
        if not e["used"]:
            print(f"note: unused allowlist entry "
                  f"`{e['function']} {e['category']}` — remove it",
                  file=sys.stderr)
    hot_count = sum(1 for fn in model.functions if model.is_hot(fn))
    if findings:
        print(f"\ncheck_hot_paths: {len(findings)} finding(s) across "
              f"{hot_count} hot functions", file=sys.stderr)
        return 1
    print(f"check_hot_paths: clean ({hot_count} hot functions, "
          f"{len(model.functions)} analyzed)")
    return 0


def self_test():
    """Runs the checker against tools/hotpath_fixtures/ and asserts each
    fixture's expected findings, mirroring lint_odyssey.py --self-test."""
    failures = []
    paths = sorted(FIXTURES.glob("*.cc")) + sorted(FIXTURES.glob("*.h"))
    if not paths:
        print(f"self-test: no fixtures under {FIXTURES}", file=sys.stderr)
        return 1
    model = build_model(paths, cache_dir=None)
    findings = analyze(model)

    def expect(what, want):
        hits = [f for f in findings if what(f)]
        if want and not hits:
            failures.append(f"missed: {want}")
        return hits

    # 1. Clean chain: a hot function calling a pure helper stays silent.
    clean = [f for f in findings if "CleanScore" in f.path]
    if clean:
        failures.append(f"false positive on clean chain: {clean[0]}")

    # 2. Transitive violation: hot -> helper -> helper -> malloc, reported
    # with the full path.
    hits = expect(lambda f: f.category == "alloc" and
                  f.path[0] == "TransitiveRoot",
                  "transitive alloc via TransitiveRoot")
    if hits and len(hits[0].path) < 3:
        failures.append(f"transitive path too short: {hits[0]}")

    # 3. Allowlisted violation: found raw, suppressed by the allowlist.
    raw = expect(lambda f: f.category == "lock" and
                 f.path[-1] == "AllowlistedLock",
                 "lock in AllowlistedLock (pre-allowlist)")
    entries = [{"function": "AllowlistedLock", "category": "lock",
                "reason": "fixture", "used": False}]
    if apply_allowlist(raw, entries):
        failures.append("allowlist failed to suppress AllowlistedLock")
    if raw and not entries[0]["used"]:
        failures.append("allowlist entry not marked used")

    # 4. Kernel-table edge: a hot caller reaches a table-bound function's
    # sink through the slot call, and a non-hot bound function trips the
    # closure check.
    expect(lambda f: f.category == "io" and
           f.path[0] == "TableCaller" and len(f.path) >= 2,
           "io sink through a kernel-table slot call")
    expect(lambda f: f.category == "indirect" and
           "not declared ODYSSEY_HOT" in f.detail,
           "hot-closure violation on a table slot")
    expect(lambda f: f.category == "indirect" and
           "'SplitKernel'" in f.detail,
           "hot-closure violation on a table whose struct is in another file")

    # 5. ODYSSEY_HOT_ALLOWS scoping: the allowance excuses the function's
    # own body but not its callees.
    allowed = [f for f in findings if f.path[-1] == "AllowedOwnBody"]
    if allowed:
        failures.append(f"ALLOWS failed to excuse own body: {allowed[0]}")
    expect(lambda f: f.category == "alloc" and
           f.path[0] == "AllowsNotInherited" and len(f.path) >= 2,
           "callee sink not excused by the caller's ALLOWS")

    # 6. Scratch-receiver rule: growth on a scratch-named chain is
    # sanctioned, growth on anything else is not.
    scratchy = [f for f in findings if f.path[-1] == "ScratchGrowth"]
    if scratchy:
        failures.append(f"scratch receiver flagged: {scratchy[0]}")
    expect(lambda f: f.category == "alloc" and
           f.path[-1] == "PlainGrowth",
           "growth on a non-scratch receiver")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test: checker behaves on its fixtures "
          f"({len(findings)} raw findings)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run against tools/hotpath_fixtures/")
    parser.add_argument("--build-dir", type=Path, default=REPO / "build",
                        help="build dir holding compile_commands.json")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persist per-file parses keyed on content hash")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return check_repo(args.build_dir, args.cache_dir)


if __name__ == "__main__":
    sys.exit(main())
