#!/usr/bin/env python3
"""List the `pub` items of `crates/*/src` that no program references, and
the `pub enum` variants no program constructs.

A program is the non-test code of every crate (as `loc.py` counts it), the
`exp_*` bins, the examples, the root `src/` and the frozen `benchmark/src`.
Comments and string and char literals are stripped first, so a name that
only a message or a doc mentions is not a use.

An item is listed when its name appears nowhere in that code outside its
own definition and `use` lines (a use under a `use … as` alias counts):
its only callers, if any, are tests. A type's own `impl` blocks do not
count as uses of it. Items are matched by name, so a name that some other
item or a local variable shares (`new`, `len`, `record`) is never listed.

A variant is listed when no program names it outside a pattern: as
`Enum::Variant`, as `Self::Variant` inside an `impl` of the enum, or bare
in a file that imports it (`use …Enum::{Variant, …}` or `use …Enum::*`).
A pattern is a `match` arm's left side, a `let` / `if let` / `while let`
binding up to its `=`, or the pattern of a `matches!`. Fields are not
scanned.

    python3 scripts/unused_pub.py              # this checkout
    python3 scripts/unused_pub.py ../parent    # another checkout, to compare
    python3 scripts/unused_pub.py --check      # fail unless the list is HOOKS
    python3 scripts/unused_pub.py --self-test  # the scan lists its fixtures

With `--check` the listed `path kind name` set must equal `HOOKS`, the
test hooks that docs/PERF_LEDGER.md names and says why each is kept; line
numbers are not compared. A new entry is dead code or a new hook: delete
it, or add it here and to the ledger. An entry no longer listed leaves
`HOOKS` too.
"""

import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

from loc import non_test_lines

DEF = re.compile(
    r"^\s*pub(?:\([a-z]+\))?\s+(?:const\s+|unsafe\s+)?"
    r"(fn|struct|enum|trait|type|const|static)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
ENUM = re.compile(r"^[ \t]*pub\s+enum\s+([A-Za-z_][A-Za-z0-9_]*)[^{;]*\{", re.M)
USE = re.compile(r"\b(?:pub(?:\([a-z]+\))?\s+)?use\s[^;]*;", re.S)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CHAR = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F_]+\}|.)|[^\\'\n])'")
RAW = re.compile(r'b?r(#*)"')
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*mod\s+\w+\s*\{")
TYPES = ("struct", "enum", "trait", "type")
HOOKS = {
    "crates/bench/src/workload.rs fn probability",
    "crates/core/src/interval.rs fn intersect",
    "crates/core/src/interval.rs fn inverse",
    "crates/hml/src/builder.rs struct DocumentBuilder",
    "crates/hml/src/builder.rs fn heading",
    "crates/hml/src/builder.rs fn paragraph",
    "crates/hml/src/builder.rs fn image",
    "crates/hml/src/builder.rs fn audio_video",
    "crates/obs/src/causality.rs fn ring_capacity",
    "crates/obs/src/flight.rs fn ring_len",
    "crates/obs/src/lib.rs fn events_capacity",
    "crates/obs/src/registry.rs fn merge_from",
    "crates/rtp/src/packet.rs fn encode",
    "crates/rtp/src/packet.rs fn decode",
    "crates/rtp/src/rtcp.rs fn encode",
    "crates/rtp/src/rtcp.rs fn decode",
    "crates/rtp/src/session.rs fn with_max_payload",
    "crates/server/src/accounts.rs fn balance",
    "crates/server/src/admission.rs fn active_sessions",
    "crates/server/src/segcache.rs fn is_pinned",
    "crates/server/src/segcache.rs fn lru_order",
    "crates/service/src/client_actor.rs fn pending_tracked",
    "crates/service/src/client_actor.rs fn forward",
    "crates/service/src/client_actor.rs fn reload",
    "crates/service/src/client_actor.rs fn disable_stream",
    "crates/service/src/client_actor.rs fn annotate",
    "crates/service/src/client_actor.rs fn fetch_annotations",
    "crates/simnet/src/models.rs fn steady_state_loss",
    "crates/simnet/src/topology.rs fn node_name",
    "crates/simnet/src/topology.rs fn link_is_up",
    "crates/simnet/src/topology.rs fn next_hop",
}


def strip_literals(text):
    """`text` less comments and the contents of string and char literals.
    Newlines stay, so positions keep their line numbers."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while depth and j < n:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "br" and not (i and (text[i - 1].isalnum() or text[i - 1] == "_")) and RAW.match(text, i):
            m = RAW.match(text, i)
            end = text.find('"' + m[1], m.end())
            end = n if end < 0 else end + 1 + len(m[1])
            out.append('""' + "\n" * text.count("\n", i, end))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j + 1
        elif c == "'" and CHAR.match(text, i):
            out.append("' '")
            i = CHAR.match(text, i).end()
        else:
            out.append(c)
            i += 1
    return "".join(out)


def group_end(code, open_at):
    """The index just past the bracket group opening at `open_at`."""
    depth, j = 0, open_at
    while j < len(code):
        depth += {"{": 1, "(": 1, "[": 1, "}": -1, ")": -1, "]": -1}.get(code[j], 0)
        j += 1
        if depth == 0:
            break
    return j


def scan_to(code, start, stop):
    """The first index at or after `start` where `stop(code, j)` holds at
    bracket depth 0, or where the enclosing group closes."""
    depth, j = 0, start
    while j < len(code):
        c = code[j]
        if depth == 0 and stop(code, j):
            return j
        if c in "{([":
            depth += 1
        elif c in "})]":
            if depth == 0:
                return j
            depth -= 1
        j += 1
    return j


def is_arrow(code, j):
    return code.startswith("=>", j)


def is_bind(code, j):
    """A lone `=`: not `==`, `=>`, `<=`, `>=`, `!=` or `op=`."""
    return (
        code[j] == "="
        and code[j + 1 : j + 2] not in ("=", ">")
        and code[j - 1] not in "=<>!+-*/%&|^"
    ) or code[j] == ";"


def pattern_spans(code):
    """(start, end) of every match-arm pattern, `let` pattern and
    `matches!` pattern in `code`."""
    spans = []
    for m in re.finditer(r"\bmatch\b", code):
        arms = scan_to(code, m.end(), lambda c, j: c[j] == "{")
        if arms >= len(code) or code[arms] != "{":
            continue
        j, end = arms + 1, group_end(code, arms) - 1
        while j < end:
            while j < end and code[j] in " \t\n,":
                j += 1
            if j >= end:
                break
            arrow = scan_to(code, j, is_arrow)
            spans.append((j, arrow))
            j = arrow + 2
            while j < end and code[j] in " \t\n":
                j += 1
            if j < end and code[j] == "{":
                j = group_end(code, j)
            else:
                j = scan_to(code, j, lambda c, k: c[k] == ",")
    for m in re.finditer(r"\blet\b", code):
        spans.append((m.end(), scan_to(code, m.end(), is_bind)))
    for m in re.finditer(r"\bmatches!\s*\(", code):
        comma = scan_to(code, m.end(), lambda c, j: c[j] == ",")
        spans.append((comma, group_end(code, m.end() - 1)))
    return spans


def self_types(code, name):
    """(start, end) of every `impl` block whose self type names `name`."""
    blocks = []
    for m in re.finditer(r"^\s*impl\b([^{;]*)\{", code, re.M):
        header = m[1]
        self_type = header.rsplit(" for ", 1)[-1]
        if re.search(r"\b" + name + r"\b", self_type):
            blocks.append((m.start(), group_end(code, m.end() - 1)))
    return blocks


def enum_variants(code):
    """(enum, variant, offset, body span) of every `pub enum` in `code`."""
    found = []
    for m in ENUM.finditer(code):
        body_end = group_end(code, m.end() - 1) - 1
        j = m.end()
        while j < body_end:
            k = scan_to(code, j, lambda c, i: c[i] == ",")
            part = re.sub(r"#\s*\[[^\]]*\]", lambda a: " " * len(a[0]), code[j:k])
            v = WORD.search(part)
            if v:
                found.append((m[1], v[0], j + v.start(), (m.start(), body_end)))
            j = k + 1
    return found


def without_impls(code, name):
    """`code` less every `impl` block whose header names the type `name`."""
    out, pos = [], 0
    header = re.compile(r"^\s*impl\b[^{;]*\b" + name + r"\b[^{;]*\{", re.M)
    for m in header.finditer(code):
        if m.start() < pos:
            continue
        end = group_end(code, m.end() - 1)
        out.append(code[pos : m.start()])
        pos = end
    return "".join(out) + code[pos:]


def program_text(path, crate_src, aliases):
    """(code less `use` lines and test modules, the `use` lines, that
    code's lines) of one file."""
    lines = path.read_text().splitlines()
    if crate_src:
        lines = lines[: non_test_lines(path)]
    code = strip_literals("\n".join(lines))
    for m in reversed(list(TEST_MOD.finditer(code))):
        end = group_end(code, m.end() - 1)
        code = code[: m.start()] + "\n" * code.count("\n", m.start(), end) + code[end:]
    uses = USE.findall(code)
    for use in uses:
        aliases.update(re.findall(r"(\w+)\s+as\s+(\w+)", use))
    # Keep offsets: blank each `use` line instead of cutting it.
    blanked = USE.sub(lambda u: re.sub(r"[^\n]", " ", u[0]), code)
    return blanked, uses, blanked.split("\n")


def constructed(enum, variant, files):
    """Whether any program names `enum::variant` outside a pattern."""
    qualified = re.compile(r"(?<![A-Za-z0-9_])" + enum + r"::" + variant + r"\b")
    via_self = re.compile(r"(?<![A-Za-z0-9_])Self::" + variant + r"\b")
    bare = re.compile(r"(?<![A-Za-z0-9_:])" + variant + r"\b")
    imported = re.compile(r"\b" + enum + r"::(?:\*|\{[^}]*\b" + variant + r"\b)")
    for code, uses, spans, body in files:
        hits = [m.start() for m in qualified.finditer(code)]
        for lo, hi in self_types(code, enum):
            hits += [m.start() for m in via_self.finditer(code, lo, hi)]
        if any(imported.search(u) for u in uses):
            hits += [
                m.start()
                for m in bare.finditer(code)
                if not any(lo <= m.start() < hi for lo, hi in body.get(enum, ()))
            ]
        if any(not any(lo <= h < hi for lo, hi in spans) for h in hits):
            return True
    return False


def scan(root):
    """(path, line, kind, name) of every unused item and variant."""
    uses, defs, code_of, aliases = Counter(), [], {}, set()
    crate_files = [
        p
        for p in sorted(root.glob("crates/*/src/**/*.rs"))
        if p.name not in ("tests.rs", "spec.rs")
    ]
    other = [
        p
        for pattern in ("examples/*.rs", "src/**/*.rs", "benchmark/src/**/*.rs")
        for p in sorted(root.glob(pattern))
    ]
    files, variants = [], []
    for path in crate_files + other:
        code, use_lines, lines = program_text(path, path in crate_files, aliases)
        uses.update(WORD.findall(code))
        body = {}
        if path in crate_files:
            code_of[path] = code
            for i, line in enumerate(lines):
                m = DEF.match(line)
                if m:
                    defs.append((path, i + 1, m[1], m[2]))
            for enum, variant, at, span in enum_variants(code):
                body.setdefault(enum, []).append(span)
                variants.append((path, code.count("\n", 0, at) + 1, enum, variant))
        files.append((code, use_lines, pattern_spans(code), body))
    for name, alias in aliases:
        uses[name] += uses[alias]
    per_name = Counter(name for *_, name in defs)

    def n_uses(path, kind, name):
        if kind not in TYPES:
            return uses[name]
        own = code_of[path]
        mine = without_impls(own, name)
        return uses[name] - WORD.findall(own).count(name) + WORD.findall(mine).count(name)

    unused = [d for d in defs if n_uses(d[0], d[2], d[3]) <= per_name[d[3]]]
    unused += [
        (path, line, "variant", f"{enum}::{variant}")
        for path, line, enum, variant in variants
        if not constructed(enum, variant, files)
    ]
    return unused, len(defs), len(variants)


FIXTURE = '''
pub enum Shape {
    Circle,
    Square { side: u32 },
}

pub fn area(s: &Shape) -> u32 {
    match s {
        Shape::Circle => 3,
        Shape::Square { side } => side * side,
    }
}

pub fn only_in_a_string() {}

fn demo() {
    println!("only_in_a_string() is not a call");
    let _ = area(&Shape::Circle);
}
'''


def self_test():
    """The scan lists a `pub fn` named only in a string literal and a
    variant that only patterns name."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "crates" / "fixture" / "src"
        src.mkdir(parents=True)
        (src / "lib.rs").write_text(FIXTURE)
        unused, _, _ = scan(Path(tmp))
    listed = {f"{kind} {name}" for _, _, kind, name in unused}
    want = {"fn only_in_a_string", "variant Shape::Square"}
    print(f"self-test: listed {sorted(listed)}")
    sys.exit(listed != want)


def main():
    args = sys.argv[1:]
    if "--self-test" in args:
        self_test()
    check = "--check" in args
    args = [a for a in args if a != "--check"]
    root = Path(args[0] if args else ".")
    unused, n_items, n_variants = scan(root)
    for path, line, kind, name in unused:
        print(f"{path.relative_to(root).as_posix()}:{line}  {kind} {name}")
    print(
        f"{len(unused)} of {n_items} pub items and {n_variants} variants "
        "have no use outside tests"
    )
    if check:
        listed = {f"{p.relative_to(root).as_posix()} {k} {n}" for p, _, k, n in unused}
        for entry in sorted(listed - HOOKS):
            print(f"not a known test hook (dead code?): {entry}")
        for entry in sorted(HOOKS - listed):
            print(f"known test hook no longer listed: {entry}")
        sys.exit(listed != HOOKS)


if __name__ == "__main__":
    main()
