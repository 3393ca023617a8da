#!/usr/bin/env python3
"""List the `pub` items of `crates/*/src` that no program references.

A program is the non-test code of every crate (as `loc.py` counts it), the
`exp_*` bins, the examples, the root `src/` and the frozen `benchmark/src`.
An item is listed when its name appears nowhere in that code outside its
own definition, `use` lines and comments (a use under a `use … as`
alias counts): its only callers, if any, are tests. A type's own `impl` blocks do not count as uses of it. Items are
matched by name, so a name that some other item or a local variable shares
(`new`, `len`, `record`) is never listed; enum variants and fields are not
scanned.

    python3 scripts/unused_pub.py            # this checkout
    python3 scripts/unused_pub.py ../parent  # another checkout, to compare
    python3 scripts/unused_pub.py --check    # fail unless the list is HOOKS

With `--check` the listed `path kind name` set must equal `HOOKS`, the
test hooks that docs/PERF_LEDGER.md names and says why each is kept; line
numbers are not compared. A new entry is dead code or a new hook: delete
it, or add it here and to the ledger. An entry no longer listed leaves
`HOOKS` too.
"""

import re
import sys
from collections import Counter
from pathlib import Path

from loc import non_test_lines

DEF = re.compile(
    r"^\s*pub(?:\([a-z]+\))?\s+(?:const\s+|unsafe\s+)?"
    r"(fn|struct|enum|trait|type|const|static)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
USE = re.compile(r"\b(?:pub(?:\([a-z]+\))?\s+)?use\s[^;]*;", re.S)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
TYPES = ("struct", "enum", "trait", "type")
HOOKS = {
    "crates/bench/src/workload.rs fn probability",
    "crates/core/src/interval.rs fn intersect",
    "crates/core/src/interval.rs fn inverse",
    "crates/hml/src/builder.rs struct DocumentBuilder",
    "crates/hml/src/builder.rs fn heading",
    "crates/hml/src/builder.rs fn audio_video",
    "crates/obs/src/causality.rs fn ring_capacity",
    "crates/obs/src/flight.rs fn ring_len",
    "crates/obs/src/lib.rs fn events_capacity",
    "crates/obs/src/registry.rs fn merge_from",
    "crates/rtp/src/packet.rs fn encode",
    "crates/rtp/src/rtcp.rs fn encode",
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


def without_impls(code, name):
    """`code` less every `impl` block whose header names the type `name`."""
    out, pos = [], 0
    header = re.compile(r"^\s*impl\b[^{;]*\b" + name + r"\b[^{;]*\{", re.M)
    for m in header.finditer(code):
        if m.start() < pos:
            continue
        depth, end = 1, m.end()
        while depth and end < len(code):
            depth += {"{": 1, "}": -1}.get(code[end], 0)
            end += 1
        out.append(code[pos : m.start()])
        pos = end
    return "".join(out) + code[pos:]


def program_text(path, crate_src, aliases):
    lines = path.read_text().splitlines()
    if crate_src:
        lines = lines[: non_test_lines(path)]
    code = "\n".join(l.split("//")[0] for l in lines)
    for use in USE.findall(code):
        aliases.update(re.findall(r"(\w+)\s+as\s+(\w+)", use))
    return USE.sub("", code), lines


def main():
    args = sys.argv[1:]
    check = "--check" in args
    args = [a for a in args if a != "--check"]
    root = Path(args[0] if args else ".")
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
    for path in crate_files + other:
        code, lines = program_text(path, path in crate_files, aliases)
        uses.update(WORD.findall(code))
        if path in crate_files:
            code_of[path] = code
            for i, line in enumerate(lines):
                m = DEF.match(line)
                if m:
                    defs.append((path, i + 1, m[1], m[2]))
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
    for path, line, kind, name in unused:
        print(f"{path.relative_to(root).as_posix()}:{line}  {kind} {name}")
    print(f"{len(unused)} of {len(defs)} pub items have no caller outside tests")
    if check:
        listed = {f"{p.relative_to(root).as_posix()} {k} {n}" for p, _, k, n in unused}
        for entry in sorted(listed - HOOKS):
            print(f"not a known test hook (dead code?): {entry}")
        for entry in sorted(HOOKS - listed):
            print(f"known test hook no longer listed: {entry}")
        sys.exit(listed != HOOKS)


if __name__ == "__main__":
    main()
