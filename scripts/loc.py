#!/usr/bin/env python3
"""Count the non-test lines of every crate under `crates/*/src`.

Each `.rs` file is counted up to its inline `#[cfg(test)] mod tests {`
(blank and comment lines included); `tests.rs` and `spec.rs` files are
left out. Prints the count per crate, the total, and the ten largest files.

    python3 scripts/loc.py            # this checkout
    python3 scripts/loc.py ../parent  # another checkout, to compare
"""

import sys
from pathlib import Path


def non_test_lines(path):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        rest = (l.strip() for l in lines[i + 1 :])
        if next((l for l in rest if l), "").startswith("mod tests {"):
            return i
    return len(lines)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_crate, per_file = {}, []
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        if path.name in ("tests.rs", "spec.rs"):
            continue
        n = non_test_lines(path)
        crate = path.relative_to(root).parts[1]
        per_crate[crate] = per_crate.get(crate, 0) + n
        per_file.append((n, path.relative_to(root).as_posix()))
    for crate, n in sorted(per_crate.items()):
        print(f"{crate:<10} {n:>7,}")
    print(f"{'total':<10} {sum(per_crate.values()):>7,}")
    print()
    for n, name in sorted(per_file, key=lambda f: (-f[0], f[1]))[:10]:
        print(f"{n:>7,}  {name}")


if __name__ == "__main__":
    main()
