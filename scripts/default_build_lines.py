#!/usr/bin/env python3
"""Count the Rust lines the default build compiles.

Usage: python3 scripts/default_build_lines.py   (from anywhere in the repo)

Counts every line of `crates/*/src/**.rs` and `src/**.rs` except
  * items marked `#[cfg(test)]` (the attribute, any attributes after it and
    the item itself, found by counting braces outside strings and comments);
  * module files that only a `#[cfg(test)] mod name;` declaration loads.
Blank and comment lines count: the figure is lines of source, not statements.

Prints the default-build figure, the lines of test-only code it left out,
and the workspace total (every `.rs` file outside `benchmark/` and build
directories, the `stubs/` stand-ins included), one `name: value` per line.
"""

import os
import re
import sys

CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
ATTR = re.compile(r"^\s*#\[")
MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+([A-Za-z_][A-Za-z0-9_]*)\s*;")


def code_only(line, state):
    """Return `line` with comments, strings and char literals blanked.

    `state` carries an open block comment's depth or an open string across
    lines: {"block": int, "string": None | '"' | raw-hashes (str of '#')}.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if state["block"]:
            if line.startswith("*/", i):
                state["block"] -= 1
                i += 2
            elif line.startswith("/*", i):
                state["block"] += 1
                i += 2
            else:
                i += 1
            continue
        if state["string"] is not None:
            s = state["string"]
            if s == '"':
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == '"':
                    state["string"] = None
                i += 1
            else:
                close = '"' + s[1:]
                if line.startswith(close, i):
                    state["string"] = None
                    i += len(close)
                else:
                    i += 1
            continue
        c = line[i]
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            state["block"] = 1
            i += 2
            continue
        m = re.match(r'b?r(#*)"', line[i:])
        if m and (i == 0 or not (line[i - 1].isalnum() or line[i - 1] == "_")):
            state["string"] = "r" + m.group(1)
            i += m.end()
            continue
        if c == '"':
            state["string"] = '"'
            i += 1
            continue
        if c == "'":
            m = re.match(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^\\'])'", line[i:])
            if m:
                i += m.end()
                continue
        out.append(c)
        i += 1
    return "".join(out)


def count_file(path, test_files):
    """Return (default-build lines, test-only lines) of one file.

    Adds to `test_files` the module files its `#[cfg(test)] mod x;` lines load.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    state = {"block": 0, "string": None}
    kept = skipped = 0
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(lines[i]) or state["block"] or state["string"] is not None:
            code_only(lines[i], state)
            kept += 1
            i += 1
            continue
        # A test-only item: its attributes, then lines until its braces close
        # or it ends with `;` / `,` before opening any.
        start = i
        i += 1
        while i < len(lines) and ATTR.match(lines[i]):
            code_only(lines[i], state)
            i += 1
        if i < len(lines):
            m = MOD_DECL.match(lines[i])
            if m:
                test_files.add(module_file(path, m.group(1)))
        depth, opened = 0, False
        while i < len(lines):
            code = code_only(lines[i], state)
            i += 1
            done = False
            for c in code:
                if c in "{([":
                    depth += 1
                    opened = opened or c == "{"
                elif c in "})]":
                    depth -= 1
                    if depth == 0 and opened:
                        done = True
                        break
                elif c in ";," and depth == 0:
                    done = True
                    break
            if done:
                break
        skipped += i - start
    return kept, skipped


def module_file(parent, name):
    d = os.path.dirname(parent)
    base = os.path.basename(parent)
    if base not in ("lib.rs", "main.rs", "mod.rs"):
        d = os.path.join(d, base[:-3])
    flat = os.path.join(d, name + ".rs")
    return os.path.normpath(flat if os.path.exists(flat) else os.path.join(d, name, "mod.rs"))


def rust_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".git"))
        for f in sorted(filenames):
            if f.endswith(".rs"):
                yield os.path.normpath(os.path.join(dirpath, f))


def main():
    root = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    os.chdir(root)
    sources = [p for p in rust_files("src")]
    for crate in sorted(os.listdir("crates")):
        sources += rust_files(os.path.join("crates", crate, "src"))
    test_files = set()
    counts = {p: count_file(p, test_files) for p in sources}
    default = test_only = 0
    for p, (kept, skipped) in counts.items():
        if p in test_files or any(p.startswith(t[: -len("mod.rs")]) for t in test_files if t.endswith("mod.rs")):
            test_only += kept + skipped
        else:
            default += kept
            test_only += skipped
    total = 0
    for p in rust_files("."):
        if p.split(os.sep)[0] in ("benchmark", ".bench_build"):
            continue
        with open(p, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    print(f"default_build_lines: {default}")
    print(f"test_only_lines_in_src: {test_only}")
    print(f"workspace_total_lines: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
