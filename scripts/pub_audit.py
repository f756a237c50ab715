#!/usr/bin/env python3
"""Audit the workspace's public surface with the compiler as the judge.

Usage: python3 scripts/pub_audit.py   (from anywhere in the repo; no flags)

Copies the committed tree (HEAD) into a temporary directory, never touching
the checkout it runs from, and there:

1. demotes every `pub fn`, `pub const`, `pub struct`, `pub enum`,
   `pub trait` and `pub type` in `crates/*/src` and `src/lib.rs` to
   `pub(crate)`;
2. builds everything outside a crate that may use it -- the workspace's
   tests, examples, benches and CLI (`cargo check --workspace --all-targets`),
   the doc tests, and the `benchmark/` package -- and puts `pub` back on each
   item the compiler names: a private item used from outside (the "defined
   here" span of the error), a private item in a re-export (E0364, E0365),
   a private type in a public signature (`private_interfaces`,
   `private_bounds`); it also keeps `is_empty` public wherever `len` is
   (clippy's `len_without_is_empty`). It repeats until everything builds;
3. checks the default build (`cargo check --workspace`) and collects what
   rustc's `dead_code` lint then names.

Prints each item that could be `pub(crate)` and each item rustc calls dead,
one per line, and exits 1 when it printed anything; prints nothing and exits
0 on a tree whose surface is already the compiler's. Exits 2 when a build
fails for a reason it cannot map to an item it demoted.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile

KINDS = r"(?:const\s+fn|unsafe\s+fn|async\s+fn|fn|const|struct|enum|trait|type)"
DEMOTABLE = re.compile(r"^(\s*)pub(\s+" + KINDS + r"\s+)([A-Za-z_][A-Za-z0-9_]*)")
PROMOTED = re.compile(r"^(\s*)pub\(crate\)(\s+" + KINDS + r"\s+)([A-Za-z_][A-Za-z0-9_]*)")
IMPL = re.compile(r"^(\s*)impl\b")
LOCATION = re.compile(r"(?:-->|:::)\s+(\S+?):(\d+):\d+")
BACKTICKED = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")


class Item:
    """One demoted item: where it is, what it is, and whether it went back."""

    def __init__(self, path, line, kind, name):
        self.path, self.line, self.kind, self.name = path, line, kind, name
        self.public = False

    def crate(self):
        return self.path.split(os.sep)[1] if self.path.startswith("crates" + os.sep) else "erms"


def sources(root):
    files = [os.path.join("src", "lib.rs")]
    crates = os.path.join(root, "crates")
    for crate in sorted(os.listdir(crates)):
        top = os.path.join(crates, crate, "src")
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith(".rs"):
                    files.append(os.path.relpath(os.path.join(dirpath, f), root))
    return files


def demote(root):
    """Rewrite every demotable `pub` in the copy; return the items."""
    items = []
    for rel in sources(root):
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        for i, text in enumerate(lines):
            m = DEMOTABLE.match(text)
            if m:
                kind = m.group(2).split()[0]
                items.append(Item(rel, i + 1, kind, m.group(3)))
                lines[i] = m.group(1) + "pub(crate)" + text[len(m.group(1)) + 3 :]
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines))
    return items


def promote(root, item):
    path = os.path.join(root, item.path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    text = lines[item.line - 1]
    m = PROMOTED.match(text)
    assert m and m.group(3) == item.name, (item.path, item.line, text)
    lines[item.line - 1] = m.group(1) + "pub" + text[len(m.group(1)) + len("pub(crate)") :]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    item.public = True


def cargo(root, args, json_messages=True):
    env = dict(os.environ)
    # CI's `-D warnings` would turn the dead code this audit reports into
    # build failures; the copy builds with the default lint levels.
    env["RUSTFLAGS"] = ""
    env["RUSTDOCFLAGS"] = ""
    env["CARGO_TARGET_DIR"] = os.path.join(root, "target")
    env["CARGO_TERM_COLOR"] = "never"
    cmd = ["cargo"] + args + (["--message-format=json"] if json_messages else [])
    run = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


def compiler_messages(stdout):
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        msg = json.loads(line)
        if msg.get("reason") == "compiler-message":
            yield msg["message"]


def spans_of(message):
    for span in message.get("spans", []):
        yield span
    for child in message.get("children", []):
        yield from spans_of(child)


def texts_of(message):
    yield message.get("message", "")
    for span in message.get("spans", []):
        yield span.get("label") or ""
    for child in message.get("children", []):
        yield from texts_of(child)


class Audit:
    def __init__(self, root, items):
        self.root = root
        self.items = items
        self.by_path = {}
        for item in items:
            self.by_path.setdefault(item.path, []).append(item)

    def rel(self, file_name):
        path = os.path.normpath(os.path.join(self.root, file_name))
        return os.path.relpath(path, self.root)

    def promote_at(self, file_name, lo, hi, names):
        """Promote the demoted items in `file_name` on lines lo..=hi named in `names`."""
        done = 0
        for item in self.by_path.get(self.rel(file_name), []):
            if not item.public and lo <= item.line <= hi and item.name in names:
                promote(self.root, item)
                done += 1
        return done

    def promote_by_name(self, file_name, names):
        """Promote every demoted module-level item of the file's crate named
        in `names` (what a re-export can name: never an associated item)."""
        crate = Item(self.rel(file_name), 0, "", "").crate()
        done = 0
        for item in self.items:
            if item.public or item.crate() != crate or item.name not in names:
                continue
            with open(os.path.join(self.root, item.path), encoding="utf-8") as f:
                lines = f.read().split("\n")
            if impl_of(lines, item.line - 1) is None:
                promote(self.root, item)
                done += 1
        return done

    def from_json(self, stdout):
        """Promote from one JSON build; return (promoted, unexplained errors)."""
        promoted, unexplained = 0, []
        for message in compiler_messages(stdout):
            code = (message.get("code") or {}).get("code", "")
            privacy = code in ("private_interfaces", "private_bounds")
            if message["level"] != "error" and not privacy:
                continue
            names = set()
            for text in texts_of(message):
                names.update(BACKTICKED.findall(text))
            hit = 0
            for span in spans_of(message):
                hit += self.promote_at(span["file_name"], span["line_start"], span["line_end"], names)
            if not hit and code in ("E0364", "E0365"):
                for span in message.get("spans", []):
                    hit += self.promote_by_name(span["file_name"], names)
            promoted += hit
            if not hit and message["level"] == "error" and not message["message"].startswith("aborting"):
                unexplained.append(message.get("rendered") or message["message"])
        return promoted, unexplained

    def from_text(self, output):
        """Promote from rustc's human-readable output (the doc tests)."""
        promoted, names = 0, set()
        for line in output.splitlines():
            if line.startswith("error"):
                names = set(BACKTICKED.findall(line))
            elif line.startswith("warning"):
                # Lint warnings (the libraries' dead code among them) name
                # items too; only errors say an item must be public.
                names = set()
            elif line.lstrip().startswith(("note", "= note", "help")):
                names.update(BACKTICKED.findall(line))
            m = LOCATION.search(line)
            if m and names:
                at = int(m.group(2))
                promoted += self.promote_at(m.group(1), at, at, names)
        return promoted

    def keep_is_empty(self):
        """Promote `is_empty` in every impl block whose `len` is public."""
        promoted = 0
        for path, items in self.by_path.items():
            with open(os.path.join(self.root, path), encoding="utf-8") as f:
                lines = f.read().split("\n")
            public_len = {impl_of(lines, i) for i, t in enumerate(lines) if re.match(r"^\s*pub fn len\b", t)}
            for item in items:
                if item.name == "is_empty" and not item.public and impl_of(lines, item.line - 1) in public_len:
                    promote(self.root, item)
                    promoted += 1
        return promoted


def impl_of(lines, index):
    """Line index of the `impl` block enclosing line `index`, or None."""
    indent = len(lines[index]) - len(lines[index].lstrip())
    for i in range(index - 1, -1, -1):
        m = IMPL.match(lines[i])
        if m and len(m.group(1)) < indent:
            return i
    return None


def copy_head(repo, dest):
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=repo, capture_output=True, check=True)
    tar_path = os.path.join(dest, "head.tar")
    with open(tar_path, "wb") as f:
        f.write(archive.stdout)
    root = os.path.join(dest, "tree")
    with tarfile.open(tar_path) as tar:
        tar.extractall(root, filter="data")
    os.remove(tar_path)
    return root


def fail(what, details):
    sys.stderr.write(f"pub_audit: {what}\n")
    for d in details[:20]:
        sys.stderr.write(d.rstrip() + "\n")
    return 2


def audit(repo, dest):
    """Run the audit in `dest`; return (exit status, demotable items, dead lines)."""
    root = copy_head(repo, dest)
    items = demote(root)
    run = Audit(root, items)
    while True:
        _, out, _ = cargo(root, ["check", "--workspace", "--all-targets", "--keep-going"])
        promoted, unexplained = run.from_json(out)
        if promoted:
            continue
        if unexplained:
            return fail("the workspace does not build", unexplained), [], []
        _, out, _ = cargo(root, ["check", "--manifest-path", "benchmark/Cargo.toml", "--all-targets"])
        promoted, unexplained = run.from_json(out)
        if promoted:
            continue
        if unexplained:
            return fail("benchmark/ does not build", unexplained), [], []
        status, out, err = cargo(root, ["test", "--workspace", "--doc", "--no-fail-fast"], json_messages=False)
        if run.from_text(out + err):
            continue
        if status != 0:
            return fail("the doc tests fail", [out[-4000:] + err[-4000:]]), [], []
        if run.keep_is_empty():
            continue
        break
    _, out, _ = cargo(root, ["check", "--workspace"])
    dead = []
    for message in compiler_messages(out):
        if (message.get("code") or {}).get("code") != "dead_code":
            continue
        for span in message["spans"]:
            if span["is_primary"]:
                dead.append(f"{run.rel(span['file_name'])}:{span['line_start']}: dead: {message['message']}")
    demotable = [i for i in items if not i.public]
    return 0, demotable, sorted(set(dead))


def main():
    repo = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    dest = tempfile.mkdtemp(prefix="pub_audit.")
    try:
        status, demotable, dead = audit(repo, dest)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    if status:
        return status
    for item in demotable:
        print(f"{item.path}:{item.line}: could be pub(crate): {item.kind} {item.name}")
    for line in dead:
        print(line)
    if demotable or dead:
        fns = sum(1 for i in demotable if i.kind in ("fn", "const"))
        print(
            f"{len(demotable)} items could be pub(crate) ({fns} fn/const); "
            f"{len(dead)} dead-code warnings in the default build"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
