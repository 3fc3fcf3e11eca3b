#!/usr/bin/env python3
"""The knob census: every public field of every settable-value struct, and
the non-test sites that set it.

    python3 results/knobs.py        # from the repo root

A settable-value struct is a `pub struct` in `crates/*/src` whose name ends
in Config, Budget, Policy, Controller, Options, Scale or Params. For each of
its `pub` fields the script lists the sites that set it, across
`crates/*/src`, `examples/`, `src/` and `e2e/src`:

* a struct literal naming the field (`Name { field: … }`, the shorthand
  `Name { field }`, or `Self { … }` inside the struct's own `impl`), except
  the struct's own `fn default` — that is the default, not a setting;
* an assignment `….field = …` (or `+=` and friends). An assignment is
  matched by field name alone, so a name that several structs share is
  charged to each of them and marked `~`.

Test code is skipped: files under a `tests/` directory are not scanned and
`#[cfg(test)] mod … { … }` blocks are blanked, as are comments and string
literals. Sites under `e2e/` are flagged `[e2e]`: those fields wait until the
benchmark stops naming them. Prints a markdown table, then a one-line total.
Stdlib only. The match is textual: it reports what the source says, not
what the type checker would resolve.
"""
import glob
import re
import sys

SUFFIXES = ("Config", "Budget", "Policy", "Controller", "Options", "Scale", "Params")
STRUCT = re.compile(r"\bpub\s+struct\s+(\w+)\s*(<[^{;]*?>)?\s*\{")
FIELD = re.compile(r"(?m)^\s*pub\s+(\w+)\s*:")
TEST_MOD = re.compile(r"#\[cfg\(test\)\]\s*(pub(\([a-z]+\))?\s+)?mod\s+\w+\s*\{")
IMPL = re.compile(r"\bimpl\b([^{;]*)\{")
DEFAULT_FN = re.compile(r"\bfn\s+default\s*\(\s*\)[^{;]*\{")
LITERAL = re.compile(r"\b(Self|[A-Z]\w*)\s*\{")
ASSIGN = re.compile(r"\.([A-Za-z_]\w*)\s*(?:[-+*/|&^]|<<|>>)?=(?![=>])")
NOT_A_LITERAL = ("struct", "enum", "union", "trait", "impl", "for", "mod", "->")


def blank(text):
    """`text` with comments, string and char literals replaced by spaces
    (newlines kept, so offsets and line numbers still hold)."""
    out = []
    i, n = 0, len(text)
    ident = re.compile(r"\w")
    while i < n:
        c = text[i]
        j = None
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
        elif c == "r" and (i == 0 or not ident.match(text[i - 1])):
            m = re.match(r'r(#*)"', text[i:])
            if m:
                end = text.find('"' + m.group(1), i + len(m.group(0)))
                j = n if end < 0 else end + 1 + len(m.group(1))
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j += 1
        elif c == "'":
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'\n])'", text[i:])
            if m:
                j = i + len(m.group(0))
        if j is None:
            out.append(c)
            i += 1
        else:
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
    return "".join(out)


def close(text, open_at):
    """Offset just past the `}` matching the `{` at `open_at`."""
    depth = 0
    for j in range(open_at, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def strip_tests(text):
    while True:
        m = TEST_MOD.search(text)
        if not m:
            return text
        end = close(text, m.end() - 1)
        text = text[: m.start()] + re.sub(r"[^\n]", " ", text[m.start() : end]) + text[end:]


def top_level_items(body):
    """`body` split at the commas outside any bracket."""
    items, depth, start = [], 0, 0
    for j, ch in enumerate(body):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(body[start:j])
            start = j + 1
    items.append(body[start:])
    return [s.strip() for s in items]


def impl_type(header):
    """The self type an `impl` header names (`impl<T> Tr for Ty<T> where …`)."""
    header = header.split(" where ")[0].strip()
    if header.startswith("<"):
        depth = 0
        for j, ch in enumerate(header):
            depth += ch == "<"
            depth -= ch == ">"
            if depth == 0:
                header = header[j + 1 :]
                break
    if re.search(r"\bfor\b", header):
        header = re.split(r"\bfor\b", header)[-1]
    names = re.findall(r"[A-Za-z_]\w*", header.split("<")[0])
    return names[-1] if names else None


def sources():
    files = []
    for pattern in ("crates/*/src/**/*.rs", "examples/**/*.rs", "src/**/*.rs", "e2e/src/**/*.rs"):
        files += glob.glob(pattern, recursive=True)
    return sorted(f for f in set(files) if "/tests/" not in f and not f.startswith("tests/"))


def main():
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    texts = {}
    for path in sources():
        with open(path, encoding="utf-8") as f:
            texts[path] = strip_tests(blank(f.read()))

    structs = {}  # name -> (defining file, [fields])
    for path, text in texts.items():
        if not path.startswith("crates/"):
            continue
        for m in STRUCT.finditer(text):
            if m.group(1).endswith(SUFFIXES):
                body = text[m.end() : close(text, m.end() - 1) - 1]
                structs[m.group(1)] = (path, FIELD.findall(body))
    owners = {}  # field name -> structs that have it
    for name, (_, fields) in structs.items():
        for f in fields:
            owners.setdefault(f, []).append(name)
    sites = {(s, f): [] for s, (_, fields) in structs.items() for f in fields}

    for path, text in texts.items():
        line = lambda off: text.count("\n", 0, off) + 1  # noqa: E731
        where = f"{path}:{{}}" + (" [e2e]" if path.startswith("e2e/") else "")
        impls = []
        for m in IMPL.finditer(text):
            impls.append((m.start(), close(text, m.end() - 1), impl_type(m.group(1))))
        defaults = [(m.start(), close(text, m.end() - 1)) for m in DEFAULT_FN.finditer(text)]
        for m in LITERAL.finditer(text):
            before = text[: m.start()].rstrip()
            if before.endswith(NOT_A_LITERAL) or re.search(r"\b(struct|enum|impl|for)\s*$", before):
                continue
            name = m.group(1)
            enclosing = [t for s, e, t in impls if s < m.start() < e]
            if name == "Self":
                name = enclosing[-1] if enclosing else None
            if name not in structs:
                continue
            own_default = enclosing and enclosing[-1] == name and any(
                s < m.start() < e for s, e in defaults
            )
            if own_default:
                continue
            body = text[m.end() : close(text, m.end() - 1) - 1]
            for item in top_level_items(body):
                fm = re.match(r"([A-Za-z_]\w*)\s*(:(?!:)|$)", item)
                if fm and (name, fm.group(1)) in sites:
                    sites[(name, fm.group(1))].append(where.format(line(m.start())))
        for m in ASSIGN.finditer(text):
            for name in owners.get(m.group(1), []):
                mark = "~" if len(owners[m.group(1)]) > 1 else ""
                sites[(name, m.group(1))].append(mark + where.format(line(m.start())))

    print("| struct | field | non-test sites that set it |")
    print("|---|---|---|")
    unset = in_e2e = 0
    for name in sorted(structs, key=lambda s: (structs[s][0], s)):
        path, fields = structs[name]
        for f in fields:
            found = sites[(name, f)]
            unset += not found
            in_e2e += any(s.endswith("[e2e]") for s in found)
            print(f"| `{name}` ({path.split('/')[1]}) | `{f}` | {', '.join(found) or '—'} |")
    total = sum(len(fields) for _, fields in structs.values())
    print(
        f"\n{total} fields over {len(structs)} structs; "
        f"{unset} set nowhere outside tests, {in_e2e} set in e2e/."
    )


if __name__ == "__main__":
    main()
