"""Size of the ``districter`` package, per module, by line kind.

    python3 tools/src_size.py

Each line of ``src/districter/*.py`` is counted once, by what
:mod:`tokenize` finds on it: ``blank`` when it holds only whitespace (also
inside a docstring), else ``code`` when any token other than a comment or a
docstring touches it, else ``docstring`` when a docstring (a string that is
a statement by itself) covers it, else ``comment``.  A table goes to
standard output, and its last line is one JSON object:
``{"modules": {name: counts}, "total": counts}``.
"""

from __future__ import annotations

import json
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "districter"
KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def line_kinds(path: Path) -> dict:
    """The count of each kind of line in the module at ``path``."""
    with tokenize.open(path) as f:
        text = f.read()
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    kind = {}       # line number -> rank in KINDS of what touches it
    statement_start = True      # no token yet in the current statement
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            if tok.type == tokenize.NEWLINE:
                statement_start = True
            continue
        if tok.type == tokenize.COMMENT:
            rank = 2
        elif (tok.type == tokenize.STRING and statement_start
              and tokens[i + 1].type in (tokenize.NEWLINE,
                                         tokenize.ENDMARKER)):
            rank = 1
        else:
            rank = 0
        if tok.type != tokenize.COMMENT:
            statement_start = False
        for line in range(tok.start[0], tok.end[0] + 1):
            kind[line] = min(kind.get(line, 3), rank)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        counts[KINDS[kind.get(number, 3) if line.strip() else 3]] += 1
    return counts


def main() -> None:
    modules = {path.stem: line_kinds(path)
               for path in sorted(PACKAGE.glob("*.py"))}
    total = {k: sum(m[k] for m in modules.values()) for k in KINDS}
    print(f"{'module':<14}" + "".join(f"{k:>11}" for k in KINDS))
    for name, counts in [*modules.items(), ("total", total)]:
        print(f"{name:<14}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(json.dumps({"modules": modules, "total": total}))


if __name__ == "__main__":
    main()
