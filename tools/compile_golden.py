"""Golden fixture for the schema compiler
(``tests/data/compile_golden.json``).

The fixture pins ``schema.compiler.compile_schema``: for each schema text
it holds either a canonical dump of the compiled ``blocks`` (each
dataclass as its class name and fields, private and derived fields left
out; see ``tests/test_compile_golden.py:dump``) or the
``[SchemaError.kind, detail]`` pair the compile raises.  The schema texts
are the flagship schema, every string constant of
``tests/test_conformance.py``, the code spans of FIXTURES.md's group-A
constraint column, the edge cases in ``EXTRA`` below, and the 200
documents of ``flattener_golden.documents()`` read as schema text.

    python3 tools/compile_golden.py          # rewrite the fixture
    python3 tools/compile_golden.py --check  # report schemas that differ
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "compile_golden.json"

# block openers next to look-alike lines, matcher extras and their
# errors, and the regexes whose anchoring differs between `^p` and `p`
EXTRA = [
    "  # indented heading\n####### seven\n#nospace\n# ok",
    "---\n- - -\n***\n* * *\n___\n--- \n----  x",
    "- `item1:/\\w+/`{1,1}\n\t- `item2:/\\w+/`{2,2}",
    "- `a:/./`{,}\n- `b:/./`{,2}",
    "- a\n  - b\n    - c\n- d\n\t\t- e",
    "1. one\n2. `n:/\\d+/`{2,}\n٣. arabic",
    "+ plus\n+ `p`{0,3}",
    "```\nbody\n```",
    "```{lang:/\\w+/}\n{body}\n```",
    "```  py  \n  {x:/a/}  \n```",
    "```unclosed\nbody\n",
    "```{}\n{}\n```",
    "| A | B |\n| --- | --- |\n| `a:/\\w+/` | `b` |{2}\n| x | y |",
    "| A |\n|---|\n| `a`{1,} |\n| b |",
    "| A | B |\n| :--- | ---: |\n| a \\| b | c |{1,x}",
    "| only header |",
    "> quoted `q:/\\w+/`\n> more",
    "> # Inner\n>\n> - q1\n> - q2",
    "> para one\n>\n> para two",
    "> > nested\n> ```\n> c\n> ```",
    "para `x`! tail\nsecond line",
    "`lit`!",
    "`a`!{1,2}",
    "`a`{1,2}!",
    "`a`{1,2}{3,4}",
    "`a`{3,1}",
    "`a`{2}",
    "`a`{,}",
    "`a`{x}",
    "`a:/(/`",
    "`bad matcher`",
    "`a` and `b`",
    "text `r`{1,2} more",
    "`unclosed",
    "*em `e:/x/` more* **st** *a **b** c*",
    "[t]({u:/h.*/}) ![{alt}]({src}) <http://x.org> <a@b.org> [x](y)",
    "\\`escaped\\` \\* \\[",
    "# `title:/(?i)doc.*/`",
    "`f:/(?x) a b/`",
    "`n:/x/\n`",
    "a < b",
    "",
    "\n\n",
]


def _fixture_code_spans() -> list[str]:
    """The code spans of FIXTURES.md's group-A constraint column, with
    the table's escapes undone."""
    out = []
    for line in (ROOT / "FIXTURES.md").read_text().splitlines():
        if not line.startswith("| A"):
            continue
        col = re.split(r"(?<!\\)\|", line)[2]
        for m in re.finditer(r"(`+)(.+?)(?<!\\)\1(?!`)", col):
            text = m.group(2)
            if len(m.group(1)) > 1:
                text = text[1:-1]
            out.append(text.replace("\\`", "`").replace("\\|", "|")
                       .replace("\\n", "\n"))
    return out


def schema_texts() -> list[str]:
    """Every schema text of the fixture, each once, in a fixed order."""
    sys.path[:0] = [str(ROOT), str(ROOT / "tools")]
    from flattener_golden import documents

    from mdvalidate_ray.corpus import flagship_schema_text

    conformance = [n.value for n in ast.walk(ast.parse(
        (ROOT / "tests" / "test_conformance.py").read_text()))
        if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    texts = [flagship_schema_text(), *conformance, *_fixture_code_spans(),
             *EXTRA, *documents()]
    return list(dict.fromkeys(texts))


def compiled(text: str):
    """``{"blocks": dump}`` or ``{"error": [kind, detail]}`` for one
    schema text."""
    from test_compile_golden import dump

    from mdvalidate_ray.schema.compiler import compile_schema
    from mdvalidate_ray.schema.spec import SchemaError

    try:
        return {"blocks": dump(compile_schema(text).blocks)}
    except SchemaError as e:
        return {"error": [e.kind, e.detail]}


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "tests")]
    rows = [[t, compiled(t)] for t in schema_texts()]
    if "--check" in argv:
        old = json.loads(FIXTURE.read_text())
        bad = [i for i, (a, b) in enumerate(zip(old, rows)) if a != b]
        print(len(bad), "of", len(old), "schemas differ:", bad)
        return 1 if bad or len(old) != len(rows) else 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(rows, ensure_ascii=False,
                                  separators=(",", ":")) + "\n")
    errors = sum("error" in r for _, r in rows)
    print(FIXTURE, len(rows), "schemas,", errors, "errors,",
          FIXTURE.stat().st_size, "bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
