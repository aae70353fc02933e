"""Golden fixture for the markdown flattener
(``tests/data/flattener_golden.json``).

The fixture pins ``sources.markdown.markdown_to_spans`` byte for byte:
about 200 seeded documents, each a composition of the construct snippets
below, stored with their spans as compact ``[kind, text, media_ref,
offset, line]`` rows.  The first documents put a paragraph line directly
in front of a block of every block-start character, and a heading with a
reference link in front of its definition, so that dropping any
character from one of the flattener's prefilters changes some
document's spans.

    python3 tools/flattener_golden.py          # rewrite the fixture
    python3 tools/flattener_golden.py --check  # report documents that differ

``compositions(seed, n)`` yields the same kind of documents for probes
that need more of them than the fixture holds.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "flattener_golden.json"

SNIPPETS = [
    # ATX and setext headings, plain and with inline content
    "# Title", "## Sub *em*", "### Code `x` head", "#### [Link](http://l.org) h",
    "###### Six", "####### seven", "#NoSpace", "# <http://h.org/x>",
    "## ref [t][d] head", "#\ttab heading", "Title\n=====", "Sub\n---",
    "two\nline setext\n===",
    # paragraphs and inline content
    "para text", "plain words only", "*em* and **st**", "*a **b** c*",
    "**bold** tail", "see [x](http://u.org) and ![img](asset-1)",
    "text `span` end", "`open code", "mail <a@b.org> or <http://x.org/p?q=1>",
    "a < b > c", "<notatag and text", "See [x][d] now",
    "ref [y][] and [nodef][zz]", "[bracket] only", "hard\\\nbreak",
    "double\\\\\nslash", "trailing  \nspaces", "lazy\n    indented tail",
    "x ]: not a def", "5 apples", "-dash", "+plus", "_under_", "=eq",
    "café “quoted” — dash", "\u00a0# nbsp-led",
    "\u3000- wide-space item",
    # lists: markers, nesting, loose items, marker switches
    "- item a\n- item b", "* star a\n* star b", "+ plus a", "1. one\n2. two",
    "10. ten\n11. eleven", "٣. arabic digit", "- wrap\n  cont",
    "- loose\n\n  extra\n\n- next", "- a\n\t- tab nested\n\t\t- deeper",
    "- a\n  - two-space nested", "- a\n* b\n1. c\n- d",
    "- [x](http://i.org) *em* item", "-    wide gap", "- p\n\n\n  far extra",
    # thematic breaks
    "---", "***", "___", "- - -", "* * *", "----  ",
    # quotes, inline and blocky
    "> quoted", "> quoted *em* [l](http://q.org)",
    "> # Inner\n>\n> - q1\n> - q2", "> > deep", "> | A |\n> | --- |\n> | 1 |",
    "> para one\n>\n> para two", "> see [t][q]\n>\n> [q]: http://q.org",
    "  > indented quote", "> ```\n> quoted code\n> ```",
    # code: fenced, indented, definitions inside code
    "```py\ncode\n```", "```\n[f]: http://in-fence\n```", "    indented code",
    "    [e]: http://indented", "    a\n\n    b", "```unclosed\nbody",
    # tables: alignment rows, escaped pipes, headers only
    "| A | B |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |",
    "| L | C | R |\n| :--- | :---: | ---: |\n| a \\| b | c | d |",
    "| X |\n| -- |\n| y |", "|A|B|\n|---|---|\n|1|2|", "| only header |",
    "| `c` | *e* |\n| --- | --- |\n| [l](u) | \\ |",
    # HTML blocks
    "<div>\nblock\n</div>", "<!-- comment -->", "</p>", "<?php x ?>",
    "   <span>three</span>", "<a href='x'>inline html</a> text",
    # link reference definitions
    "[d]: http://u", "[D]: http://upper \"title\"", "[q]: http://q.org",
    "[t]: http://t.org\n[zz]: http://zz.org", "",
]

# a paragraph line directly followed by a block of every block-start
# character (and by lines that start with one but open no block), then
# by a one-line quote of each block that makes a quote body blocky
INTERRUPTS = [
    "# H", "###### H6", "- item", "* item", "+ item", "1. one", "0. zero",
    "9. nine", "> q", "| A | B |", "```\ncode\n```", "<div>x</div>", "===",
    "---", "***", "___", "    indented", "#nospace", "-dash", "5 apples",
    "<notatag", "=eq", "--", "\t- tabbed item",
    "> # Quoted heading", "> - q item", "> * q star", "> + q plus", "> ___",
    "> 7. q ordered", "> ```\n> q code", "> > q nested", "> | q | table |",
]


def compose(rng: random.Random, k: int) -> str:
    parts = [rng.choice(SNIPPETS) for _ in range(k)]
    out = parts[0]
    for p in parts[1:]:
        out += rng.choice(("\n\n", "\n\n", "\n\n", "\n", "\n\n\n")) + p
    return out


def compositions(seed: int, n: int, max_parts: int = 8):
    rng = random.Random(seed)
    for _ in range(n):
        yield compose(rng, rng.randint(1, max_parts))


def documents(seed: int = 6, n: int = 200) -> list[str]:
    docs = [f"para line\n{b}" for b in INTERRUPTS]
    docs.append("## ref [t][d] head\n\n[d]: http://u")
    return docs + list(compositions(seed, n - len(docs), max_parts=6))


def span_rows(spans: list[dict]) -> list[list]:
    return [[s["kind"], s["text"], s["media_ref"], s["offset"], s["line"]]
            for s in spans]


def main(argv: list[str]) -> int:
    sys.path.append(str(ROOT))
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    rows = [[md, span_rows(markdown_to_spans(md))] for md in documents()]
    if "--check" in argv:
        old = json.loads(FIXTURE.read_text())
        bad = [i for i, (a, b) in enumerate(zip(old, rows)) if a != b]
        print(len(bad), "of", len(old), "documents differ:", bad)
        return 1 if bad or len(old) != len(rows) else 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(rows, ensure_ascii=False,
                                  separators=(",", ":")) + "\n")
    print(FIXTURE, len(rows), "documents", FIXTURE.stat().st_size, "bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
