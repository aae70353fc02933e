"""Markdown document → span-sequence flattener.

The reference parses input documents with tree-sitter-markdown (reference:
src/mdschema/validation/ts_utils.rs:97–108); our engine's input contract is
the flattened span table, so this module is the ingestion analog: it turns
real Markdown text into `(kind, text, media_ref, offset)` span rows with the
same flattening conventions the evaluator expects
(:mod:`mdvalidate_ray.evaluate.evaluator` module docstring).

This makes the CLI a drop-in analog of the reference's ``mdv schema input``:
markdown files in, verdict + violations + captures out.  The module is pure
Python (``re`` and the schema compiler's patterns): the one-document CLI
imports it, and a one-document call loads no numpy, pyarrow or Ray.  The
corpus-scale ``map_batches`` body that flattens a raw-text column into the
spans shape is :func:`mdvalidate_ray.corpus.markdown_batch_to_documents`.
"""

from __future__ import annotations

import re

from mdvalidate_ray.schema.compiler import (
    _AUTOLINK_RE,
    _DELIM_CELL_RE,
    _HEADING_RE,
    _LIST_RE,
    _indent_depth,
    _is_ruler,
    _quote_is_blocky,
    split_cells_escaped,
)

_LINK_RE = re.compile(r"(!?)\[([^\]]*)\]\(([^)]*)\)")
_REFLINK_RE = re.compile(r"(!?)\[([^\]]*)\]\[([^\]]*)\]")
_LINKDEF_RE = re.compile(r"^\s*\[([^\]]+)\]:\s*(\S+)(?:\s+.*)?$")
_CODE_SPAN_RE = re.compile(r"`([^`]*)`")
_STRONG_RE = re.compile(r"\*\*([^*]+)\*\*")
# nested-aware: `*a **b** c*` matches as ONE emphasis spanning the inner
# strong (whose markers are stripped when the span text is emitted — the
# evaluator compares flattened text, matching the schema compiler's
# _flatten_unit)
_EM_RE = re.compile(r"\*((?:[^*\n]|\*\*[^*\n]+\*\*)+)\*(?!\*)")
_SETEXT_RE = re.compile(r"^(=+|-+)\s*$")
# block-level HTML opener (CommonMark type-6-ish): tag, closing tag,
# comment/declaration or processing instruction at ≤3 spaces indent
_HTML_BLOCK_RE = re.compile(r"^\s{0,3}<(?:[A-Za-z][A-Za-z0-9-]*[\s/>]"
                            r"|/[A-Za-z]|!|\?)")

# Exact prefilters.  A block regex runs only when its line's first
# non-blank character can open that block (`#` a heading, `-*_` a ruler,
# `-*+` or a decimal digit -- ``\d`` matches any -- a list item, `<` an
# HTML block, `=-` a setext underline), and an inline regex only when its
# opening character occurs in the text: lines and texts that fail the
# test flatten exactly as they would after the regex.  (opening
# character, regex) pairs, in the order ties at one start position
# resolve; _REFLINK_RE follows them only when link definitions exist.
_INLINE_RES = (("[", _LINK_RE), ("`", _CODE_SPAN_RE), ("*", _STRONG_RE),
               ("*", _EM_RE), ("<", _AUTOLINK_RE))


def _indented(s: str) -> bool:
    return s[:2] == "  " or s[:1] == "\t"


def _list_match(line: str, s: str):
    """``_LIST_RE.match(line)``, skipped when ``line``'s stripped form
    ``s`` cannot start a list item."""
    if s and (s[0] in "-*+" or s[0].isdecimal()):
        return _LIST_RE.match(line)
    return None


def _inline_matches(text: str, linkdefs: dict | None) -> list:
    found = []
    for ch, rx in _INLINE_RES:
        if ch in text:
            found += rx.finditer(text)
    if linkdefs and "[" in text:
        found += _REFLINK_RE.finditer(text)
    return found


def _flatten_inline(text: str, add, linkdefs: dict | None = None) -> None:
    """Emit inline child spans for one textual container.  ``linkdefs``
    resolves reference-style links ``[text][label]`` / ``[text][]``
    against the document's link reference definitions."""
    found = _inline_matches(text, linkdefs)
    if not found:
        if text:
            add("text", text)
        return
    pos = 0
    tokens = []
    for m in sorted(found, key=lambda m: m.start()):
        if m.start() < pos:
            continue  # overlapping (e.g. * inside **) — keep first match
        tokens.append(m)
        pos = m.end()
    pos = 0
    for m in tokens:
        if m.start() > pos:
            add("text", text[pos:m.start()])
        if m.re is _LINK_RE:
            kind = "image" if m.group(1) else "link"
            add(kind, m.group(2), media_ref=m.group(3))
        elif m.re is _REFLINK_RE:
            kind = "image" if m.group(1) else "link"
            label = (m.group(3) or m.group(2)).lower()
            add(kind, m.group(2), media_ref=linkdefs.get(label, ""))
        elif m.re is _AUTOLINK_RE:
            url = m.group(1)
            add("link", url,
                media_ref=url if "://" in url else f"mailto:{url}")
        elif m.re is _CODE_SPAN_RE:
            add("code_span", m.group(1))
        elif m.re is _STRONG_RE:
            add("strong_emphasis", m.group(1))
        else:
            # strip interior strong markers: flattened-text compare
            add("emphasis", m.group(1).replace("**", ""))
        pos = m.end()
    if pos < len(text):
        add("text", text[pos:])


def _collect_linkdefs(all_lines: list[str]) -> tuple[set, dict]:
    """Pass 1: find link reference definitions ('[label]: url').

    CODE-AWARE: lines inside fenced code blocks or 4-space-indented code
    are never definitions (stripping them corrupted code bodies), and a
    definition cannot interrupt a paragraph (CommonMark) — it must follow
    a blank line, the document start, or another definition.  Returns the
    set of recognized definition line indices plus the label → url map."""
    def_idx: set[int] = set()
    defs: dict[str, str] = {}
    in_fence = False
    prev_blank_or_def = True
    for idx, raw in enumerate(all_lines):
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            prev_blank_or_def = False
            continue
        if in_fence or raw.startswith("    "):
            prev_blank_or_def = not stripped
            continue
        # a definition line starts with '[', so it never opens a list
        dm = stripped.startswith("[") and _LINKDEF_RE.match(raw)
        if dm and prev_blank_or_def:
            def_idx.add(idx)
            defs.setdefault(dm.group(1).lower(), dm.group(2))
            continue                       # a def keeps prev_blank_or_def
        prev_blank_or_def = not stripped
    return def_idx, defs


def markdown_to_spans(text: str,
                      _outer_linkdefs: dict | None = None) -> list[dict]:
    """One markdown document → span dicts (kind, text, media_ref, offset).

    Each span also carries a ``line`` key (1-based source line of the
    block it belongs to; a table cell's is its row's) for the CLI's
    source-context error reports; the Arrow documents schema ignores it
    (struct conversion drops unknown keys), so the storage contract is
    unchanged.

    ``_outer_linkdefs``: internal — definitions inherited from the
    enclosing document when flattening a nested quote body (reference
    definitions are document-global)."""
    spans: list[dict] = []
    ln = 1

    def add(kind, t="", media_ref=""):
        spans.append({"kind": kind, "text": t, "media_ref": media_ref,
                      "offset": len(spans), "line": ln})

    lines = text.split("\n")
    if "]:" in text:                      # every definition holds "]:"
        def_idx, linkdefs = _collect_linkdefs(lines)
    else:
        def_idx, linkdefs = (), {}
    if _outer_linkdefs:
        linkdefs = {**_outer_linkdefs, **linkdefs}
    if def_idx:
        orig_line = [k + 1 for k in range(len(lines)) if k not in def_idx]
        lines = [raw for k, raw in enumerate(lines) if k not in def_idx]
    else:
        orig_line = range(1, len(lines) + 1)
    strip = [raw.strip() for raw in lines]
    i, n = 0, len(lines)
    while i < n:
        s = strip[i]
        if not s:
            i += 1
            continue
        ln = orig_line[i]
        line = lines[i]
        c = s[0]
        hm = c == "#" and _HEADING_RE.match(line)
        if hm:
            body = hm.group(2).strip()
            # rich inline content (links/images/code spans/emphasis)
            # becomes CHILD spans, mirroring the reference's heading
            # children (tests/textual_container.rs heading_link_and_…,
            # tests/links.rs link_inside_heading); plain text stays in
            # the heading span itself (the compact common case)
            if _inline_matches(body, linkdefs):
                add(f"heading{len(hm.group(1))}", "")
                _flatten_inline(body, add, linkdefs)
            else:
                add(f"heading{len(hm.group(1))}", body)
            i += 1
            continue
        lm = _list_match(line, s)
        if c in "-*_" and _is_ruler(s) and not lm:
            add("ruler")
            i += 1
            continue
        if c == "`" and s.startswith("```"):
            add("code_lang", s[3:].strip())
            body = []
            i += 1
            while i < n and not strip[i].startswith("```"):
                body.append(lines[i])
                i += 1
            i += 1
            add("code_body", "\n".join(body))
            continue
        if lm:
            # Adjacent sibling lists are DISTINCT list nodes in the
            # reference's tree (tree-sitter gives each its own node;
            # lists.rs validates them separately).  Per CommonMark a new
            # list starts when the top-level marker CLASS changes
            # ("- a" then "* b" or "1. c"); a blank line between items of
            # the same marker continues one (loose) list.  Emit a
            # ``list_break`` marker span at each boundary so the flat
            # encoding does not merge siblings.
            last_cls = None
            while i < n:
                t = strip[i]
                m2 = _list_match(lines[i], t)
                if not m2:
                    # hanging-indent continuation: a non-blank line indented
                    # ≥2 spaces continues the previous item's paragraph
                    # (CommonMark soft break, joined with a space)
                    if (t and lines[i][:2] == "  "
                            and spans[-1]["kind"] in
                            ("list_item", "ordered_list_item")):
                        spans[-1]["text"] += " " + t
                        i += 1
                        continue
                    if not t:
                        # blank line: the list continues if the next
                        # non-blank line is another list item, or an
                        # indented paragraph belonging to the SAME item
                        # (a multi-paragraph/loose item).  The reference
                        # validates only an item's FIRST paragraph
                        # (lists.rs:568–581: marker → next sibling must
                        # be THE paragraph), so extra item paragraphs
                        # flatten as validation-transparent `item_extra`
                        # spans — preserved in the data, ignored by the
                        # block walk, verdicts match the reference.
                        j = i + 1
                        while j < n and not strip[j]:
                            j += 1
                        if j < n and _list_match(lines[j], strip[j]):
                            i = j
                            continue
                        if j < n and _indented(lines[j]) and \
                                spans[-1]["kind"] in (
                                    "list_item", "ordered_list_item",
                                    "item_extra"):
                            para = []
                            i = j
                            while i < n and strip[i] and \
                                    _indented(lines[i]) and \
                                    not _list_match(lines[i], strip[i]):
                                para.append(strip[i])
                                i += 1
                            add("item_extra", " ".join(para))
                            continue
                    break
                ln = orig_line[i]
                ws, marker, item = m2.groups()
                depth = _indent_depth(ws) if ws else 0
                cls = "1." if marker[0].isdigit() else marker[0]
                if depth == 0:
                    if last_cls is not None and last_cls != cls:
                        add("list_break")
                    last_cls = cls
                add("ordered_list_item" if cls == "1." else "list_item",
                    "\t" * depth + item)
                i += 1
            continue
        if c == ">":
            content = []
            first = i
            while i < n and strip[i].startswith(">"):
                content.append(lines[i].lstrip()[1:].lstrip())
                i += 1
            add("quote")
            if _quote_is_blocky(content):
                # nested blocks inside the quote: flatten recursively
                # (inheriting the document's link definitions) and close
                # with a quote_end marker so the evaluator can scope the
                # body (reference: block_quote children are full block
                # nodes, quotes.rs:63–66); each nested span keeps its own
                # source line
                for sp in markdown_to_spans("\n".join(content),
                                            _outer_linkdefs=linkdefs):
                    ln = orig_line[first + sp["line"] - 1]
                    add(sp["kind"], sp["text"], sp["media_ref"])
                ln = orig_line[first]
            else:
                _flatten_inline("\n".join(content), add, linkdefs)
            # EVERY quote body closes with quote_end so the evaluator's
            # nesting-aware body scan never miscounts an inline quote
            # nested inside a blocky one
            add("quote_end")
            continue
        if c == "|":
            rows = []
            while i < n and strip[i].startswith("|"):
                # escaped pipes (\|) are literal characters inside cells
                rows.append((orig_line[i], split_cells_escaped(strip[i])))
                i += 1
            for cell in rows[0][1]:
                add("table_header_cell", cell)
            body_rows = rows[1:]
            if body_rows and all(
                    cell.startswith((":", "-"))
                    and _DELIM_CELL_RE.match(cell)
                    for cell in body_rows[0][1]):
                body_rows = body_rows[1:]
            for ln, row in body_rows:
                for cell in row:
                    add("table_cell", cell)
            continue
        # HTML block: one OPAQUE span holding the raw lines up to the
        # next blank line — the tree-sitter taxonomy's html_block node
        # (reference ts_types.rs:33–203); the evaluator treats it like
        # any other block kind (schema without an html_block span at
        # that position reports NodeTypeMismatch, matching the
        # reference's dispatch fallback)
        if c == "<" and _HTML_BLOCK_RE.match(line):
            body = []
            while i < n and strip[i]:
                body.append(lines[i])
                i += 1
            add("html_block", "\n".join(body))
            continue
        # indented code block (4-space indent, CommonMark)
        if line.startswith("    "):
            body = []
            while i < n and (lines[i].startswith("    ") or not strip[i]):
                if not strip[i]:
                    # blank line continues the block only if more indented
                    # code follows
                    j = i
                    while j < n and not strip[j]:
                        j += 1
                    if j >= n or not lines[j].startswith("    "):
                        break
                    body.extend("" for _ in range(j - i))
                    i = j
                    continue
                body.append(lines[i][4:])
                i += 1
            add("code_lang", "")
            add("code_body", "\n".join(body))
            continue
        # paragraph (a trailing setext underline turns it into a heading);
        # its first line opens no other block, so only the lines after it
        # are tested for an interrupting block
        para = []
        while True:
            # hard line break: a trailing backslash is a break MARKER,
            # not text — drop it (the newline join already preserves the
            # break; trailing double-spaces are consumed by strip())
            if s.endswith("\\") and not s.endswith("\\\\"):
                s = s[:-1].rstrip()
            para.append(s)
            i += 1
            if i == n:
                break
            s = strip[i]
            if not s:
                break
            c = s[0]
            if (c in ">|" or (c == "`" and s.startswith("```"))
                    or (c == "#" and _HEADING_RE.match(lines[i]))
                    or _list_match(lines[i], s)
                    # a "---" ruler is also a setext underline, below
                    or (c in "*_" and _is_ruler(s))
                    or (c == "<" and _HTML_BLOCK_RE.match(lines[i]))
                    or (c in "=-" and _SETEXT_RE.match(s))):
                break
        if i < n and s and s[0] in "=-" and _SETEXT_RE.match(s):
            add("heading1" if s[0] == "=" else "heading2", " ".join(para))
            i += 1
            continue
        add("paragraph")
        _flatten_inline("\n".join(para), add, linkdefs)
    return spans
