"""mdschema → :class:`CompiledSchema` compiler.

Re-implements (from scratch, in Python, without tree-sitter) the schema
grammar of the reference engine:

* inline code spans are matchers: `` `id:/regex/` `` or bare `` `id` ``
  (reference: src/mdschema/validation/matchers/matcher.rs:175–208);
* suffix "extras" immediately after the closing backtick add repetition
  ``{min,max}`` or literal-code ``!`` semantics; mixing them is an error
  (matcher_extras.rs:124–196, 231–252);
* curly matchers ``{id:/re/}`` / ``{id}`` are allowed in link destinations,
  image alt text and code-fence info strings
  (walkers/helpers/curly_matchers.rs:11–29);
* everything else is literal structure that must match exactly (README.md:7–15).

Schema-authoring errors are compile-time (reference errors.rs:191–263) and
raise :class:`SchemaError` before any data is read.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from mdvalidate_ray.schema.spec import (
    UNBOUNDED,
    CodeBlock,
    CodeLiteral,
    CompiledSchema,
    Emphasis,
    Heading,
    LinkPart,
    ListItemTemplate,
    ListTemplate,
    Literal,
    Matcher,
    MatcherPart,
    Paragraph,
    Quote,
    RepeatedParagraph,
    Ruler,
    SchemaError,
    Strong,
    TableRowTemplate,
    TableTemplate,
)

_ID_RE = re.compile(r"^[A-Za-z_][\w-]*$")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_LIST_RE = re.compile(r"^(\s*)([-*+]|\d+\.)\s+(.*)$")
_REP_RE = re.compile(r"^\{(\d*),(\d*)\}$|^\{(\d+)\}$")
_CODE_MATCHER_RE = re.compile(r"^([A-Za-z_][\w-]*):/(.*)/$", re.S)
_CURLY_MATCHER_RE = re.compile(r"^\{([A-Za-z_][\w-]*):/(.*)/\}$", re.S)
_CURLY_ID_RE = re.compile(r"^\{([A-Za-z_][\w-]*)\}$")
# every character at which parse_inline's scan can leave plain text
_INLINE_SPECIAL_RE = re.compile(r"[\\`!\[<*]")
# a container that is exactly one regex or bare matcher and at most one
# repetition extra (the parts _CODE_MATCHER_RE / _ID_RE / _REP_RE read)
_ONE_MATCHER_RE = re.compile(
    r"`([A-Za-z_][\w-]*)(?::/([^`]*)/)?`(?:\{(\d*),(\d*)\}|\{(\d+)\})?")


def _repetition(lo: Optional[str], hi: Optional[str],
                exact: Optional[str]) -> tuple[int, int]:
    """``(min, max)`` of a ``{m,n}`` / ``{n}`` extra from the groups of
    ``_REP_RE``; max < min is a schema error."""
    if exact is not None:
        n = int(exact)
        return n, n
    lo = int(lo) if lo else 0
    hi = int(hi) if hi else UNBOUNDED
    if hi != UNBOUNDED and hi < lo:
        raise SchemaError(SchemaError.INVALID_EXTRAS,
                          f"max < min in {{{lo},{hi}}}")
    return lo, hi


def _parse_extras(s: str, pos: int) -> tuple[bool, Optional[tuple[int, int]], int]:
    """Parse matcher extras starting at ``s[pos]`` (right after the closing
    backtick).  Returns ``(is_literal, (min,max)|None, new_pos)``.

    Mirrors MatcherExtras::try_from_post_matcher_str
    (matcher_extras.rs:124–196): ``!`` and ``{m,n}`` may not be combined
    (:231–252)."""
    is_literal = False
    rep = None
    while pos < len(s):
        ch = s[pos]
        if ch == "!":
            if is_literal or rep is not None:
                raise SchemaError(SchemaError.INVALID_EXTRAS,
                                  "literal-code `!` may not combine with other extras")
            is_literal = True
            pos += 1
        elif ch == "{":
            end = s.find("}", pos)
            if end == -1:
                break  # not an extras group — leave for literal text
            m = _REP_RE.match(s[pos:end + 1])
            if m is None:
                break  # `{...}` that isn't a repetition — literal text
            if is_literal:
                raise SchemaError(SchemaError.INVALID_EXTRAS,
                                  "literal-code `!` may not combine with {min,max}")
            if rep is not None:
                raise SchemaError(SchemaError.INVALID_EXTRAS, "duplicate {min,max}")
            rep = _repetition(*m.groups())
            pos = end + 1
        else:
            break
    return is_literal, rep, pos


def _matcher(cid: str, pattern: Optional[str],
             rep: Optional[tuple[int, int]], curly: Optional[str]) -> Matcher:
    """A regex (or, with no ``pattern``, bare) matcher repeated ``rep``
    times.  The regex compiles here, once; one that does not compile is a
    schema error naming the pattern, or the ``curly`` text it came from."""
    lo, hi = rep or (1, 1)
    try:
        return Matcher(cid, pattern, lo, hi, rep is not None)
    except re.error as e:
        where = f"in {curly}" if curly else f"/{pattern}/"
        raise SchemaError(SchemaError.MATCHER_ERROR,
                          f"invalid regex {where}: {e}") from e


def _parse_code_span(content: str, rep: Optional[tuple[int, int]]) -> Matcher:
    """Compile the contents of one schema inline-code span into a Matcher —
    Matcher::try_from_pattern_and_suffix_str (matcher.rs:175–208, 306–337)."""
    m = _CODE_MATCHER_RE.match(content)
    if m:
        return _matcher(m.group(1), m.group(2), rep, None)
    if _ID_RE.match(content):
        return _matcher(content, None, rep, None)  # MatcherKind::All
    raise SchemaError(SchemaError.MATCHER_ERROR,
                      f"malformed matcher `{content}`")


def parse_curly(text: str) -> Union[Literal, Matcher]:
    """``{id:/re/}`` / ``{id}`` → Matcher, else Literal — the curly-matcher
    grammar used in link destinations, alt text and code-fence info strings
    (curly_matchers.rs:11–29)."""
    m = _CURLY_MATCHER_RE.match(text)
    if m:
        return _matcher(m.group(1), m.group(2), None, text)
    m = _CURLY_ID_RE.match(text)
    if m:
        return Matcher(m.group(1))
    return Literal(text)


def _find_em_close(text: str, start: int) -> int:
    """Index of the ``*`` closing an emphasis opened just before ``start``,
    treating any interior ``**…**`` strong run as opaque."""
    j, n = start, len(text)
    while j < n:
        if text[j] == "*":
            if j + 1 < n and text[j + 1] == "*":
                k = text.find("**", j + 2)
                if k == -1:
                    return -1
                j = k + 2
                continue
            return j
        j += 1
    return -1


def parse_inline(text: str, allow_repeating: bool = False) -> list:
    """Parse one textual container's content into inline parts.

    ``allow_repeating``: in list-item context repeated matchers are legal
    (reference lists.rs); inside a plain paragraph a repeated matcher is only
    legal when it is ALONE (→ RepeatedParagraph, handled by the caller), else
    SchemaError::RepeatingMatcherInTextContainer (containers.rs:67–233).

    Two shapes skip the character scan: a container without any special
    character is one literal, and a container that is exactly one matcher
    plus a repetition extra is that one part (the container rules cannot
    fail on a single part).
    """
    if text[:1] == "`":
        m = _ONE_MATCHER_RE.fullmatch(text)
        if m:
            cid, pattern, lo, hi, exact = m.groups()
            rep = (None if lo is None and exact is None
                   else _repetition(lo, hi, exact))
            return [MatcherPart(_matcher(cid, pattern, rep, None))]
    elif _INLINE_SPECIAL_RE.search(text) is None:
        return [Literal(text)] if text else []
    parts: list = []
    i, n = 0, len(text)
    buf: list[str] = []

    def flush():
        if buf:
            parts.append(Literal("".join(buf)))
            buf.clear()

    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            buf.append(text[i + 1])
            i += 2
            continue
        if ch == "`":
            end = text.find("`", i + 1)
            if end == -1:
                raise SchemaError(SchemaError.UNCLOSED_MATCHER,
                                  f"unclosed ` in {text!r}")
            content = text[i + 1:end]
            is_literal, rep, new_i = _parse_extras(text, end + 1)
            part = CodeLiteral(content) if is_literal \
                else MatcherPart(_parse_code_span(content, rep))
            flush()
            parts.append(part)
            i = new_i
            continue
        if ch == "!" and i + 1 < n and text[i + 1] == "[":
            part, i2 = _parse_link(text, i + 1, is_image=True)
            if part is not None:
                flush()
                parts.append(part)
                i = i2
                continue
        if ch == "[":
            part, i2 = _parse_link(text, i, is_image=False)
            if part is not None:
                flush()
                parts.append(part)
                i = i2
                continue
        if ch == "<":
            m = _AUTOLINK_RE.match(text, i)
            if m:
                # autolink <https://…> / <user@host>: a link node whose
                # text AND destination are the URI (tree-sitter
                # uri_autolink / email_autolink; CommonMark §6.5)
                url = m.group(1)
                dest = url if "://" in url else f"mailto:{url}"
                flush()
                parts.append(LinkPart(text=Literal(url),
                                      dest=Literal(dest)))
                i = m.end()
                continue
        if ch == "*":
            strong = i + 1 < n and text[i + 1] == "*"
            delim = "**" if strong else "*"
            if strong:
                end = text.find(delim, i + len(delim))
            else:
                # nested-aware close: `*a **b** c*` must close at the LAST
                # star, skipping the inner strong's delimiters
                end = _find_em_close(text, i + 1)
            if end != -1:
                inner = parse_inline(text[i + len(delim):end])
                flush()
                parts.append(Strong(inner) if strong else Emphasis(inner))
                i = end + len(delim)
                continue
        buf.append(ch)
        i += 1
    flush()

    # container-level schema rules (ContainerVsContainerValidator,
    # containers.rs:67–233): at most one non-literal matcher per container;
    # repeating matchers forbidden in text containers unless alone/list ctx.
    matchers = [p for p in parts if isinstance(p, MatcherPart)]
    if len(matchers) > 1:
        raise SchemaError(SchemaError.MULTIPLE_MATCHERS,
                          f"{len(matchers)} matchers in one container")
    for p in matchers:
        if p.matcher.is_repeating and not allow_repeating and len(parts) > 1:
            raise SchemaError(SchemaError.REPEATING_IN_TEXT,
                              "repeating matcher inside a text container")
    return parts


# CommonMark autolink (§6.5): absolute URI or bare email between < >
_AUTOLINK_RE = re.compile(
    r"<([A-Za-z][A-Za-z0-9+.-]{1,31}://[^\s<>]+"
    r"|[^\s<>@]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,})>")


def _parse_link(text: str, i: int, is_image: bool):
    """Try to parse ``[text](dest)`` at ``text[i]`` (``i`` at '[')."""
    close = text.find("]", i)
    if close == -1 or close + 1 >= len(text) or text[close + 1] != "(":
        return None, i
    close_paren = text.find(")", close + 2)
    if close_paren == -1:
        return None, i
    alt = text[i + 1:close]
    dest = text[close + 2:close_paren]
    start = i - 1 if is_image else i
    assert start >= 0
    return (
        LinkPart(text=parse_curly(alt) if alt.startswith("{") else Literal(alt),
                 dest=parse_curly(dest) if dest.startswith("{") else Literal(dest),
                 is_image=is_image),
        close_paren + 1,
    )


# ---------------------------------------------------------------------------
# Block-level parsing
# ---------------------------------------------------------------------------

def _indent_depth(ws: str) -> int:
    """List nesting depth from leading whitespace: tab or 2 spaces per level
    (the flattening analog of the reference's nested tight_list subtrees)."""
    return ws.count("\t") + ws.replace("\t", "").count("  ")


def _compile_list(lines: list[tuple[int, bool, str, str]]) -> ListTemplate:
    """``lines`` = [(depth, ordered, marker, content)]; builds the nested
    ListTemplate.  Validation of repetition bounds mirrors lists.rs:151–162
    (unbounded repeater must be last)."""
    top = ListTemplate(lines[0][1], lines[0][2])
    stack: list[ListTemplate] = [top]
    depths: list[int] = [lines[0][0]]
    for depth, ordered, marker, content in lines:
        while len(stack) > 1 and depth < depths[-1]:
            stack.pop()
            depths.pop()
        if depth > depths[-1]:
            parent_item = stack[-1].items[-1]
            child = ListTemplate(ordered, marker)
            parent_item.children = child
            stack.append(child)
            depths.append(depth)
        stack[-1].items.append(ListItemTemplate(
            parse_inline(content, allow_repeating=True)))
    if len(lines) > 1:    # one item is last and has no nested list
        _check_unbounded_last(top)
    if len(top.items) == 1 and top.items[0].children is None:
        rm = top.items[0].repeat_matcher
        if rm is not None:
            top.fast = (rm, "ordered_list_item" if top.ordered
                        else "list_item")
    return top


def _check_unbounded_last(lst: ListTemplate) -> None:
    for idx, item in enumerate(lst.items):
        rm = item.repeat_matcher
        if rm is not None and rm.unbounded and idx != len(lst.items) - 1:
            raise SchemaError(SchemaError.REPEATING_UNBOUNDED,
                              "unbounded repeating matcher must be the last list item")
        if item.children is not None:
            _check_unbounded_last(item.children)


_UNESC_PIPE_RE = re.compile(r"(?<!\\)\|")


def split_cells_escaped(body: str) -> list[str]:
    """Split a table-row body on UNESCAPED pipes only: ``\\|`` is a
    literal pipe character inside a cell (reference: tree-sitter's table
    grammar honors the escape, ts_types.rs cell tokenization).  Schema
    and input unescape identically, so literal compare, matchers and
    captures all see the real ``|`` character."""
    escaped = "\\|" in body
    cells = list(map(str.strip, _UNESC_PIPE_RE.split(body) if escaped
                     else body.split("|")))
    if cells and not cells[0]:
        del cells[0]
    if cells and not cells[-1]:
        del cells[-1]
    return [c.replace("\\|", "|") for c in cells] if escaped else cells


def _split_table_row(line: str) -> tuple[list[str], str]:
    """Split a stripped ``| a | b |{m,n}`` into cell strings and the
    trailing extras (after the last unescaped pipe)."""
    last_pipe = line.rfind("|")
    while last_pipe > 0 and line[last_pipe - 1] == "\\":
        last_pipe = line.rfind("|", 0, last_pipe)
    extras = line[last_pipe + 1:].strip()
    body = line[:last_pipe]
    cells = split_cells_escaped(body) if body else []
    return cells, extras


_DELIM_CELL_RE = re.compile(r"^:?-{3,}:?$")


def _compile_table(lines: list[str]) -> TableTemplate:
    """``lines`` are the table's stripped lines."""
    header_cells, _ = _split_table_row(lines[0])
    table = TableTemplate(list(map(parse_inline, header_cells)))
    body = lines[1:]
    if body and all(map(_DELIM_CELL_RE.match, _split_table_row(body[0])[0])):
        body = body[1:]  # delimiter row is structural only (tables.rs:27–243)
    for line in body:
        cells, extras = _split_table_row(line)
        row = TableRowTemplate([parse_inline(c, allow_repeating=True)
                                for c in cells])
        if extras:
            m = _REP_RE.match(extras)
            if m is None:
                raise SchemaError(SchemaError.INVALID_EXTRAS,
                                  f"bad table-row extras {extras!r}")
            if m.group(3) is not None:
                row.min_rep = row.max_rep = int(m.group(3))
            else:
                row.min_rep = int(m.group(1)) if m.group(1) else 0
                row.max_rep = int(m.group(2)) if m.group(2) else UNBOUNDED
            row.repeated = True
        table.rows.append(row)
    for idx, row in enumerate(table.rows):
        if row.repeated and row.max_rep == UNBOUNDED and idx != len(table.rows) - 1:
            raise SchemaError(SchemaError.REPEATING_UNBOUNDED,
                              "unbounded repeated table row must be last")
    table.fast = _table_fast_path(table)
    return table


def _table_fast_path(table: TableTemplate) -> Optional[tuple]:
    """The walk's table fast path applies to literal header cells and one
    repeated row whose cells are each one matcher with its own capture
    id: ``(stripped header texts, matchers, columns, min_rep, max_rep)``,
    else None."""
    if len(table.rows) != 1 or not table.rows[0].repeated:
        return None
    row = table.rows[0]
    if not row.cells or len(row.cells) != len(table.header):
        return None
    header = []
    for cell in table.header:
        if len(cell) != 1 or not isinstance(cell[0], Literal):
            return None
        header.append(cell[0].text.strip())
    matchers = []
    for cell in row.cells:
        if len(cell) != 1 or not isinstance(cell[0], MatcherPart):
            return None
        matchers.append(cell[0].matcher)
    keys = [m.capture_id for m in matchers if m.capture_id]
    if len(set(keys)) != len(keys):
        # a capture id shared by two columns joins row by row in the
        # interpreter, not column by column
        return None
    return header, matchers, len(matchers), row.min_rep, row.max_rep


def _is_ruler(s: str) -> bool:
    """True when the non-blank stripped line ``s`` is a thematic break:
    three or more copies of one of ``-``, ``*``, ``_``."""
    return s[0] in "-*_" and len(s) > 2 and not s.strip(s[0])


def _opens_block(line: str, s: str) -> bool:
    """True when the non-blank ``line`` (``s`` stripped) opens a block and
    so ends a paragraph.  Each block opener has its own first
    non-blank character (a list marker may also be a decimal digit), so
    a regex runs only behind that exact test."""
    c = s[0]
    if c in ">|":
        return True
    if c == "#":
        return line[0] == "#" and _HEADING_RE.match(line) is not None
    if c == "`":
        return s.startswith("```")
    if _is_ruler(s):
        return True
    return (c in "-*+" or c.isdecimal()) and _LIST_RE.match(line) is not None


def _quote_is_blocky(content: list[str]) -> bool:
    """True when a quote body contains block-level constructs (nested
    blocks inside quotes validate recursively, like the reference's
    QuoteVsQuote → ContainerVsContainer delegation, quotes.rs:19–67)."""
    seen_text = blank_after_text = False
    for raw in content:
        s = raw.strip()
        if not s:
            blank_after_text = blank_after_text or seen_text
            continue
        if _opens_block(raw, s):
            return True
        if blank_after_text:
            return True          # multiple paragraphs
        seen_text = True
    return False


def compile_schema(text: str) -> CompiledSchema:
    """Compile mdschema ``text`` into a :class:`CompiledSchema`.

    The driver calls this once per run; the result ships to every evaluator
    actor (the Ray analog of "schema parsed once, immutable thereafter",
    validator.rs:59–62).  The result is ready to walk: every matcher holds
    its compiled regex and every list and table its fast-path info."""
    return CompiledSchema(_parse_blocks(text.split("\n")), text)


def _parse_blocks(lines: list[str]) -> list:
    """One scan over the schema lines: each line is stripped once and
    classified by its first non-blank character."""
    stripped = list(map(str.strip, lines))
    blocks: list = []
    i, n = 0, len(lines)
    while i < n:
        s = stripped[i]
        if not s:
            i += 1
            continue
        line, c = lines[i], s[0]
        if c == "#" and line[0] == "#":
            hm = _HEADING_RE.match(line)
            if hm:
                blocks.append(Heading(len(hm.group(1)),
                                      parse_inline(hm.group(2).strip())))
                i += 1
                continue
        elif c in "-*_" and _is_ruler(s):
            # never a list line: a list marker needs a blank after it
            blocks.append(Ruler())
            i += 1
            continue
        elif c == "`" and s.startswith("```"):
            info = s[3:].strip()
            start = i = i + 1
            while i < n and not stripped[i].startswith("```"):
                i += 1
            body_text = "\n".join(lines[start:i])
            i += 1  # closing fence
            body = body_text.strip()
            blocks.append(CodeBlock(
                parse_curly(info) if info else None,
                parse_curly(body) if body.startswith("{")
                else Literal(body_text)))
            continue
        elif c == ">":
            content = []
            while i < n and stripped[i][:1] == ">":
                line = lines[i]
                content.append(line[line.find(">") + 1:].lstrip())
                i += 1
            if _quote_is_blocky(content):
                # nested blocks inside the quote: compile recursively
                # (reference QuoteVsQuote delegates the quote's children
                # to container validation, quotes.rs:63–66)
                blocks.append(Quote(inline=[],
                                    blocks=_parse_blocks(content)))
            else:
                blocks.append(Quote(inline=parse_inline("\n".join(content))))
            continue
        elif c == "|":
            start = i
            while i < n and stripped[i][:1] == "|":
                i += 1
            blocks.append(_compile_table(stripped[start:i]))
            continue
        if c in "-*+" or c.isdecimal():
            items: list[tuple[int, bool, str, str]] = []
            while i < n:
                cj = stripped[i][:1]
                m = (cj and (cj in "-*+" or cj.isdecimal())
                     and _LIST_RE.match(lines[i]))
                if not m:
                    break
                marker = m.group(2)
                ws = m.group(1)
                items.append((_indent_depth(ws) if ws else 0,
                              marker[0].isdigit(), marker, m.group(3)))
                i += 1
            if items:
                blocks.append(_compile_list(items))
                continue
        # paragraph: consecutive non-blank lines that open no block (the
        # first line opened none above)
        start = i = i + 1
        while i < n and stripped[i] and not _opens_block(lines[i],
                                                         stripped[i]):
            i += 1
        parts = parse_inline(s if i == start else
                             "\n".join(stripped[start - 1:i]),
                             allow_repeating=True)
        if (len(parts) == 1 and isinstance(parts[0], MatcherPart)
                and parts[0].matcher.had_min_max):
            # `id`{m,n} alone in a paragraph → repeated-paragraph semantics
            # (containers.rs:270–378, detection 405–437)
            blocks.append(RepeatedParagraph(parts[0].matcher))
        else:
            for p in parts:
                if isinstance(p, MatcherPart) and p.matcher.is_repeating:
                    raise SchemaError(
                        SchemaError.REPEATING_IN_TEXT,
                        "repeating matcher must be alone in its paragraph")
            blocks.append(Paragraph(parts))
    return blocks
