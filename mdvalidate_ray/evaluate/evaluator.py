"""Span-sequence constraint evaluator — the engine's conformance core.

One pure function :func:`evaluate_spans` reproduces the semantics of the
reference's ten per-node validators (reference:
src/mdschema/validation/walkers/validators/mod.rs:1–34) over the *flattened*
document representation mandated by the input contract:
``spans: list<struct<kind, text, media_ref, offset>>``.

Flattening conventions (the tabular analog of the reference's tree-sitter
tree; the synthetic corpus generator in :mod:`mdvalidate_ray.corpus` emits
exactly this shape):

* ``headingN``            — one span, ``text`` = heading content
* ``paragraph`` / ``quote`` — a zero-text marker span followed by its child
  inline spans (``text``, ``emphasis``, ``strong_emphasis``, ``code_span``,
  ``link``, ``image``); links/images carry the destination in ``media_ref``
* ``code_lang`` + ``code_body`` — a fenced code block
* ``list_item`` / ``ordered_list_item`` — ``text`` = ``"\t" * depth +
  content``; leading tabs encode nesting depth (markdown nesting IS
  indentation, so the flattening is faithful)
* ``table_header_cell`` × C then ``table_cell`` row-major (C columns)
* ``ruler`` — zero-text span

Per-row invariant vs the reference: span-sequence equality on (kind, text,
media_ref, order) — the check the reference performs node-by-node via
compare_node_kinds (kind equality + heading-level + list-marker classing,
walkers/helpers/compare_node_kinds.rs:20–99), compare_text_contents (literal
equality or ^-anchored regex, compare_text_contents.rs:22–120) and link
destination equality (validators/links.rs:216–260).  Table cells compare
whitespace-trimmed (ts_utils.rs:15–24).  Captures follow join_values
semantics — object key-union, array concat (utils.rs:8–20) — including the
nested-list "unpack same-id" rule (validators/lists.rs:343–390).

Rows are complete documents, matching the reference's authoritative EOF pass
(validator.rs:161–168); the streaming partial-match tolerances are
deliberately out of scope for the batch engine (SURVEY.md §2.7).

Boundary markers: a ``list_break`` span separates ADJACENT sibling lists
(distinct list nodes in the reference's tree — emitted by the markdown
flattener on a top-level marker-class change) and a ``quote`` span's
nested BLOCK body is closed by a ``quote_end`` marker; both markers are
transparent to content matching and only scope the block walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union

from mdvalidate_ray.schema.spec import (
    UNBOUNDED,
    CodeBlock,
    CodeLiteral,
    CompiledSchema,
    Emphasis,
    Heading,
    LinkPart,
    ListTemplate,
    Literal,
    Matcher,
    MatcherPart,
    Paragraph,
    Quote,
    RepeatedParagraph,
    Ruler,
    Strong,
    TableRowTemplate,
    TableTemplate,
    ViolationKind,
)

INLINE_KINDS = frozenset(
    {"text", "emphasis", "strong_emphasis", "code_span", "link", "image"}
)
LIST_KINDS = frozenset({"list_item", "ordered_list_item"})
HEADING_KINDS = frozenset(f"heading{i}" for i in range(1, 7))
_SPAN_FIELDS = itemgetter("kind", "text", "media_ref", "offset")


@dataclass
class EvalResult:
    passed: bool
    violations: list
    captures: dict
    end: int = 0                   # span cursor where the walk stopped

    def captures_json(self) -> str:
        return json.dumps(self.captures, sort_keys=True, separators=(",", ":"))


@dataclass
class _Ctx:
    spans: list                    # list of dict-like span records
    pos: int = 0
    violations: list = field(default_factory=list)
    captures: dict = field(default_factory=dict)
    # per-evaluation cache of _flatten_unit results keyed by id(parts):
    # inline templates are static per schema, and repeated table rows /
    # list items hit the same template once per row — caching removes the
    # dominant re-flatten cost (measured ~63k calls per 1k docs)
    flat_cache: dict = field(default_factory=dict)

    def peek(self) -> Optional[dict]:
        return self.spans[self.pos] if self.pos < len(self.spans) else None

    def take(self) -> Optional[dict]:
        s = self.peek()
        if s is not None:
            self.pos += 1
        return s

    def span_index(self, span: Optional[dict]) -> int:
        if span is None:
            return self.spans[-1][3] if self.spans else -1
        return span[3]

    def violate(self, cid: str, kind: str, expected: str, actual: str,
                span: Optional[dict]) -> None:
        self.violations.append({
            "constraint_id": cid,
            "kind": kind,
            "expected": expected,
            "actual": actual,
            "span_index": int(self.span_index(span)),
        })

    def capture(self, key: Optional[str], value) -> None:
        """join_values semantics (reference utils.rs:8–20): arrays concat,
        objects key-union (last wins), scalars overwrite."""
        if key is None:
            return
        _join_into(self.captures, key, value)


def _join_into(obj: dict, key: str, value) -> None:
    if key in obj and isinstance(obj[key], list) and isinstance(value, list):
        obj[key].extend(value)
    elif key in obj and isinstance(obj[key], dict) and isinstance(value, dict):
        for k, v in value.items():
            _join_into(obj[key], k, v)
    else:
        obj[key] = value


# ---------------------------------------------------------------------------
# Text-unit matching: prefix literal → matcher → suffix literal
# (MatcherVsTextValidator, reference matchers.rs:36–431)
# ---------------------------------------------------------------------------

def _flatten_unit(parts: list, cache: Optional[dict] = None
                  ) -> tuple[str, Optional[Matcher], str]:
    """Split a run of Literal/MatcherPart into (prefix, matcher, suffix)."""
    if cache is not None:
        hit = cache.get(id(parts))
        if hit is not None:
            return hit
    prefix_parts: list[str] = []
    suffix_parts: list[str] = []
    matcher: Optional[Matcher] = None
    for p in parts:
        if isinstance(p, MatcherPart):
            matcher = p.matcher
        elif isinstance(p, Literal):
            (suffix_parts if matcher is not None else prefix_parts).append(p.text)
        elif isinstance(p, (Emphasis, Strong)):
            # flattened textual content in heading context
            inner = "".join(x.text for x in p.parts if isinstance(x, Literal))
            (suffix_parts if matcher is not None else prefix_parts).append(inner)
    out = "".join(prefix_parts), matcher, "".join(suffix_parts)
    if cache is not None:
        cache[id(parts)] = out
    return out


def _match_text_unit(ctx: _Ctx, cid: str, parts: list, text: str,
                     span: Optional[dict], trim: bool = False,
                     cacheable: bool = False) -> Optional[str]:
    """Match a textual unit against ``text``.  Returns the captured value (if
    the unit has an identified matcher) or None.  Emits violations.

    Table cells compare whitespace-trimmed (reference ts_utils.rs:15–24,
    matchers.rs:352–361) — ``trim=True``.

    ``cacheable`` MUST only be set when ``parts`` is a template-owned list
    (table cells, list items) — the cache keys on id(), and ephemeral
    lists (paragraph units from _group_units) can reuse a freed address.
    """
    prefix, matcher, suffix = _flatten_unit(
        parts, ctx.flat_cache if cacheable else None)
    if trim:
        text = text.strip()
        prefix = prefix.lstrip() if matcher is None else prefix
    if matcher is None:
        expected = prefix + suffix
        if trim:
            expected = expected.strip()
        if text != expected:
            ctx.violate(cid, ViolationKind.CONTENT_LITERAL, expected, text, span)
        return None
    # prefix-literal check (matchers.rs:117–204)
    if not text.startswith(prefix):
        ctx.violate(cid, ViolationKind.CONTENT_PREFIX, prefix, text, span)
        return None
    rest = text[len(prefix):]
    if matcher.pattern is None:
        # MatcherKind::All consumes everything up to the suffix
        if suffix:
            if not rest.endswith(suffix):
                ctx.violate(cid, ViolationKind.CONTENT_SUFFIX, suffix, rest, span)
                return None
            matched = rest[: len(rest) - len(suffix)]
        else:
            matched = rest
        ctx.capture(matcher.capture_id, matched)
        return matched
    m = matcher.regex.match(rest)
    if m is None:
        ctx.violate(cid, ViolationKind.CONTENT_MATCHER, matcher.describe(),
                    rest, span)
        return None
    matched = m.group(0)
    # suffix-literal check (matchers.rs:332–427)
    if rest[len(matched):] != suffix:
        ctx.violate(cid, ViolationKind.CONTENT_SUFFIX, suffix,
                    rest[len(matched):], span)
        return None
    ctx.capture(matcher.capture_id, matched)
    return matched


def _match_scalar(ctx: _Ctx, cid: str, tmpl: Union[Literal, Matcher], value: str,
                  span: Optional[dict], what: str = "") -> None:
    """Literal-or-curly-matcher compare for link destinations / alt text /
    code-fence lang (reference validators/links.rs:216–260)."""
    if isinstance(tmpl, Literal):
        if value != tmpl.text:
            ctx.violate(cid, ViolationKind.CONTENT_LITERAL, tmpl.text, value, span)
    else:
        matched = tmpl.match_text(value)
        if matched is None or matched != value:
            ctx.violate(cid, ViolationKind.CONTENT_MATCHER, tmpl.describe(),
                        value, span)
        else:
            ctx.capture(tmpl.capture_id, matched)


# ---------------------------------------------------------------------------
# Inline-container evaluation (ContainerVsContainerValidator,
# reference containers.rs:67–233)
# ---------------------------------------------------------------------------

def _group_units(parts: list) -> list:
    """Group inline parts into expected child spans: consecutive
    Literal/MatcherPart coalesce into one `text` span; Emphasis / Strong /
    CodeLiteral / LinkPart each map to their own span.  This is the
    expected-child-count arithmetic of the reference
    (walkers/helpers/expected_input_nodes.rs:48–85)."""
    units: list[tuple[str, object]] = []
    run: list = []
    for p in parts:
        if isinstance(p, (Literal, MatcherPart)):
            run.append(p)
            continue
        if run:
            units.append(("text", run))
            run = []
        if isinstance(p, Emphasis):
            units.append(("emphasis", p.parts))
        elif isinstance(p, Strong):
            units.append(("strong_emphasis", p.parts))
        elif isinstance(p, CodeLiteral):
            units.append(("code_span", p))
        elif isinstance(p, LinkPart):
            units.append(("image" if p.is_image else "link", p))
    if run:
        units.append(("text", run))
    return units


def _collect_children(ctx: _Ctx) -> list:
    children = []
    while True:
        s = ctx.peek()
        if s is None or s[0] not in INLINE_KINDS:
            break
        children.append(ctx.take())
    return children


def _eval_inline_container(ctx: _Ctx, cid: str, parts: list) -> None:
    children = _collect_children(ctx)
    units = _group_units(parts)
    if len(units) != len(children):
        ctx.violate(cid, ViolationKind.CHILDREN_LENGTH,
                    f"{len(units)} children", f"{len(children)} children",
                    children[0] if children else None)
        # still pairwise-match the overlap for better reports
    for (kind, payload), span in zip(units, children):
        if span[0] != kind:
            ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH, kind,
                        span[0], span)
            continue
        if kind == "text":
            _match_text_unit(ctx, cid, payload, span[1], span)
        elif kind in ("emphasis", "strong_emphasis"):
            _match_text_unit(ctx, cid, payload, span[1], span)
        elif kind == "code_span":
            if span[1] != payload.text:
                ctx.violate(cid, ViolationKind.CONTENT_LITERAL, payload.text,
                            span[1], span)
        else:  # link / image
            _match_scalar(ctx, cid, payload.text, span[1], span)
            _match_scalar(ctx, cid, payload.dest, span[2], span)


# ---------------------------------------------------------------------------
# Lists (ListVsListValidator — reference validators/lists.rs:90–512)
# ---------------------------------------------------------------------------

@dataclass
class _DocListItem:
    span: dict
    text: str
    ordered: bool
    children: list = field(default_factory=list)   # list[_DocListItem]


def _parse_doc_list(ctx: _Ctx) -> list:
    """Consume the run of list_item spans, rebuilding nesting from leading
    tabs (depth encoding).  ``item_extra`` spans (paragraphs of a
    multi-paragraph item beyond the first — which the reference never
    validates, lists.rs:568–581) are consumed transparently."""
    items: list[tuple[int, _DocListItem]] = []
    while True:
        s = ctx.peek()
        if s is not None and s[0] == "item_extra":
            ctx.take()
            continue
        if s is None or s[0] not in LIST_KINDS:
            break
        ctx.take()
        raw = s[1]
        depth = len(raw) - len(raw.lstrip("\t"))
        items.append((depth, _DocListItem(
            span=s, text=raw[depth:], ordered=(s[0] == "ordered_list_item"))))
    roots: list[_DocListItem] = []
    stack: list[tuple[int, _DocListItem]] = []
    for depth, item in items:
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            stack[-1][1].children.append(item)
        else:
            roots.append(item)
        stack.append((depth, item))
    return roots


def _list_class_str(ordered: bool, marker: str = "") -> str:
    # mirrors the reference's message form for list kinds
    # (compare_node_kinds.rs:35–63)
    return f"tight_list({marker or ('1.' if ordered else '-')})"


def _try_fast_list(ctx: _Ctx, cid: str, tmpl: ListTemplate
                   ) -> Optional[dict]:
    """Fast path for the dominant shape: ONE repeated-matcher item, no
    nesting, flat doc items of the template's class.  It takes the run
    of items the interpreter would, emits the interpreter's exact
    violations for too many or too few matching items, and returns the
    capture dict; None falls back to the interpreter (nested or loose
    items, a class mismatch), which recomputes from the same cursor."""
    if tmpl.fast is None:
        return None
    rm, want_kind = tmpl.fast
    spans = ctx.spans
    start = pos = ctx.pos
    nspans = len(spans)
    texts = []
    while pos < nspans:
        k = spans[pos][0]
        if k == "item_extra":
            return None            # loose item → interpreter handles it
        if k not in LIST_KINDS:
            break
        t = spans[pos][1]
        if k != want_kind or t.startswith("\t"):
            return None            # wrong class or nested → interpreter
        texts.append(t)
        pos += 1
    n = len(texts)
    taken = n if rm.unbounded else min(n, rm.max_items)
    if rm.pattern is not None:
        match = rm.regex.match
        for i in range(taken):
            m = match(texts[i])
            if m is None or m.end() != len(texts[i]):
                taken = i
                break
    ctx.pos = pos
    if taken < n or taken < rm.min_items:
        item_cid = f"{cid}.item0"
        if taken < rm.min_items:
            ctx.violate(item_cid, ViolationKind.CHILDREN_LENGTH,
                        f">= {rm.min_items} list items",
                        f"{taken} list items",
                        spans[start + min(taken, n - 1)] if n else None)
        if taken < n:
            max_n = rm.max_items if not rm.unbounded else "inf"
            ctx.violate(item_cid, ViolationKind.CHILDREN_LENGTH,
                        f"<= {max_n} list items", f"{n} list items",
                        spans[start + taken])
    # zero-consumption repetition records no capture key (matcher never
    # matched — reference join_values of zero matches adds nothing)
    return {rm.capture_id: texts[:taken]} if (rm.capture_id and taken) \
        else {}


def _eval_list(ctx: _Ctx, cid: str, tmpl: ListTemplate,
               doc_items: Optional[list] = None) -> dict:
    """Evaluate one (possibly nested) list.  Returns the capture object
    produced at this level so callers can apply the nested-capture
    unpack-same-id rule (lists.rs:343–390)."""
    if doc_items is None:
        fast = _try_fast_list(ctx, cid, tmpl)
        if fast is not None:
            return fast
        doc_items = _parse_doc_list(ctx)
    local: dict = {}

    # list-kind classing: ordered vs unordered are different classes; the
    # three unordered markers -, *, + are the same class
    # (compare_node_kinds.rs:35–63)
    for it in doc_items:
        if it.ordered != tmpl.ordered:
            ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH,
                        _list_class_str(tmpl.ordered, tmpl.marker if not tmpl.ordered else "1."),
                        _list_class_str(it.ordered), it.span)
            return local

    has_repeat = any(t.repeat_matcher is not None for t in tmpl.items)
    di = 0
    for ti, titem in enumerate(tmpl.items):
        item_cid = f"{cid}.item{ti}"
        rm = titem.repeat_matcher
        if rm is not None:
            consumed = 0
            values: list = []
            max_n = rm.max_items
            while di < len(doc_items) and (max_n == UNBOUNDED or consumed < max_n):
                cand = doc_items[di]
                matched = rm.match_text(cand.text)
                if matched is None or (rm.pattern is not None and matched != cand.text):
                    break
                values.append(matched)
                if titem.children is not None:
                    nested = _eval_list(ctx, item_cid, titem.children,
                                        cand.children)
                    if nested:
                        _append_nested(values, rm.capture_id, nested)
                elif cand.children:
                    # input nested deeper than the schema allows
                    # (reference NodeListTooDeep, errors.rs:320–397)
                    ctx.violate(item_cid, ViolationKind.LIST_TOO_DEEP,
                                "no nested list", "nested list",
                                cand.children[0].span)
                di += 1
                consumed += 1
            if consumed < rm.min_items:
                ctx.violate(item_cid, ViolationKind.CHILDREN_LENGTH,
                            f">= {rm.min_items} list items",
                            f"{consumed} list items",
                            doc_items[di].span if di < len(doc_items)
                            else (doc_items[-1].span if doc_items else None))
            # more matching items than max with no next schema item →
            # ChildrenLengthMismatch (lists.rs:205–245)
            if (ti == len(tmpl.items) - 1 and di < len(doc_items)):
                ctx.violate(item_cid, ViolationKind.CHILDREN_LENGTH,
                            f"<= {max_n if max_n != UNBOUNDED else 'inf'} list items",
                            f"{len(doc_items) - di + consumed} list items",
                            doc_items[di].span)
                di = len(doc_items)
            if rm.capture_id is not None and values:
                _join_into(local, rm.capture_id, values)
        else:
            if di >= len(doc_items):
                ctx.violate(item_cid,
                            ViolationKind.WRONG_LIST_COUNT if not has_repeat
                            else ViolationKind.CHILDREN_LENGTH,
                            f"{len(tmpl.items)} list items",
                            f"{len(doc_items)} list items", None)
                break
            cand = doc_items[di]
            sub = _Ctx(spans=[], captures=local, violations=ctx.violations,
                       flat_cache=ctx.flat_cache)
            _match_text_unit(sub, item_cid, titem.inline, cand.text,
                             cand.span, cacheable=True)
            if titem.children is not None:
                nested = _eval_list(ctx, item_cid, titem.children, cand.children)
                for k, v in nested.items():
                    _join_into(local, k, v)
            elif cand.children:
                ctx.violate(item_cid, ViolationKind.LIST_TOO_DEEP,
                            "no nested list", "nested list",
                            cand.children[0].span)
            di += 1
    if di < len(doc_items):
        # literal lists require exact sibling-count equality (lists.rs:406–455)
        ctx.violate(cid,
                    ViolationKind.CHILDREN_LENGTH if has_repeat
                    else ViolationKind.WRONG_LIST_COUNT,
                    f"{len(tmpl.items)} list items",
                    f"{len(doc_items)} list items", doc_items[di].span)
    return local


def _append_nested(values: list, parent_id: Optional[str], nested: dict) -> None:
    """Nested-capture shaping (lists.rs:343–390): a nested capture object
    whose only key equals the parent id is unpacked into the parent array;
    otherwise the object itself is appended."""
    if parent_id is not None and set(nested.keys()) == {parent_id} \
            and isinstance(nested[parent_id], list):
        values.extend(nested[parent_id])
    else:
        values.append(nested)


# ---------------------------------------------------------------------------
# Tables (TableVsTableValidator + RepeatedRowVsRowValidator —
# reference validators/tables.rs:27–546)
# ---------------------------------------------------------------------------

def _try_fast_table(ctx: _Ctx, cid: str, tmpl: TableTemplate) -> bool:
    """Fast path: literal header cells + exactly one repeated row
    template whose cells are each a single regex/bare matcher.  On a
    matching header and whole rows it takes the table as the interpreter
    would, emits the interpreter's exact violations (a cell that fails
    its regex or leaves a suffix, too few or too many rows), commits the
    captures and returns True; False falls back to the interpreter from
    the original cursor (a header mismatch, ragged rows)."""
    if tmpl.fast is None:
        return False
    header_flat, matchers, ncols, min_rep, max_rep = tmpl.fast
    spans = ctx.spans
    pos = ctx.pos
    n = len(spans)
    hdr = []
    while pos < n and spans[pos][0] == "table_header_cell":
        hdr.append(spans[pos][1].strip())
        pos += 1
    if hdr != header_flat:
        return False
    first = pos
    cells = []
    while pos < n and spans[pos][0] == "table_cell":
        cells.append(spans[pos][1].strip())
        pos += 1
    if len(cells) % ncols != 0:
        return False
    ctx.pos = pos
    nrows = len(cells) // ncols
    taken = nrows if max_rep == UNBOUNDED else min(nrows, max_rep)
    row_cid = f"{cid}.row0"
    cols = [cells[c:taken * ncols:ncols] for c in range(ncols)]
    bad = []                       # (row, column) of each failing cell
    for c, (m, col) in enumerate(zip(matchers, cols)):
        if m.pattern is not None:
            match = m.regex.match
            for r, t in enumerate(col):
                mm = match(t)
                # end() != len(t): same full-consumption test as
                # group(0) != t, without building the match string
                if mm is None or mm.end() != len(t):
                    bad.append((r, c))
    # the interpreter's _match_text_unit on a trimmed one-matcher cell,
    # row by row
    for r, c in sorted(bad):
        m, t, span = matchers[c], cols[c][r], spans[first + r * ncols + c]
        mm = m.regex.match(t)
        if mm is None:
            ctx.violate(f"{row_cid}.cell{c}", ViolationKind.CONTENT_MATCHER,
                        m.describe(), t, span)
        else:
            ctx.violate(f"{row_cid}.cell{c}", ViolationKind.CONTENT_SUFFIX,
                        "", t[mm.end():], span)
        cols[c][r] = None
    for m, col in zip(matchers, cols):
        if bad:
            col = [t for t in col if t is not None]
        if m.capture_id and col:
            _join_into(ctx.captures, m.capture_id, col)
    if taken < min_rep:
        ctx.violate(row_cid, ViolationKind.CHILDREN_LENGTH,
                    f">= {min_rep} rows", f"{taken} rows",
                    spans[first + taken * ncols] if taken < nrows else None)
    if taken < nrows:
        ctx.violate(cid, ViolationKind.CHILDREN_LENGTH,
                    f"{taken} data rows", f"{nrows} data rows",
                    spans[first + taken * ncols])
    return True


def _eval_table(ctx: _Ctx, cid: str, tmpl: TableTemplate) -> None:
    if _try_fast_table(ctx, cid, tmpl):
        return
    header_spans = []
    while True:
        s = ctx.peek()
        if s is None or s[0] != "table_header_cell":
            break
        header_spans.append(ctx.take())
    ncols = len(tmpl.header)
    if len(header_spans) != ncols:
        ctx.violate(cid, ViolationKind.STRUCT_TABLE_CELLS,
                    f"{ncols} header cells", f"{len(header_spans)} header cells",
                    header_spans[0] if header_spans else None)
        return
    for ci, (cell_tmpl, span) in enumerate(zip(tmpl.header, header_spans)):
        _match_text_unit(ctx, f"{cid}.header.cell{ci}", cell_tmpl,
                         span[1], span, trim=True, cacheable=True)

    cell_spans = []
    while True:
        s = ctx.peek()
        if s is None or s[0] != "table_cell":
            break
        cell_spans.append(ctx.take())
    if ncols and len(cell_spans) % ncols != 0:
        ctx.violate(cid, ViolationKind.STRUCT_TABLE_CELLS,
                    f"multiple of {ncols} data cells",
                    f"{len(cell_spans)} data cells", cell_spans[-1])
        return
    doc_rows = [cell_spans[i:i + ncols] for i in range(0, len(cell_spans), ncols)]

    ri = 0
    for ti, row_tmpl in enumerate(tmpl.rows):
        row_cid = f"{cid}.row{ti}"
        if row_tmpl.repeated:
            consumed = 0
            max_n = row_tmpl.max_rep
            # sandwich rows (tables.rs:483–546): later row templates RESERVE
            # doc rows, so a repeated row may only consume up to
            # len(doc_rows) - reserved — otherwise a matching literal footer
            # would be swallowed by the repetition
            reserved = sum((t.min_rep if t.repeated else 1)
                           for t in tmpl.rows[ti + 1:])
            budget = len(doc_rows) - ri - reserved
            while (ri < len(doc_rows) and consumed < budget
                   and (max_n == UNBOUNDED or consumed < max_n)):
                _eval_table_row(ctx, row_cid, row_tmpl, doc_rows[ri])
                ri += 1
                consumed += 1
            if consumed < row_tmpl.min_rep:
                ctx.violate(row_cid, ViolationKind.CHILDREN_LENGTH,
                            f">= {row_tmpl.min_rep} rows", f"{consumed} rows",
                            doc_rows[ri][0] if ri < len(doc_rows) else None)
        else:
            if ri >= len(doc_rows):
                ctx.violate(row_cid, ViolationKind.CHILDREN_LENGTH,
                            f"row {ti}", "missing row", None)
                continue
            _eval_table_row(ctx, row_cid, row_tmpl, doc_rows[ri])
            ri += 1
    if ri < len(doc_rows):
        ctx.violate(cid, ViolationKind.CHILDREN_LENGTH,
                    f"{ri} data rows", f"{len(doc_rows)} data rows",
                    doc_rows[ri][0])


def _eval_table_row(ctx: _Ctx, row_cid: str, row_tmpl: TableRowTemplate,
                    row: list) -> None:
    for ci, (cell_tmpl, span) in enumerate(zip(row_tmpl.cells, row)):
        cell_cid = f"{row_cid}.cell{ci}"
        sub = _Ctx(spans=[], violations=ctx.violations,
                   flat_cache=ctx.flat_cache)
        val = _match_text_unit(sub, cell_cid, cell_tmpl, span[1], span,
                               trim=True, cacheable=True)
        # repeated rows accumulate per-cell column arrays
        # (tables.rs:245–376: {"item": [...], "price": [...]})
        _, matcher, _ = _flatten_unit(cell_tmpl, ctx.flat_cache)
        if matcher is not None and matcher.capture_id and val is not None:
            if row_tmpl.repeated:
                _join_into(ctx.captures, matcher.capture_id, [val])
            else:
                _join_into(ctx.captures, matcher.capture_id, val)


# ---------------------------------------------------------------------------
# Top-level block walk (NodeVsNodeValidator dispatch —
# reference walkers/validators/nodes.rs:37–251)
# ---------------------------------------------------------------------------

def _eval_quote_blocks(ctx: _Ctx, cid: str, block) -> None:
    """Quote body with nested block templates: collect the body spans up
    to the matching ``quote_end`` marker (nesting-aware) and run the
    standard block walk on them.  Documents using the legacy inline-only
    quote encoding (no ``quote_end``) fall back to the inline children."""
    save = ctx.pos
    body: list = []
    depth, found = 1, False
    while ctx.pos < len(ctx.spans):
        s = ctx.spans[ctx.pos]
        if s[0] == "quote":
            depth += 1
        elif s[0] == "quote_end":
            depth -= 1
            if depth == 0:
                ctx.pos += 1
                found = True
                break
        body.append(s)
        ctx.pos += 1
    if not found:
        ctx.pos = save
        body = _collect_children(ctx)
    sub = _Ctx(spans=body, violations=ctx.violations,
               captures=ctx.captures, flat_cache=ctx.flat_cache)
    _eval_blocks(sub, block.blocks, f"{cid}.")
    if sub.pos < len(body):
        extra = body[sub.pos]
        sub.violate(cid, ViolationKind.STRUCT_INPUT_HAS_CHILD,
                    "end of quote", extra[0], extra)


def _block_expected_kind(block) -> str:
    if isinstance(block, Heading):
        return f"heading{block.level}"
    if isinstance(block, (Paragraph, RepeatedParagraph)):
        return "paragraph"
    if isinstance(block, ListTemplate):
        return "list_item"
    if isinstance(block, Quote):
        return "quote"
    if isinstance(block, CodeBlock):
        return "code_lang"
    if isinstance(block, TableTemplate):
        return "table_header_cell"
    if isinstance(block, Ruler):
        return "ruler"
    return "?"


def evaluate_spans(spans: list, schema: CompiledSchema, *,
                   blocks: Optional[range] = None, pos: int = 0,
                   captures: Optional[dict] = None) -> EvalResult:
    """Validate one document (its span sequence) against a compiled schema.

    Returns (passed, violations, captures) — the tabular form of the
    reference's ``(exit code, Vec<ValidationError>, matches JSON)`` triple
    (src/cmd.rs:152–178, README.md:105–137) — and the span cursor where
    the walk stopped.

    ``blocks`` (a range of schema block indices) and ``pos`` (the span
    cursor to start from) walk only part of the schema, with the
    constraint ids of the whole walk; the end-of-document check runs when
    the range reaches the schema's last block.  The defaults walk the
    whole schema from the first span.  The batch validator
    (:func:`~mdvalidate_ray.stages.validate.evaluate_batch`) walks only
    the blocks its columnar plan cannot decide, this way; one block at a
    chosen cursor (``blocks=range(k, k + 1), pos=p``) is the analog of
    the reference's ``ValidatorTester`` harness
    (walkers/validators/mod.rs:54–235).  ``captures``, an earlier
    walk's, is joined into and returned as one walk would.

    Accepts span DICTS (the public contract) or the internal tuple form
    ``(kind, text, media_ref, offset)`` — the hot path
    (:class:`~mdvalidate_ray.stages.validate.ConstraintEvaluator`) builds
    tuples straight from Arrow columns via ``zip`` (C-level, no per-span
    Python object assembly)."""
    if spans and isinstance(spans[0], dict):
        try:
            spans = list(map(_SPAN_FIELDS, spans))
        except KeyError:    # media_ref / offset are optional in a dict
            spans = [(s["kind"], s["text"], s.get("media_ref"),
                      s.get("offset", i)) for i, s in enumerate(spans)]
    if blocks is None:
        blocks = range(len(schema.blocks))
    ctx = _Ctx(spans=spans, pos=pos, captures=captures or {})
    _eval_blocks(ctx, schema.blocks[blocks.start:blocks.stop], "",
                 start=blocks.start)

    if blocks.stop == len(schema.blocks) and ctx.pos < len(ctx.spans):
        # InputHasChildSchemaDoesnt (nodes.rs:174–221); report the content
        # span, not a list_break separator
        extra = ctx.spans[ctx.pos]
        if extra[0] == "list_break" and ctx.pos + 1 < len(ctx.spans):
            extra = ctx.spans[ctx.pos + 1]
        ctx.violate("doc", ViolationKind.STRUCT_INPUT_HAS_CHILD,
                    "end of document", extra[0], extra)

    return EvalResult(passed=not ctx.violations, violations=ctx.violations,
                      captures=ctx.captures, end=ctx.pos)


def _eval_blocks(ctx: _Ctx, blocks: list, prefix: str,
                 start: int = 0) -> None:
    """Walk a block-template sequence against the ctx's span cursor.
    Top-level documents AND nested quote bodies share this walk (the
    reference's QuoteVsQuote delegates its children back to container
    validation, quotes.rs:63–66).  ``start`` offsets the constraint-id
    numbering so a resumed/streaming walk emits the same ids as the
    full walk (stages/stream_validate.py)."""
    for bi, block in enumerate(blocks, start=start):
        cid = f"{prefix}b{bi}"
        span = ctx.peek()
        if span is not None and span[0] == "list_break":
            # list_break marks the boundary between ADJACENT sibling lists
            # (distinct list nodes in the reference's tree) — consume the
            # marker; _parse_doc_list stops at it, so the two lists
            # validate separately
            ctx.take()
            span = ctx.peek()
        if span is None:
            # SchemaHasChildInputDoesnt (nodes.rs:174–221)
            ctx.violate(cid, ViolationKind.STRUCT_SCHEMA_HAS_CHILD,
                        _block_expected_kind(block), "end of document", None)
            continue

        if isinstance(block, Heading):
            if span[0] not in HEADING_KINDS:
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH,
                            f"heading{block.level}", span[0], span)
                ctx.take()
                continue
            if span[0] != f"heading{block.level}":
                # heading-level mismatch is a kind mismatch
                # (validators/headings.rs:24–137)
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH,
                            f"heading{block.level}", span[0], span)
                ctx.take()
                continue
            ctx.take()
            if any(not isinstance(p, (Literal, MatcherPart))
                   for p in block.inline):
                # rich heading content (links / images / code spans /
                # emphasis) validates as child nodes, exactly like a
                # paragraph body (reference treats heading children as
                # ordinary inline nodes — tests/links.rs
                # link_inside_heading, textual_container.rs
                # heading_link_and_text_matchers)
                _eval_inline_container(ctx, cid, block.inline)
            else:
                _match_text_unit(ctx, cid, block.inline, span[1], span)

        elif isinstance(block, RepeatedParagraph):
            # consumes m..n consecutive input paragraphs into an array
            # capture (containers.rs:270–378).  Direct scan over the span
            # array — no per-paragraph peek/take/child-collect overhead
            # (this is the hottest block type in the flagship corpus:
            # 1..MAX_INTROS intro paragraphs + gallery paragraphs per doc)
            m = block.matcher
            spans_ = ctx.spans
            pos = ctx.pos
            nspans = len(spans_)
            max_n = m.max_items
            rmatch = m.regex.match if m.regex is not None else None
            values: list = []
            consumed = 0
            while (max_n == UNBOUNDED or consumed < max_n) and \
                    pos < nspans and spans_[pos][0] == "paragraph":
                k = pos + 1
                if k < nspans and spans_[k][0] in INLINE_KINDS:
                    if (k + 1 < nspans
                            and spans_[k + 1][0] in INLINE_KINDS):
                        parts = []
                        while k < nspans and \
                                spans_[k][0] in INLINE_KINDS:
                            parts.append(spans_[k][1])
                            k += 1
                        text = "".join(parts)
                    else:
                        text = spans_[k][1]
                        k += 1
                else:
                    text = ""
                if rmatch is not None:
                    mm = rmatch(text)
                    if mm is None or mm.end() != len(text):
                        break
                values.append(text)
                pos = k
                consumed += 1
            ctx.pos = pos
            if consumed < m.min_items:
                ctx.violate(cid,
                            ViolationKind.NOT_ENOUGH_REPEATING_PARAGRAPHS,
                            f">= {m.min_items} paragraphs",
                            f"{consumed} paragraphs", ctx.peek())
            if values:
                ctx.capture(m.capture_id, values)

        elif isinstance(block, Paragraph):
            if span[0] != "paragraph":
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH, "paragraph",
                            span[0], span)
                ctx.take()
                continue
            ctx.take()
            _eval_inline_container(ctx, cid, block.inline)

        elif isinstance(block, ListTemplate):
            if span[0] not in LIST_KINDS:
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH,
                            _list_class_str(block.ordered, block.marker),
                            span[0], span)
                ctx.take()
                continue
            captured = _eval_list(ctx, cid, block)
            for k, v in captured.items():
                ctx.capture(k, v)

        elif isinstance(block, Quote):
            if span[0] != "quote":
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH, "quote",
                            span[0], span)
                ctx.take()
                continue
            ctx.take()
            if getattr(block, "blocks", None) is not None:
                _eval_quote_blocks(ctx, cid, block)
            else:
                _eval_inline_container(ctx, cid, block.inline)
                # the markdown flattener closes EVERY quote body with a
                # quote_end marker (uniform encoding keeps the blocky
                # body scan's nesting count correct); hand-built span
                # sequences without the marker are still accepted
                nxt = ctx.peek()
                if nxt is not None and nxt[0] == "quote_end":
                    ctx.take()

        elif isinstance(block, CodeBlock):
            if span[0] != "code_lang":
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH, "code_lang",
                            span[0], span)
                ctx.take()
                continue
            lang_span = ctx.take()
            if block.lang is not None:
                _match_scalar(ctx, f"{cid}.lang", block.lang,
                              lang_span[1], lang_span)
            body_span = ctx.peek()
            if body_span is None or body_span[0] != "code_body":
                ctx.violate(cid, ViolationKind.STRUCT_SCHEMA_HAS_CHILD,
                            "code_body",
                            body_span[0] if body_span else "end of document",
                            body_span)
                continue
            ctx.take()
            _match_scalar(ctx, f"{cid}.body", block.body,
                          body_span[1], body_span)

        elif isinstance(block, TableTemplate):
            if span[0] != "table_header_cell":
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH,
                            "table_header_cell", span[0], span)
                ctx.take()
                continue
            _eval_table(ctx, cid, block)

        elif isinstance(block, Ruler):
            if span[0] != "ruler":
                ctx.violate(cid, ViolationKind.NODE_TYPE_MISMATCH, "ruler",
                            span[0], span)
            ctx.take()
