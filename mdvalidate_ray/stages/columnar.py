"""Columnar block plan: accept conforming documents with Arrow kernels.

:func:`~mdvalidate_ray.stages.validate.evaluate_batch` spends most of a
batch converting Arrow columns to Python objects so that the span walk
(:func:`~mdvalidate_ray.evaluate.evaluator.evaluate_spans`) can step
through each document.  Most documents simply conform, and for those the
walk only confirms kinds, run lengths and full regex matches, then
collects captures.  A :class:`Plan` does that work over the whole batch
at once: predicates are evaluated over columns (Column Sketches,
SIGMOD 2018), and repeated structure -- the list run, the table-cell run,
each paragraph with its child -- is handled as runs (Column Partition
and Permutation for RLE, SIGMOD 2020).  The plan steps once per schema
block, with one cursor per document, and evaluates each matcher once per
block over every candidate text.

The plan decides each block it can and hands the rest to the walk,
block by block.  A step the document passes leaves no violation, and
its captures JSON fragment is byte-identical to the walk's
``json.dumps(sort_keys=True, separators=(",", ":"))`` of that block's
captures.  A step the document fails -- a failed kind, count or match
check, or a span the step reads that the plan cannot judge (a null span
or text, a byte outside printable ASCII ``[ -~]``, a paragraph without
exactly one inline child) -- has its blocks walked from the step's
start cursor (:meth:`Plan.run`); the walk alone produces violations, and
the document re-enters the plan at the next step from the walk's end
cursor.  A document that runs out of spans has its remaining blocks
walked, and one whose cursor ends short of its last span gets the
walk's end-of-document check.  Only a document holding a span of
``WHOLE_KINDS`` (``list_break``, ``item_extra``, ``quote_end``: they
change how the walk reads the blocks around them) or a null span list
is walked whole.

Every schema gets a plan.  Each run of blocks without a step (by shape,
or a regex outside :func:`re2_equivalent`) is one walked step, which
hands every document to the walk; so is each block capturing an id that
occurs more than once among all blocks' ids, whose values the walk joins
as one walk would.

The regex test has two forms, chosen once per text unit when the plan is
built.  Where the unit's suffix is empty and :func:`anchored_exact` admits
the pattern, it is ``match_substring_regex(text, "^(?:p)$")``.  That
holds exactly when the walk's ``m.end() == len(text)`` does: the pattern
is a run of single-character items, optionally ended by one greedy repeat
of a single-character item, so the fixed-width head leaves no choice and
the repeat stops at the first character outside its class or at its
maximum -- the leftmost-first match reaches the end exactly when some
full match exists.  A suffix breaks that (``\\w+`` then ``"x"`` on
``"abx"``: the greedy run eats the ``x``), as do alternation, lazy
repeats and any repeat before the end.  Every other unit keeps the
sentinel test ``replace_substring_regex(text, "^(?:p)", SENT) == SENT +
suffix`` with a sentinel byte that printable-ASCII text cannot contain:
it holds exactly when the leftmost-first match exists and leaves only
the suffix (with ``== ""`` instead, an empty text that the pattern cannot
match would pass).
"""

from __future__ import annotations

import json
import re
import re._constants as sre
import re._parser as sre_parse
from collections import Counter
from dataclasses import fields, is_dataclass
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray.evaluate.evaluator import (
    INLINE_KINDS,
    LIST_KINDS,
    _flatten_unit,
)
from mdvalidate_ray.schema.spec import (
    UNBOUNDED,
    CodeBlock,
    Heading,
    ListTemplate,
    Literal,
    Matcher,
    MatcherPart,
    Paragraph,
    RepeatedParagraph,
    Ruler,
    TableTemplate,
)

SENT = "\x01"
# span kinds that change how the walk reads a whole document: it skips
# a list_break before any block and an item_extra inside a list, and
# scopes a quote's body by its quote_end
WHOLE_KINDS = ("item_extra", "list_break", "quote_end")
# the walk's captures encoding, built once rather than per json.dumps call
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# the escapes RE2 and Python read alike: classes, or a punctuation char
_ESCAPE = re.compile(r"\\(.)", re.S)
_BRACE = re.compile(r"\{(\d+)(,(\d*))?\}")
_CLASS_CATEGORIES = {
    sre.CATEGORY_DIGIT, sre.CATEGORY_NOT_DIGIT, sre.CATEGORY_WORD,
    sre.CATEGORY_NOT_WORD, sre.CATEGORY_SPACE, sre.CATEGORY_NOT_SPACE,
}
_RE2_MAX_REPEAT = 1000


def re2_equivalent(pattern: str) -> bool:
    """True when RE2 over printable-ASCII text finds the same
    leftmost-first match for ``pattern`` as Python's ``re``.

    Allowed: literals, classes, ``\\w \\d \\s .`` and their negations,
    greedy and lazy repeats up to RE2's limit of 1000, groups without
    flags, and alternation.  On printable ASCII the two engines read
    these constructs alike (``\\s`` is only the space, ``\\w`` only
    ``[A-Za-z0-9_]``).  Anything else -- anchors, lookaround,
    backreferences, inline flags, ``{,n}`` (a literal in RE2), POSIX
    classes, escapes such as ``\\u`` or ``\\Z`` -- is refused."""
    if not re.fullmatch(r"[ -~]*", pattern) or "[:" in pattern:
        return False
    for m in _ESCAPE.finditer(pattern):
        c = m.group(1)
        if not (c in "wdsWDS" or not (c.isalnum() or c == "_")):
            return False
    if re.search(r"\(\?(?!:)", pattern):
        return False
    unescaped = _ESCAPE.sub("", pattern)
    for i in (m.start() for m in re.finditer(r"\{", unescaped)):
        if not _BRACE.match(unescaped, i):
            return False
    try:
        parsed = sre_parse.parse(pattern)
    except re.error:
        return False
    if parsed.state.flags & ~sre.SRE_FLAG_UNICODE:
        return False
    return _plain(parsed)


def _plain(items) -> bool:
    for op, av in items:
        if op in (sre.LITERAL, sre.NOT_LITERAL, sre.ANY):
            continue
        if op is sre.IN:
            if not all(o in (sre.LITERAL, sre.RANGE, sre.NEGATE)
                       or (o is sre.CATEGORY and a in _CLASS_CATEGORIES)
                       for o, a in av):
                return False
        elif op in (sre.MAX_REPEAT, sre.MIN_REPEAT):
            lo, hi, sub = av
            if lo > _RE2_MAX_REPEAT or (hi != sre.MAXREPEAT
                                        and hi > _RE2_MAX_REPEAT):
                return False
            if not _plain(sub):
                return False
        elif op is sre.SUBPATTERN:
            _, add_flags, del_flags, sub = av
            if add_flags or del_flags or not _plain(sub):
                return False
        elif op is sre.BRANCH:
            if not all(_plain(b) for b in av[1]):
                return False
        else:
            return False
    return True


# the items that always consume exactly one character
_ONE_CHAR = (sre.LITERAL, sre.NOT_LITERAL, sre.ANY, sre.IN)


def anchored_exact(pattern: str) -> bool:
    """True for an :func:`re2_equivalent` pattern made of
    single-character items, optionally ended by one greedy repeat of a
    single-character item.  For these ``^(?:pattern)$`` matches exactly
    the texts on which ``re.match(pattern, t).end() == len(t)``.
    Refused: alternation, lazy repeats, groups and a repeat that is not
    last."""
    if not re2_equivalent(pattern):
        return False
    items = list(sre_parse.parse(pattern))
    if items and items[-1][0] is sre.MAX_REPEAT:
        body = list(items.pop()[1][2])
        if len(body) != 1 or body[0][0] not in _ONE_CHAR:
            return False
    return all(op in _ONE_CHAR for op, _ in items)


def anchored_match(texts: pa.Array, pattern: str) -> np.ndarray:
    """Per text: ``^(?:pattern)$`` matches (RE2 full match)."""
    return _np(pc.match_substring_regex(texts, f"^(?:{pattern})$"))


def sentinel_match(texts: pa.Array, pattern: str, suffix: str = ""
                   ) -> np.ndarray:
    """Per text: the leftmost-first match of ``^(?:pattern)`` exists and
    leaves exactly ``suffix``."""
    out = pc.replace_substring_regex(texts, f"^(?:{pattern})", SENT,
                                     max_replacements=1)
    return _np(pc.equal(out, SENT + suffix))


def _matcher(pattern: str, suffix: str):
    """The cheapest exact full-match test for ``pattern`` then
    ``suffix``, as a function of the texts."""
    if not suffix and anchored_exact(pattern):
        return partial(anchored_match, pattern=pattern)
    return partial(sentinel_match, pattern=pattern, suffix=suffix)


def full_match(texts: pa.Array, pattern: str, suffix: str = "") -> np.ndarray:
    """Per text: ``re.match("^" + pattern, t)`` exists and leaves exactly
    ``suffix`` (for printable-ASCII ``texts`` and a pattern that passes
    :func:`re2_equivalent`)."""
    return _matcher(pattern, suffix)(texts)


def _np(mask) -> np.ndarray:
    if mask.null_count:
        mask = pc.fill_null(mask, False)
    return mask.to_numpy(zero_copy_only=False)


class _Unit:
    """A text unit as ``_match_text_unit`` / ``_match_scalar`` see it: a
    prefix literal, at most one matcher, a suffix literal."""

    def __init__(self, prefix: str, matcher: Matcher | None, suffix: str):
        self.prefix, self.matcher, self.suffix = prefix, matcher, suffix
        self.key = matcher.capture_id if matcher is not None else None
        self.regex_test = None

    @classmethod
    def of(cls, parts_or_scalar) -> "_Unit | None":
        if isinstance(parts_or_scalar, Literal):
            return cls(parts_or_scalar.text, None, "")
        if isinstance(parts_or_scalar, Matcher):
            unit = cls("", parts_or_scalar, "")
        else:
            if not all(isinstance(p, (Literal, MatcherPart))
                       for p in parts_or_scalar):
                return None
            unit = cls(*_flatten_unit(parts_or_scalar))
        m = unit.matcher
        if m is None:
            return unit
        if m.pattern is not None:
            if not re2_equivalent(m.pattern):
                return None
            unit.regex_test = _matcher(m.pattern, unit.suffix)
            try:
                unit.regex_test(pa.array([""]))
            except pa.ArrowInvalid:     # e.g. past RE2's program-size limit
                return None
        return unit

    def test(self, texts: pa.Array) -> tuple[np.ndarray, pa.Array | None]:
        """Per text: does the unit accept it, and what does it capture."""
        m = self.matcher
        if m is None:
            return _np(pc.equal(texts, self.prefix + self.suffix)), None
        ok = np.ones(len(texts), dtype=bool)
        rest = texts
        if self.prefix:
            ok &= _np(pc.starts_with(texts, self.prefix))
            rest = pc.utf8_slice_codeunits(texts, len(self.prefix))
        if self.regex_test is not None:
            ok &= self.regex_test(rest)
        elif self.suffix:
            ok &= _np(pc.ends_with(rest, self.suffix))
        if self.suffix:
            rest = pc.utf8_slice_codeunits(rest, 0, -len(self.suffix))
        return ok, rest


# ---------------------------------------------------------------------------
# Per-batch state
# ---------------------------------------------------------------------------

class _Batch:
    """Flat span columns of one batch plus one cursor per document."""

    def __init__(self, spans: pa.ListArray, vocab: list[str]):
        offs = spans.offsets.to_numpy().astype(np.int64)
        flat = spans.values.slice(offs[0], offs[-1] - offs[0])
        offs -= offs[0]
        self.n = len(spans)
        self.start = offs[:-1]
        self.end = offs[1:]
        self.cur = offs[:-1].copy()
        self.flat = flat
        self.texts = flat.field("text")
        self.code = {k: i for i, k in enumerate(vocab)}
        kind = flat.field("kind")
        # kind codes with one -1 of padding past the last span
        self.kinds = np.append(pc.fill_null(pc.index_in(
            kind, value_set=pa.array(vocab, kind.type)),
            -1).to_numpy(zero_copy_only=False), -1)
        bad, self.quoted = self._scan()
        self.bad = np.concatenate(([0], np.cumsum(bad)))
        self.whole = ~spans.is_valid().to_numpy(zero_copy_only=False) \
            | self._docs_with(self.member(WHOLE_KINDS)[:-1])
        self._stops: dict = {}
        self.step = 0
        self.captures: list = []  # (key, step, owner docs, values, is_list)

    def _docs_with(self, span_mask: np.ndarray) -> np.ndarray:
        docs = np.zeros(self.n, dtype=bool)
        docs[np.searchsorted(self.end, np.flatnonzero(span_mask),
                             side="right")] = True
        return docs

    def _scan(self) -> tuple[np.ndarray, bool]:
        """The spans whose text or shape the plan cannot judge -- a null
        span or text, a non-printable byte, or a paragraph marker not
        followed by exactly one inline child -- and whether any text
        holds a byte that JSON must escape."""
        nspans = len(self.kinds) - 1
        bad = np.zeros(nspans, dtype=bool)
        quoted = False
        if nspans == 0:
            return bad, quoted
        for col in (self.flat, self.texts):
            if col.null_count:
                bad |= ~col.is_valid().to_numpy(zero_copy_only=False)
        t = self.texts
        width = np.int64 if pa.types.is_large_string(t.type) else np.int32
        toffs = np.frombuffer(t.buffers()[1], dtype=width)[
            t.offset:t.offset + nspans + 1]
        if toffs[-1] > toffs[0]:
            data = np.frombuffer(t.buffers()[2], dtype=np.uint8)[
                toffs[0]:toffs[-1]]
            # two reductions settle the common all-printable block
            if data.min() < 0x20 or data.max() > 0x7E:
                odd = np.flatnonzero((data < 0x20) | (data > 0x7E)) \
                    + toffs[0]
                bad[np.searchsorted(toffs, odd, side="right") - 1] = True
            # json.dumps escapes only these two printable-ASCII bytes
            quoted = bool(np.count_nonzero(data == 0x22)
                          or np.count_nonzero(data == 0x5C))
        para = self.code.get("paragraph")
        if para is not None:
            inline = self.member(INLINE_KINDS)
            p = np.flatnonzero(self.kinds[:-1] == para)
            doc_end = self.end[np.searchsorted(self.end, p, side="right")]
            child = (p + 1 < doc_end) & inline[p + 1]
            more = (p + 2 < doc_end) & inline[np.minimum(p + 2, nspans)]
            bad[p[~child | more]] = True
        return bad, quoted

    def judged(self, pos: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Per document: no unjudgeable span in ``[pos, stop)``."""
        return self.bad[stop] == self.bad[pos]

    def member(self, kinds) -> np.ndarray:
        """Per span (and the padding): is its kind one of ``kinds``.  One
        table lookup: the codes index a bool table whose last entry, the
        one code -1 reads, is False."""
        table = np.zeros(len(self.code) + 1, dtype=bool)
        table[[self.code[k] for k in kinds if k in self.code]] = True
        return table[self.kinds]

    def kind_is(self, pos: np.ndarray, kind: str) -> np.ndarray:
        """Whether the span at each ``pos`` has ``kind``.  A ``pos`` past
        its document's end may read the next document's span: the
        cursor then ends past the end, and the plan's end check fails."""
        return self.kinds[np.minimum(pos, len(self.kinds) - 1)] \
            == self.code[kind]

    def run(self, kinds: tuple, pos: np.ndarray, end: np.ndarray
            ) -> np.ndarray:
        """Length of the run of spans of ``kinds`` at each ``pos``,
        cut at the document's ``end``."""
        stops = self._stops.get(kinds)
        if stops is None:
            stops = np.flatnonzero(~self.member(kinds))
            self._stops[kinds] = stops
        nxt = stops[np.searchsorted(stops, pos)]
        return np.minimum(nxt, end) - pos

    def capture(self, key, owners, values, is_list: bool) -> None:
        if key and len(owners):
            self.captures.append((key, self.step, owners, values, is_list))


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``lengths``: each element's run and index in it."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    return run, np.arange(len(run)) - first[run]


def _leading(mask: np.ndarray, run: np.ndarray, j: np.ndarray,
             lengths: np.ndarray) -> np.ndarray:
    """Per run: how many elements pass before the first that fails."""
    out = lengths.copy()
    fails = ~mask
    runs, first = np.unique(run[fails], return_index=True)
    out[runs] = j[fails][first]
    return out


# ---------------------------------------------------------------------------
# One step per schema block, each as the walk's branch in _eval_blocks
# ---------------------------------------------------------------------------

class _Step:
    """One schema block as the walk's branch in ``_eval_blocks``:
    ``step(b, docs, pos, end)`` returns, per document, whether the block
    passes and the cursor after it; ``blocks``, set by :func:`build_plan`,
    is the range of schema blocks it covers."""

    kinds: tuple = ()
    lookahead = 0       # spans past that cursor the walk also reads


class _Walked(_Step):
    """Blocks the plan cannot step: it decides no document, so the walk
    takes every one through ``blocks``."""

    def step(self, b: _Batch, docs, pos, end):
        return np.zeros(len(pos), dtype=bool), pos


def _check(b: _Batch, docs, ok, unit: _Unit, at) -> None:
    """Test ``unit`` on the text at ``at`` of each document still ``ok``,
    fold the result into ``ok`` and record the capture (documents that
    end up refused drop out when the captures are assembled)."""
    idx = np.flatnonzero(ok)
    units_ok, vals = unit.test(b.texts.take(pa.array(at[idx])))
    ok[idx] = units_ok
    b.capture(unit.key, docs[idx], vals, False)


class _Heading(_Step):
    """One heading span of the block's level whose text the unit must
    accept."""

    def __init__(self, level: int, unit: _Unit):
        self.kind, self.unit = f"heading{level}", unit
        self.kinds = (self.kind,)

    def step(self, b: _Batch, docs, pos, end):
        ok = b.kind_is(pos, self.kind)
        _check(b, docs, ok, self.unit, pos)
        return ok, pos + 1


class _Paragraph(_Step):
    """A paragraph marker and one ``text`` child whose text the unit must
    accept (``_eval_inline_container`` with a single text unit)."""

    kinds = ("paragraph", "text")

    def __init__(self, unit: _Unit):
        self.unit = unit

    def step(self, b: _Batch, docs, pos, end):
        ok = b.kind_is(pos, "paragraph") & b.kind_is(pos + 1, "text")
        _check(b, docs, ok, self.unit, pos + 1)
        return ok, pos + 2


class _Ruler(_Step):
    kinds = ("ruler",)

    def step(self, b: _Batch, docs, pos, end):
        return b.kind_is(pos, "ruler"), pos + 1


class _Code(_Step):
    """``code_lang`` then ``code_body``, each checked as ``_match_scalar``."""

    kinds = ("code_lang", "code_body")

    def __init__(self, lang: _Unit | None, body: _Unit):
        self.lang, self.body = lang, body

    def step(self, b: _Batch, docs, pos, end):
        ok = b.kind_is(pos, "code_lang") & b.kind_is(pos + 1, "code_body")
        if self.lang is not None:
            _check(b, docs, ok, self.lang, pos)
        _check(b, docs, ok, self.body, pos + 1)
        return ok, pos + 2


class _RepeatedParagraph(_Step):
    """Greedy run of up to ``max_items`` paragraphs whose one child text
    fully matches; fewer than ``min_items`` fails (the walk's
    RepeatedParagraph branch).  The walk also reads the paragraph that
    stops the run, and its child: two spans past the cursor."""

    kinds = ("paragraph",) + tuple(sorted(INLINE_KINDS))
    lookahead = 2

    def __init__(self, unit: _Unit):
        self.unit = unit

    def step(self, b: _Batch, docs, pos, end):
        m = self.unit.matcher
        # every paragraph the step may read has exactly one child
        # (Plan.run refuses the step otherwise)
        pairs = np.where(b.kind_is(pos, "paragraph"),
                         b.run(self.kinds, pos, end) // 2, 0)
        limit = pairs if m.unbounded else np.minimum(pairs, m.max_items)
        run, j = _segments(limit)
        texts = b.texts.take(pa.array(pos[run] + 1 + 2 * j))
        matched, _ = self.unit.test(texts)
        taken = _leading(matched, run, j, limit)
        keep = j < taken[run]
        b.capture(m.capture_id, docs[run[keep]],
                  texts.filter(pa.array(keep)), True)
        return taken >= m.min_items, pos + 2 * taken


class _List(_Step):
    """A flat list run of one item class, every item a full match
    (``_try_fast_list``)."""

    kinds = tuple(sorted(LIST_KINDS))

    def __init__(self, unit: _Unit, want: str):
        self.unit, self.want = unit, want

    def step(self, b: _Batch, docs, pos, end):
        m = self.unit.matcher
        n = b.run(self.kinds, pos, end)
        ok = (n > 0) & (b.run((self.want,), pos, end) == n) \
            & (n >= m.min_items)
        if not m.unbounded:
            ok &= n <= m.max_items
        n = np.where(ok, n, 0)
        run, j = _segments(n)
        texts = b.texts.take(pa.array(pos[run] + j))
        matched, _ = self.unit.test(texts)
        ok &= _leading(matched, run, j, n) == n
        b.capture(m.capture_id, docs[run], texts, True)
        return ok, pos + n


class _Table(_Step):
    """Literal header cells, then one repeated row of single-matcher
    cells (``_try_fast_table``); cells compare whitespace-trimmed."""

    kinds = ("table_header_cell", "table_cell")

    def __init__(self, header: list, units: list, lo: int, hi: int):
        self.header, self.units, self.lo, self.hi = header, units, lo, hi

    def step(self, b: _Batch, docs, pos, end):
        ncols = len(self.header)
        h = b.run(("table_header_cell",), pos, end)
        cells = b.run(("table_cell",), pos + h, end)
        rows = cells // ncols
        ok = (h == ncols) & (cells % ncols == 0) & (rows >= self.lo)
        if self.hi != UNBOUNDED:
            ok &= rows <= self.hi
        nh = np.where(ok, ncols, 0)
        hrun, hj = _segments(nh)
        head = pc.utf8_trim_whitespace(b.texts.take(pa.array(pos[hrun] + hj)))
        good = _np(pc.equal(head, pa.array(np.asarray(self.header)[hj])))
        ok &= _leading(good, hrun, hj, nh) == nh
        n = np.where(ok, cells, 0)
        run, j = _segments(n)
        at = pos[run] + h[run] + j
        col = j % ncols
        matched = np.ones(len(at), dtype=bool)
        for c, unit in enumerate(self.units):
            sel = col == c
            matched[sel], vals = unit.test(pc.utf8_trim_whitespace(
                b.texts.take(pa.array(at[sel]))))
            b.capture(unit.key, docs[run[sel]], vals, True)
        ok &= _leading(matched, run, j, n) == n
        return ok, pos + h + cells


def _step_for(block):
    if isinstance(block, Heading):
        unit = _Unit.of(block.inline)
        return unit and _Heading(block.level, unit)
    if isinstance(block, Paragraph):
        unit = _Unit.of(block.inline) if block.inline else None
        return unit and _Paragraph(unit)
    if isinstance(block, RepeatedParagraph):
        unit = _Unit.of(block.matcher)
        return unit and _RepeatedParagraph(unit)
    if isinstance(block, Ruler):
        return _Ruler()
    if isinstance(block, CodeBlock):
        lang = _Unit.of(block.lang) if block.lang is not None else None
        body = _Unit.of(block.body)
        if body is None or (block.lang is not None and lang is None):
            return None
        return _Code(lang, body)
    if isinstance(block, ListTemplate):
        unit = block.fast and _Unit.of(block.fast[0])
        return unit and _List(unit, block.fast[1])
    if isinstance(block, TableTemplate):
        if block.fast is None:
            return None
        header, matchers, _, lo, hi = block.fast
        units = [_Unit.of(m) for m in matchers]
        return None if None in units else _Table(header, units, lo, hi)
    return None


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class Plan:
    """The per-block plan of a compiled schema of ``nblocks`` blocks."""

    def __init__(self, steps: list, nblocks: int):
        self.steps, self.nblocks = steps, nblocks
        kinds = {k for s in steps for k in s.kinds}
        if "paragraph" in kinds:
            kinds |= INLINE_KINDS
        self.vocab = sorted(kinds | set(WHOLE_KINDS))

    def run(self, spans: pa.ListArray, walk) -> pa.Array:
        """Validate a batch: step every document through the plan, and
        hand each block a step cannot decide to ``walk``.  Returns the
        captures JSON of every document.

        ``walk(docs, blocks, pos)`` walks the schema ``blocks`` (a range)
        of each of ``docs`` from its document-local span cursor in
        ``pos``, keeps the violations and captures, and returns the
        cursors where the walk stopped.  A document that fails a step has
        the step's blocks walked from the step's start cursor and rejoins
        the plan at the next step from the walk's end cursor (a walked
        step fails every document); one that runs out of spans has its
        remaining blocks walked (each reports the missing block); one
        whose cursor ends short of its last span gets the walk's
        end-of-document check.  A document holding a ``WHOLE_KINDS``
        span, or a null span list, is walked whole."""
        b = _Batch(spans, self.vocab)
        nblocks = self.nblocks
        live = ~b.whole
        whole = np.flatnonzero(b.whole)
        if len(whole):
            walk(whole, range(nblocks), np.zeros(len(whole), np.int64))
        decided = np.zeros((len(self.steps), b.n), dtype=bool)
        for k, s in enumerate(self.steps):
            out = np.flatnonzero(live & (b.cur == b.end))
            if len(out):
                walk(out, range(s.blocks.start, nblocks),
                     b.end[out] - b.start[out])
                live[out] = False
            docs = np.flatnonzero(live)
            pos, end = b.cur[docs], b.end[docs]
            b.step = k
            ok, nxt = s.step(b, docs, pos, end)
            ok &= (nxt <= end) & b.judged(
                pos, np.minimum(nxt + s.lookahead, end))
            decided[k, docs[ok]] = True
            b.cur[docs[ok]] = nxt[ok]
            fail = docs[~ok]
            if len(fail):
                start = b.start[fail]
                b.cur[fail] = start + walk(fail, s.blocks, pos[~ok] - start)
                if s.blocks.stop == nblocks:
                    live[fail] = False      # the walk checked the end
        short = np.flatnonzero(live & (b.cur < b.end))
        if len(short):
            walk(short, range(nblocks, nblocks),
                 b.cur[short] - b.start[short])
        return _captures_json(b, decided, walk.captures)


def _captures_json(b: _Batch, decided: np.ndarray, walked: dict
                   ) -> pa.Array:
    """The captures JSON of every document: one ``,"key":value``
    fragment per key the plan captured where it ``decided`` the step,
    joined in sorted key order (``sort_keys``' order).  A document with
    ``walked`` captures (document -> dict) has the union re-encoded in
    Python: a block's keys are decided or walked, never both, and the
    plan's printable-ASCII values encode back byte for byte."""
    frags = {}
    for key, step, owners, values, is_list in b.captures:
        keep = decided[step, owners]
        if not keep.all():
            owners, values = owners[keep], values.filter(pa.array(keep))
        if b.quoted:
            values = pc.replace_substring(values, "\\", "\\\\")
            values = pc.replace_substring(values, '"', '\\"')
        counts = np.bincount(owners, minlength=b.n)
        offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        joined = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(offs), values, mask=pa.array(counts == 0)), '","')
        head = ",%s:%s" % (json.dumps(key), '["' if is_list else '"')
        frags[key] = pc.binary_join_element_wise(
            head, joined, '"]' if is_list else '"', "",
            null_handling="emit_null")
    if not frags:
        return pa.array([_ENCODE(walked.get(d, {})) for d in range(b.n)],
                        pa.string())
    # "replace", not "skip": pyarrow 16's skip mode drops the rows whose
    # inputs are all null
    body = pc.binary_join_element_wise(
        *(frags[k] for k in sorted(frags)), "", null_handling="replace",
        null_replacement="")
    body = pc.replace_substring(body, ",", "", max_replacements=1)
    out = pc.binary_join_element_wise("{", body, "}", "")
    docs = np.array(sorted(walked), dtype=np.int64)
    joined = [_ENCODE({**json.loads(plan), **walked[d]})
              for d, plan in zip(docs, out.take(docs).to_pylist())]
    return pc.replace_with_mask(out, pa.array(np.isin(np.arange(b.n), docs)),
                                pa.array(joined, pa.string()))


def _ids(node) -> list:
    """Every capture id in a schema node (a block, a part, or a list of
    them), repeats included.  A ``fast`` tuple is skipped: it only
    repeats matchers of the tree."""
    if isinstance(node, Matcher):
        return [node.capture_id] if node.capture_id else []
    if is_dataclass(node):
        node = [getattr(node, f.name) for f in fields(node)]
    if not isinstance(node, list):
        return []
    return [i for n in node for i in _ids(n)]


def build_plan(compiled) -> Plan:
    """The plan for ``compiled``: a step per block the plan can check
    column by column, and one walked step per run of the others -- those
    without a step, and those capturing an id captured more than once."""
    shared = {i for i, n in Counter(_ids(compiled.blocks)).items() if n > 1}
    steps: list = []
    for k, block in enumerate(compiled.blocks):
        step = None if shared & set(_ids(block)) else _step_for(block)
        if step is None and steps and isinstance(steps[-1], _Walked):
            steps[-1].blocks = range(steps[-1].blocks.start, k + 1)
            continue
        step = step or _Walked()
        step.blocks = range(k, k + 1)
        steps.append(step)
    return Plan(steps, len(compiled.blocks))


def plan_for(compiled) -> Plan:
    """:func:`build_plan` once per compiled schema in this process."""
    try:
        return compiled._columnar_plan
    except AttributeError:
        plan = build_plan(compiled)
        compiled._columnar_plan = plan
        return plan
