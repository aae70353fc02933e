"""STREAMING single-document validation — the chunked-stdin surface of
the reference engine (chunked reads + incremental reparse +
``farthest_reached_pos`` + partial-suffix tolerance before EOF:
/root/reference/src/cmd.rs:101-122, validator.rs:101-149, 161-185,
matchers.rs:176-203), re-expressed for the flat span walk.

The batch engine validates complete documents; this module validates ONE
document fed as text chunks of any size:

* each chunk extends a text TAIL; the tail is flattened only up to the
  last *stable cut* — a blank-line boundary, outside any code fence,
  whose following line starts a block that cannot merge backward (not a
  list item, not an indented continuation) — so the piecewise flatten
  provably equals the whole-document flatten (pinned by the differential
  tests);
* schema blocks walk the stable span prefix INCREMENTALLY via the same
  ``_eval_blocks`` the batch walk uses (identical constraint ids): a
  block whose sub-walk stops strictly before the end of the available
  spans is FINAL (the walker never revisits; later input cannot change
  it) — its violations surface immediately (the reference's fast-fail) —
  while a block that consumes to the end is deferred and re-run when
  more input arrives (the reference's partial-prefix tolerance);
* ``farthest_reached_pos`` is the span cursor after the last finalized
  block;
* char-level partial tolerance INSIDE the open block (the reference's
  pre-EOF compare, matchers.rs:176-203 / compare_text_contents.rs:88-105):
  each ``feed`` runs an optimistic probe of the deferred blocks over a
  provisional flatten of the tail — a matcher split mid-regex resolves
  (capture exposed in the feed status) at the chunk boundary, a literal
  whose available chars already diverge (and cannot be repaired by
  appended input — inline-safe text only) fails DEFINITIVELY at the
  boundary, and everything else waits;
* ``finish()`` flattens the remaining tail, walks the remaining blocks,
  adds the end-of-document structural checks, and returns an
  :class:`~mdvalidate_ray.evaluate.evaluator.EvalResult` equal to the
  batch ``evaluate_spans`` on the whole document (pinned by
  test_stream_validate equivalence sweeps).

Memory: O(spans + unstable tail), not O(chunks); per-chunk CPU is
O(tail), not O(document).  Honest limitation, as in the reference's
whole-tree reparse model: a link-reference DEFINITION arriving after a
reference to it was already flattened into the stable prefix would
retroactively change earlier spans — detected and rejected with
``StreamingUnsupported`` rather than silently diverging.
"""

from __future__ import annotations

import re

from mdvalidate_ray.evaluate.evaluator import (
    EvalResult,
    _Ctx,
    _eval_blocks,
    evaluate_spans,
)
from mdvalidate_ray.schema.compiler import compile_schema
from mdvalidate_ray.sources.markdown import (
    _LINKDEF_RE,
    _LIST_RE,
    markdown_to_spans,
)

# bracketed tokens that are reference USES (not inline links/images and
# not definitions): [label], [text][label]
_REF_USE_RE = re.compile(r"!?\[([^\]]+)\](?:\[([^\]]*)\])?(?!\()")

# Characters that can never OPEN an inline construct or escape one —
# text made only of these evolves append-only under more input (no
# retroactive re-flatten: '[x' -> link, '`x' -> code span, '*x*' ->
# emphasis, '&amp;' -> entity, '<x>' -> autolink/HTML, '\\x' -> escape
# are all excluded).  Used to decide when a char-level prefix
# divergence inside the still-open block is PERMANENT.
_INLINE_SAFE_RE = re.compile(r"^[^\[\]`*_~<>&\\!]*$")

# violation kinds emitted only after the walker has committed to a
# textual comparison (kind already matched) — candidates for the
# char-level definitive test
_CONTENT_KINDS = frozenset((
    "content_mismatch_literal", "content_mismatch_prefix",
    "content_mismatch_suffix", "content_mismatch_matcher"))
_PREFIXY_KINDS = frozenset((
    "content_mismatch_literal", "content_mismatch_prefix"))


class StreamingUnsupported(RuntimeError):
    """A construct whose meaning depends on input that arrived after its
    prefix was finalized (forward link-reference definition)."""


class StreamingDocValidator:
    """One document fed as text chunks; ``schema`` is the schema text or
    an already compiled ``CompiledSchema``."""

    def __init__(self, schema, fail_fast: bool = False,
                 optimistic: bool = True):
        self.schema = (compile_schema(schema) if isinstance(schema, str)
                       else schema)
        self.fail_fast = fail_fast
        self.optimistic = optimistic   # char-level probe at chunk bounds
        self.tail = ""                 # unstable text suffix
        self.spans: list = []          # stable span tuples (global offsets)
        self.block_index = 0           # next schema block to finalize
        self.span_pos = 0              # cursor after last finalized block
        self.violations: list = []
        self.captures: dict = {}
        self.farthest_reached_pos = 0
        self.lines_consumed = 0        # for global line numbers
        self.linkdefs: dict = {}
        self.ref_labels: set = set()   # labels referenced in stable text
        self.failed = False
        self.finished = False

    # ---- text-side machinery -------------------------------------------

    def _stable_cut(self, text: str) -> int:
        """Largest prefix length of ``text`` that is safe to flatten:
        ends at a blank-line run outside fences, and the next non-blank
        line starts a non-mergeable block.  0 if none."""
        lines = text.split("\n")
        in_fence = False
        cut_line = 0                   # lines [0, cut_line) are stable
        i = 0
        while i < len(lines):
            stripped = lines[i].strip()
            if stripped.startswith("```"):
                in_fence = not in_fence
                i += 1
                continue
            if not in_fence and stripped == "":
                # find next non-blank line
                j = i + 1
                while j < len(lines) and not lines[j].strip():
                    j += 1
                if j < len(lines):
                    nxt = lines[j]
                    if (not _LIST_RE.match(nxt)
                            and not nxt.startswith("    ")):
                        cut_line = j   # stable prefix = lines[:j]
            i += 1
        if cut_line == 0:
            return 0
        return sum(len(ln) + 1 for ln in lines[:cut_line])

    def _flatten_stable(self, stable_text: str) -> None:
        # forward-definition guard: a def in THIS region for a label
        # already referenced in an earlier finalized region
        new_defs = {}
        for ln in stable_text.split("\n"):
            dm = _LINKDEF_RE.match(ln)
            if dm:
                new_defs.setdefault(dm.group(1).lower(), dm.group(2))
        late = {k for k in new_defs
                if k in self.ref_labels and k not in self.linkdefs}
        if late:
            raise StreamingUnsupported(
                f"link-reference definition(s) {sorted(late)} arrived "
                "after a reference to them was finalized; stream the "
                "definitions first or validate in batch mode")
        for m in _REF_USE_RE.finditer(stable_text):
            label = (m.group(2) or m.group(1)).lower()
            if label:
                self.ref_labels.add(label)
        base = len(self.spans)
        base_line = self.lines_consumed
        for s in markdown_to_spans(stable_text,
                                   _outer_linkdefs=dict(self.linkdefs)):
            self.spans.append((s["kind"], s["text"],
                               s.get("media_ref"),
                               s.get("offset", 0) + base,
                               ))
        self.linkdefs.update(new_defs)
        self.lines_consumed = base_line + stable_text.count("\n")

    # ---- walk-side machinery -------------------------------------------

    def _advance(self, at_eof: bool) -> None:
        blocks = self.schema.blocks
        while self.block_index < len(blocks):
            ctx = _Ctx(spans=self.spans)
            ctx.pos = self.span_pos
            ctx.captures = dict(self.captures)
            _eval_blocks(ctx, [blocks[self.block_index]], "",
                         start=self.block_index)
            if not at_eof and ctx.pos >= len(self.spans):
                # consumed all available input: more chunks could change
                # this block's verdict -> defer (partial tolerance)
                return
            self.violations.extend(ctx.violations)
            self.captures = ctx.captures
            self.span_pos = ctx.pos
            self.farthest_reached_pos = ctx.pos
            self.block_index += 1
            if ctx.violations:
                self.failed = True
                if self.fail_fast:
                    return

    def _probe_open(self) -> "dict | None":
        """Char-level partial tolerance at a chunk boundary — the
        reference's pre-EOF compare (matchers.rs:176–203,
        helpers/compare_text_contents.rs:88–105) lifted to the span
        walk: optimistically flatten the UNSTABLE tail, walk the
        deferred blocks on a scratch context, and classify each
        violation as *recoverable* (more input could repair it — the
        reference's "partial match is OK, wait") or *definitive* (no
        appended input can: the available chars already diverge from a
        literal/prefix expectation, exactly the reference's
        ``schema_prefix_partial != input_prefix_str`` early error).

        A probe with zero violations RESOLVES the open block at the
        boundary — its optimistically-captured matcher values (the
        reference's partial ``matcher.match_str`` capture) are exposed
        in the returned status without being committed.

        Soundness (finish() must stay byte-identical to batch):
        nothing here mutates committed state; a *definitive* verdict
        additionally requires the violating text to be inline-safe
        (append-only under more input — ``[li`` may still become a
        link, so it never early-fails) unless the span is already in
        the finalized stable prefix, where text is immutable.
        """
        base = len(self.spans)
        probe_spans = list(self.spans)
        if self.tail:
            try:
                for s in markdown_to_spans(
                        self.tail, _outer_linkdefs=dict(self.linkdefs)):
                    probe_spans.append((s["kind"], s["text"],
                                        s.get("media_ref"),
                                        s.get("offset", 0) + base))
            except Exception:
                return None            # unparseable partial tail: wait
        blocks = self.schema.blocks
        ctx = _Ctx(spans=probe_spans)
        ctx.pos = self.span_pos
        ctx.captures = dict(self.captures)
        for bi in range(self.block_index, len(blocks)):
            _eval_blocks(ctx, [blocks[bi]], "", start=bi)
            if ctx.violations or ctx.pos >= len(probe_spans):
                break
        early_fail = False
        for v in ctx.violations:
            kind, exp, act = v["kind"], v["expected"], v["actual"]
            idx = v["span_index"]
            if idx < base and kind in _CONTENT_KINDS:
                # stable span: text immutable, comparison committed
                early_fail = True
                break
            if (kind in _PREFIXY_KINDS
                    and not exp.startswith(act)
                    and _INLINE_SAFE_RE.match(act)):
                # the chars we already have diverge (or overrun) the
                # literal expectation and can only be appended to
                early_fail = True
                break
        return {"resolved": not ctx.violations,
                "early_fail": early_fail,
                "captures": ctx.captures if not ctx.violations else {}}

    # ---- public surface --------------------------------------------------

    def feed(self, chunk: str) -> dict:
        """Add a text chunk; returns progress {"failed", "blocks_done",
        "farthest_reached_pos", "n_spans"} (fast-fail: stop feeding when
        ``failed`` and the validator was built with fail_fast)."""
        if self.finished:
            raise RuntimeError("feed() after finish()")
        self.tail += chunk
        cut = self._stable_cut(self.tail)
        if cut and not (self.failed and self.fail_fast):
            self._flatten_stable(self.tail[:cut])
            self.tail = self.tail[cut:]
            self._advance(at_eof=False)
        probe = None
        if (self.optimistic and not self.failed
                and self.block_index < len(self.schema.blocks)
                and (self.tail or self.span_pos < len(self.spans))):
            probe = self._probe_open()
            if probe is not None and probe["early_fail"]:
                self.failed = True
        return {"failed": self.failed,
                "blocks_done": self.block_index,
                "farthest_reached_pos": self.farthest_reached_pos,
                "n_spans": len(self.spans),
                "probe": probe}

    def finish(self) -> EvalResult:
        """EOF: flatten the remaining tail, finalize every block, add the
        end-of-document structural checks; equals batch
        ``evaluate_spans`` on the whole document."""
        if self.finished:
            raise RuntimeError("finish() called twice")
        self.finished = True
        if self.tail:
            self._flatten_stable(self.tail)
            self.tail = ""
        self._advance(at_eof=True)
        # the end-of-document check: the walk of no block from the cursor
        nb = len(self.schema.blocks)
        tail = evaluate_spans(self.spans, self.schema, blocks=range(nb, nb),
                              pos=self.span_pos)
        self.violations.extend(tail.violations)
        return EvalResult(passed=not self.violations,
                          violations=self.violations,
                          captures=self.captures, end=tail.end)


def validate_text_stream(chunks, schema_text: str,
                         fail_fast: bool = False) -> EvalResult:
    """Convenience driver: iterate text chunks through a
    :class:`StreamingDocValidator`; with ``fail_fast`` stops consuming
    input at the first finalized violation (the reference's ``-f`` on a
    stream — the rest of a 10-GB stdin is never read)."""
    v = StreamingDocValidator(schema_text, fail_fast=fail_fast)
    for c in chunks:
        st = v.feed(c)
        if fail_fast and st["failed"]:
            break
    return v.finish()
