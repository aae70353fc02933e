"""Compiled constraint AST — the engine's analog of the reference's parsed
schema tree + compiled matchers.

The reference parses an "mdschema" document with tree-sitter and keeps the
tree + per-node compiled ``Matcher`` objects for the lifetime of a run
(reference: src/mdschema/validation/validator.rs:22–25, 59–62;
src/mdschema/validation/matchers/matcher.rs:92–119).  Here the same contract
is a picklable tree of dataclasses compiled once on the driver and shipped to
``map_batches`` tasks.  The compiler hands back a tree the walk can run
as is: each ``Matcher`` compiles its regex when it is built, and list and
table templates carry their fast-path info.  A regex is only ever used
through ``.match``, which anchors it at the start of the text like the
reference's ^-prefixed regex (matcher.rs:332).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Schema-authoring (compile-time) errors — reference errors.rs:191–263.
# These fail the run before any data is read.
# ---------------------------------------------------------------------------

class SchemaError(ValueError):
    """A malformed mdschema. ``kind`` mirrors the reference's SchemaError
    variants (reference: src/mdschema/validation/errors.rs:191–263)."""

    MULTIPLE_MATCHERS = "multiple_matchers_in_node_children"
    REPEATING_IN_TEXT = "repeating_matcher_in_text_container"
    INVALID_EXTRAS = "invalid_matcher_extras"
    UNCLOSED_MATCHER = "unclosed_matcher"
    MATCHER_ERROR = "matcher_error"
    REPEATING_UNBOUNDED = "repeating_matcher_unbounded"

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.detail = message

    def __reduce__(self):
        # default Exception pickling breaks on multi-arg __init__; Ray ships
        # exceptions between processes, so keep this picklable
        return (SchemaError, (self.kind, self.detail))


# ---------------------------------------------------------------------------
# Violation kinds (runtime) — reference errors.rs:294–303, 320–397, 444–451,
# flattened to the snake_case taxonomy in FIXTURES.md.
# ---------------------------------------------------------------------------

class ViolationKind:
    NODE_TYPE_MISMATCH = "node_type_mismatch"
    CONTENT_LITERAL = "content_mismatch_literal"
    CONTENT_PREFIX = "content_mismatch_prefix"
    CONTENT_SUFFIX = "content_mismatch_suffix"
    CONTENT_MATCHER = "content_mismatch_matcher"
    CHILDREN_LENGTH = "children_length_mismatch"
    WRONG_LIST_COUNT = "wrong_list_count"
    LIST_TOO_DEEP = "node_list_too_deep"
    NOT_ENOUGH_REPEATING_PARAGRAPHS = "not_enough_nodes_for_repeating_paragraph"
    STRUCT_INPUT_HAS_CHILD = "malformed_structure_input_has_child"
    STRUCT_SCHEMA_HAS_CHILD = "malformed_structure_schema_has_child"
    STRUCT_TABLE_CELLS = "malformed_structure_mismatching_table_cells"
    STRUCT_MISSING_LIST_CONTENT = "malformed_structure_missing_list_item_content"
    STRUCT_EXTRA_LIST_ITEM = "malformed_structure_had_extra_list_item"
    # Declared for vocabulary parity with the reference (errors.rs:356–359)
    # but never emitted: the reference DECLARES NonRepeatingMatcherInList-
    # Context yet constructs it nowhere — its actual runtime behavior for a
    # non-repeating matcher in a list item is the textual fallback
    # (lists.rs:742 `Ok(matcher) if matcher.is_repeated() ... Ok(_) => None`
    # → single-item literal/matcher validation), which this engine matches.
    NON_REPEATING_MATCHER_IN_LIST = "non_repeating_matcher_in_list_context"
    # engine-level wide-constraint kinds (no reference analog)
    NULL_VIOLATION = "null_violation"
    DUPLICATE_DOC_ID = "duplicate_doc_id"
    DANGLING_MEDIA_REF = "dangling_media_ref"
    DRIFT_EXCEEDED = "drift_exceeded"


UNBOUNDED = -1  # max_items sentinel: `{m,}` / `{,}` repetition


@dataclass
class Matcher:
    """One compiled constraint matcher — reference matcher.rs:92–119 plus its
    extras (matcher_extras.rs:112–122).

    ``pattern is None`` means MatcherKind::All (bare `` `id` `` — capture
    everything).  ``min_items``/``max_items`` come from ``{m,n}`` extras;
    ``max_items == UNBOUNDED`` is `{m,}`.  ``is_literal_code`` is the ``!``
    extra (the code span is literal inline code, not a matcher).
    """

    capture_id: Optional[str] = None
    pattern: Optional[str] = None          # regex source, without the ^ anchor
    is_literal_code: bool = False
    literal_text: str = ""                 # used when is_literal_code
    min_items: int = 1
    max_items: int = 1
    had_min_max: bool = False
    # ``pattern`` compiled when the matcher is built (raises re.error on
    # a bad pattern); None for MatcherKind::All
    regex: Optional[re.Pattern] = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self):
        if self.pattern is not None:
            self.regex = re.compile(self.pattern)

    @property
    def is_repeating(self) -> bool:
        return self.had_min_max

    @property
    def unbounded(self) -> bool:
        return self.max_items == UNBOUNDED

    def match_text(self, text: str) -> Optional[str]:
        """Return the matched prefix of ``text`` or None.

        Bare matchers (pattern None) consume the whole text — reference
        MatcherKind::All (matcher.rs:106–112)."""
        if self.pattern is None:
            return text
        m = self.regex.match(text)
        return m.group(0) if m else None

    def describe(self) -> str:
        if self.pattern is None:
            return f"`{self.capture_id}`"
        return "^" + self.pattern


# ---------------------------------------------------------------------------
# Inline template parts (contents of a textual container)
# ---------------------------------------------------------------------------

@dataclass
class Literal:
    text: str


@dataclass
class MatcherPart:
    matcher: Matcher


@dataclass
class Emphasis:
    parts: list          # list[Literal | MatcherPart]


@dataclass
class Strong:
    parts: list


@dataclass
class CodeLiteral:
    """`` `text`! `` — a literal inline code span (reference
    matchers.rs:604–775, the ``WasLiteralCode`` path)."""
    text: str


@dataclass
class LinkPart:
    """Link / image in a schema paragraph (reference validators/links.rs).
    ``text`` and ``dest`` are each a Literal or a Matcher (curly-matcher
    grammar, walkers/helpers/curly_matchers.rs:11–29)."""
    text: Union[Literal, Matcher]
    dest: Union[Literal, Matcher]
    is_image: bool = False


InlinePart = Union[Literal, MatcherPart, Emphasis, Strong, CodeLiteral, LinkPart]


# ---------------------------------------------------------------------------
# Block template nodes
# ---------------------------------------------------------------------------

@dataclass
class Heading:
    level: int
    inline: list


@dataclass
class Paragraph:
    inline: list


@dataclass
class RepeatedParagraph:
    """`` `id`{m,n} `` alone in a paragraph: consumes m..n consecutive input
    paragraphs into an array capture (reference containers.rs:270–378)."""
    matcher: Matcher


@dataclass
class ListItemTemplate:
    inline: list                     # inline parts; a single repeating
                                     # MatcherPart makes this a repeated item
    children: Optional["ListTemplate"] = None

    @property
    def repeat_matcher(self) -> Optional[Matcher]:
        if len(self.inline) == 1 and isinstance(self.inline[0], MatcherPart):
            m = self.inline[0].matcher
            if m.is_repeating:
                return m
        return None


@dataclass
class ListTemplate:
    ordered: bool
    marker: str                      # '-', '*', '+' or '1.' — for messages
    items: list = field(default_factory=list)   # list[ListItemTemplate]
    # (matcher, span kind) when the walk's fast path applies: one
    # repeated-matcher item, no nested list (set by the compiler)
    fast: Optional[tuple] = field(default=None, repr=False, compare=False)


@dataclass
class Quote:
    inline: list
    # nested block templates when the quote body holds block-level
    # constructs (lists, code, multiple paragraphs, nested quotes);
    # None → plain inline-container quote
    blocks: Optional[list] = None


@dataclass
class CodeBlock:
    lang: Optional[Union[Literal, Matcher]]
    body: Union[Literal, Matcher]


@dataclass
class TableRowTemplate:
    cells: list                      # list[list[InlinePart]] per cell
    min_rep: int = 1
    max_rep: int = 1
    repeated: bool = False


@dataclass
class TableTemplate:
    header: list                     # list[list[InlinePart]]
    rows: list = field(default_factory=list)    # list[TableRowTemplate]
    # (header texts, matchers, columns, min_rep, max_rep) when the walk's
    # fast path applies (set by the compiler, see _table_fast_path)
    fast: Optional[tuple] = field(default=None, repr=False, compare=False)


@dataclass
class Ruler:
    pass


BlockNode = Union[
    Heading, Paragraph, RepeatedParagraph, ListTemplate, Quote,
    CodeBlock, TableTemplate, Ruler,
]


@dataclass
class CompiledSchema:
    """The full compiled constraint AST for one mdschema document.

    ``source`` keeps the original schema text for error reports.  Block
    constraint ids are ``b{i}`` in document order; nested positions extend
    the id with a dotted path (e.g. ``b2.item0``) — the engine's analog of
    the reference's ``schema_index`` half of NodePosPair
    (node_pos_pair.rs:4–53).
    """

    blocks: list = field(default_factory=list)
    source: str = ""
