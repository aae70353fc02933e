"""Property-based conformance: random (schema, conforming document) pairs
must validate; targeted mutations must produce the matching violation kind.

This generalizes the reference's golden-pair testing (every test_case! is
one hand-written (schema, doc, expectation) triple) to generated triples —
the batch analog of its chunk-size robustness sweep (cmd.rs:204–429)."""

import string

from hypothesis import given, settings, strategies as st

from mdvalidate_ray import compile_schema, evaluate_spans
from mdvalidate_ray.schema.spec import SchemaError, ViolationKind

WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
WORDS = st.lists(WORD, min_size=1, max_size=5).map(" ".join)


@st.composite
def heading_block(draw):
    level = draw(st.integers(1, 6))
    use_matcher = draw(st.booleans())
    text = draw(WORDS)
    if use_matcher:
        schema = "#" * level + " `t:/[a-z ]+/`"
        captures = {"t": text}
    else:
        schema = "#" * level + " " + text
        captures = {}
    return schema, [(f"heading{level}", text, "")], captures


@st.composite
def paragraph_block(draw):
    prefix = draw(WORDS)
    use_matcher = draw(st.booleans())
    if use_matcher:
        word = draw(WORD)
        schema = f"{prefix} `w:/[a-z]+/`"
        doc = [("paragraph", "", ""), ("text", f"{prefix} {word}", "")]
        return schema, doc, {"w": word}
    schema = prefix
    return schema, [("paragraph", "", ""), ("text", prefix, "")], {}


@st.composite
def list_block(draw):
    lo = draw(st.integers(1, 3))
    hi = draw(st.integers(lo, 5))
    n = draw(st.integers(lo, hi))
    items = [draw(WORD) + str(i) for i in range(n)]
    schema = f"- `it:/\\w+/`{{{lo},{hi}}}"
    doc = [("list_item", it, "") for it in items]
    return schema, doc, {"it": items}


@st.composite
def code_block(draw):
    lang = draw(WORD)
    body = draw(WORDS)
    schema = "```{lang:/[a-z]+/}\n{body}\n```"
    return schema, [("code_lang", lang, ""), ("code_body", body, "")], \
        {"lang": lang, "body": body}


@st.composite
def ruler_block(draw):
    return "---", [("ruler", "", "")], {}


@st.composite
def document(draw):
    raw = draw(st.lists(
        st.one_of(heading_block(), paragraph_block(), list_block(),
                  code_block(), ruler_block()),
        min_size=1, max_size=6))
    # adjacent sibling lists merge in the flat encoding (documented
    # limitation) — drop a list block that directly follows another
    blocks = []
    for b in raw:
        if blocks and b[0].startswith("- ") and blocks[-1][0].startswith("- "):
            continue
        blocks.append(b)
    schema_text = "\n\n".join(b[0] for b in blocks)
    spans = []
    captures: dict = {}
    for _, doc_spans, caps in blocks:
        for kind, text, ref in doc_spans:
            spans.append({"kind": kind, "text": text, "media_ref": ref,
                          "offset": len(spans)})
        for k, v in caps.items():
            if k in captures and isinstance(captures[k], list) \
                    and isinstance(v, list):
                captures[k] = captures[k] + v
            else:
                captures[k] = v
    return schema_text, spans, captures


@settings(max_examples=120, deadline=None)
@given(document())
def test_conforming_documents_pass(doc):
    schema_text, spans, expected_captures = doc
    r = evaluate_spans(spans, compile_schema(schema_text))
    assert r.passed, (schema_text, spans, r.violations)
    assert r.captures == expected_captures


@settings(max_examples=80, deadline=None)
@given(document())
def test_extra_trailing_span_fails(doc):
    schema_text, spans, _ = doc
    spans = spans + [{"kind": "ruler", "text": "", "media_ref": "",
                      "offset": len(spans)}]
    # a trailing ruler only conforms if the schema happens to end with a
    # ruler block — exclude that case
    if schema_text.rstrip().endswith("---"):
        return
    r = evaluate_spans(spans, compile_schema(schema_text))
    assert not r.passed
    assert any(v["kind"] in (ViolationKind.STRUCT_INPUT_HAS_CHILD,
                             ViolationKind.NODE_TYPE_MISMATCH,
                             ViolationKind.CHILDREN_LENGTH)
               for v in r.violations)


@settings(max_examples=80, deadline=None)
@given(document(), st.data())
def test_dropping_a_block_fails(doc, data):
    schema_text, spans, _ = doc
    if not spans:
        return
    if "{" in schema_text:
        return  # repetition/captures may legally absorb a dropped span
    r0 = evaluate_spans(spans, compile_schema(schema_text))
    assert r0.passed
    spans2 = spans[:-1]
    r = evaluate_spans(spans2, compile_schema(schema_text))
    assert not r.passed, (schema_text, spans2)


# --- markdown flattener robustness ------------------------------------------

@st.composite
def _random_markdown(draw):
    parts = draw(st.lists(st.sampled_from([
        "# Title", "## Sub", "Title\n=====", "Sub\n---", "para text",
        "*em* and **st**", "- item a\n- item b", "1. one\n2. two",
        "- wrap\n  cont", "- loose\n\n  extra", "- a\n\t- tab nested",
        "- a\n* b\n1. c", "> quoted", "> # Inner\n>\n> - q1",
        "> inline *em* quote", "```py\ncode\n```", "    indented code", "---",
        "| A | B |\n| --- | --- |\n| 1 | 2 |",
        "| L | C |\n| :---: | ---: |\n| a \\| b | c |",
        "See [x][d] now", "[nodef][zz] ref", "[d]: http://u",
        "```\n[f]: http://in-fence\n```", "    [e]: http://indented",
        "text `span` end", "![img](asset-1)", "<div>\nhtml\n</div>",
        "<!-- comment -->", "mail <a@b.org> or <http://x.org/p>",
        "hard\\\nbreak", "",
    ]), min_size=1, max_size=8))
    # a single newline puts a block directly after the previous one
    seps = draw(st.lists(st.sampled_from(["\n\n", "\n"]),
                         min_size=len(parts) - 1, max_size=len(parts) - 1))
    return parts[0] + "".join(sep + p for sep, p in zip(seps, parts[1:]))


@settings(max_examples=60, deadline=None)
@given(_random_markdown())
def test_markdown_flattener_total_and_deterministic(md):
    """The flattener must be total (no crash on any composition of
    supported constructs), deterministic, and produce only known span
    kinds with well-formed quote_end nesting."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    s1 = markdown_to_spans(md)
    s2 = markdown_to_spans(md)
    assert s1 == s2
    known = {"paragraph", "text", "emphasis", "strong_emphasis",
             "code_span", "link", "image", "quote", "quote_end",
             "list_item", "ordered_list_item", "list_break", "item_extra",
             "code_lang", "code_body", "ruler", "table_header_cell",
             "table_cell", "html_block"} | {f"heading{i}" for i in range(1, 7)}
    depth = 0
    for sp in s1:
        assert sp["kind"] in known, sp
        if sp["kind"] == "quote":
            depth += 1
        elif sp["kind"] == "quote_end":
            depth -= 1
            assert depth >= 0, "unbalanced quote_end"
    # every quote is closed (uniform encoding)
    assert depth == 0


@settings(max_examples=30, deadline=None)
@given(_random_markdown())
def test_markdown_evaluates_against_itself(md):
    """A document validated against the schema compiled from the SAME
    markdown text must never crash; plain literal documents (no matcher
    syntax, no constructs the compiler treats differently) should pass."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    try:
        schema = compile_schema(md)
    except SchemaError:
        return                      # markdown that is not a valid schema
    r = evaluate_spans(markdown_to_spans(md), schema)
    assert isinstance(r.passed, bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=0, max_size=60))
def test_skyline_kernel_matches_bruteforce(points):
    """Pure-kernel property test on tie-HEAVY grids (coords 0..6 force
    many exact duplicates and x/y ties — the branches a sorted-scan
    skyline gets wrong first): survivors must be exactly the
    non-dominated rows, duplicates of frontier points all kept."""
    import numpy as np

    from mdvalidate_ray.functions.relational import _skyline_2d_kernel

    x = np.array([p[0] for p in points], dtype=np.int64)
    y = np.array([p[1] for p in points], dtype=np.int64)
    keep = _skyline_2d_kernel(x, y)
    for i in range(len(points)):
        dominated = bool(np.any((x >= x[i]) & (y >= y[i])
                                & ((x > x[i]) | (y > y[i]))))
        assert keep[i] == (not dominated), (points, i)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=0, max_size=50),
       st.integers(2, 6))
def test_prefix_max_seed_fold_property(vals, n_parts):
    """The range-bucket prefix-max DECOMPOSITION invariant (pure math,
    no Ray): folding per-bucket maxima into exclusive seeds and then
    prefix-maxing inside each bucket must reproduce the flat exclusive
    running max, for any bucket split of the sorted sequence."""
    import numpy as np

    v = np.array(sorted(vals), dtype=np.int64)   # key-sorted order
    n = len(v)
    SENT = np.int64(-(2 ** 63))
    flat = np.concatenate(([SENT], np.maximum.accumulate(v)[:-1])) \
        if n else np.zeros(0, dtype=np.int64)
    # arbitrary contiguous bucket split
    cuts = np.linspace(0, n, n_parts + 1).astype(int)
    totals = np.full(n_parts, SENT, dtype=np.int64)
    for b in range(n_parts):
        seg = v[cuts[b]:cuts[b + 1]]
        if len(seg):
            totals[b] = seg.max()
    seeds = np.concatenate(([SENT], np.maximum.accumulate(totals)[:-1]))
    got = np.empty(n, dtype=np.int64)
    for b in range(n_parts):
        seg = v[cuts[b]:cuts[b + 1]]
        if not len(seg):
            continue
        run = np.maximum.accumulate(seg)
        prev = np.concatenate(([SENT], run[:-1]))
        got[cuts[b]:cuts[b + 1]] = np.maximum(prev, seeds[b])
    assert (got == flat).all()
