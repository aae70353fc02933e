"""FIXTURES.md group A — span-structure conformance, transcribed from the
reference's golden integration tests (/root/reference/tests/*; the test_case!
macro asserts exact (errors, matches) pairs, tests/helpers/mod.rs:5–30).

Pure-Python tests of the conformance core (compiler + evaluator) — no Ray.
"""

import pytest

from mdvalidate_ray import compile_schema, evaluate_spans
from mdvalidate_ray.schema.spec import SchemaError, ViolationKind


def span(kind, text="", media_ref="", offset=0):
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


def spans(*items):
    out = []
    for i, it in enumerate(items):
        s = dict(it)
        s["offset"] = i
        out.append(s)
    return out


def run(schema_text, *doc_spans):
    return evaluate_spans(spans(*doc_spans), compile_schema(schema_text))


def kinds(result):
    return [v["kind"] for v in result.violations]


# --- A1 heading-literal (reference tests/headings.rs `heading_literal`) -----

def test_a1_heading_literal_pass():
    r = run("# Hi", span("heading1", "Hi"))
    assert r.passed and r.captures == {}


def test_a1_heading_literal_fail():
    r = run("# Hi", span("heading1", "Bye"))
    assert not r.passed
    assert kinds(r) == [ViolationKind.CONTENT_LITERAL]
    assert r.violations[0]["expected"] == "Hi"
    assert r.violations[0]["actual"] == "Bye"


# --- A2 heading-matcher (tests/headings.rs `heading_matcher`) ---------------

def test_a2_heading_matcher():
    r = run(r"# `name:/\w+/`", span("heading1", "Alice"))
    assert r.passed
    assert r.captures == {"name": "Alice"}


# --- A3 heading-level-mismatch (tests/headings.rs `heading_mismatch`) -------

def test_a3_heading_level_mismatch():
    r = run("# Hi", span("heading2", "Hi"))
    assert not r.passed
    assert kinds(r) == [ViolationKind.NODE_TYPE_MISMATCH]
    assert r.violations[0]["expected"] == "heading1"
    assert r.violations[0]["actual"] == "heading2"


# --- A4 text-matcher-prefix (tests/matchers.rs `matcher_with_prefix`) -------

def test_a4_matcher_with_prefix():
    r = run(r"hi `name:/\w+/`", span("paragraph"), span("text", "hi Bob"))
    assert r.passed
    assert r.captures == {"name": "Bob"}


def test_a4_prefix_mismatch():
    r = run(r"hi `name:/\w+/`", span("paragraph"), span("text", "yo Bob"))
    assert not r.passed
    assert kinds(r) == [ViolationKind.CONTENT_PREFIX]


# --- A5 matcher-mismatch (tests/matchers.rs `matcher_mismatch`) -------------

def test_a5_matcher_mismatch():
    r = run("`name:/[a-z]+/`", span("paragraph"), span("text", "123"))
    assert not r.passed
    v = r.violations[0]
    assert v["kind"] == ViolationKind.CONTENT_MATCHER
    assert v["expected"] == "^[a-z]+"
    assert v["actual"] == "123"


# --- A6 literal-mismatch (tests/textual.rs `textual_mismatch`) --------------

def test_a6_literal_mismatch():
    r = run("hello", span("paragraph"), span("text", "hi"))
    assert not r.passed
    assert kinds(r) == [ViolationKind.CONTENT_LITERAL]


# --- A7 list-repeat-bounds (lists.rs:205–264) -------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_a7_list_repeat_in_bounds(n):
    items = [span("list_item", f"word{i}") for i in range(n)]
    r = run(r"- `item:/\w+/`{2,4}", *items)
    assert r.passed
    assert r.captures == {"item": [f"word{i}" for i in range(n)]}


def test_a7_list_repeat_too_few():
    r = run(r"- `item:/\w+/`{2,4}", span("list_item", "only"))
    assert not r.passed
    assert ViolationKind.CHILDREN_LENGTH in kinds(r)


def test_a7_list_repeat_too_many():
    items = [span("list_item", f"w{i}") for i in range(5)]
    r = run(r"- `item:/\w+/`{2,4}", *items)
    assert not r.passed
    assert ViolationKind.CHILDREN_LENGTH in kinds(r)


# --- A8 nested-list captures, unpack-same-id rule (lists.rs:343–390;
#     walkers/node_walker.rs test :120–140) --------------------------------

def test_a8_nested_list_captures():
    schema = "- `item1:/\\w+/`{1,1}\n  - `item2:/\\w+/`{2,2}"
    r = run(
        schema,
        span("list_item", "apple"),
        span("list_item", "\tbanana"),
        span("list_item", "\tcherry"),
    )
    assert r.passed, r.violations
    assert r.captures == {"item1": ["apple", {"item2": ["banana", "cherry"]}]}


def test_a8_same_id_unpacks():
    schema = "- `item:/\\w+/`{1,1}\n  - `item:/\\w+/`{2,2}"
    r = run(
        schema,
        span("list_item", "apple"),
        span("list_item", "\tbanana"),
        span("list_item", "\tcherry"),
    )
    assert r.passed, r.violations
    assert r.captures == {"item": ["apple", "banana", "cherry"]}


# --- A9 unbounded-not-last → schema compile error (errors.rs:218–259) -------

def test_a9_unbounded_repeater_must_be_last():
    with pytest.raises(SchemaError) as e:
        compile_schema("- `a:/./`{,}\n- `b:/./`{,2}")
    assert e.value.kind == SchemaError.REPEATING_UNBOUNDED


# --- A10 repeated-paragraph (containers.rs:270–378) -------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_a10_repeated_paragraph(n):
    doc = []
    for i in range(n):
        doc += [span("paragraph"), span("text", f"para {i}")]
    r = run("`description`{2,3}", *doc)
    assert r.passed
    assert r.captures == {"description": [f"para {i}" for i in range(n)]}


def test_a10_repeated_paragraph_too_few():
    r = run("`description`{2,3}", span("paragraph"), span("text", "only one"))
    assert not r.passed
    assert ViolationKind.NOT_ENOUGH_REPEATING_PARAGRAPHS in kinds(r)


# --- A11 code-block (tests/code.rs; tests/misc.rs:40–72) --------------------

def test_a11_code_block():
    schema = "```{lang:/\\w+/}\n{code}\n```"
    r = run(schema, span("code_lang", "python"),
            span("code_body", 'print("hi")'))
    assert r.passed, r.violations
    assert r.captures == {"lang": "python", "code": 'print("hi")'}


def test_a11_code_block_literal_lang():
    schema = "```python\n{code}\n```"
    r = run(schema, span("code_lang", "rust"), span("code_body", "fn main(){}"))
    assert not r.passed
    assert ViolationKind.CONTENT_LITERAL in kinds(r)


# --- A12/A13 link destination (tests/links.rs) ------------------------------

def test_a12_link_dest_matcher():
    r = run(r"[hi]({foo:/\w+/})", span("paragraph"),
            span("link", "hi", media_ref="hello"))
    assert r.passed, r.violations
    assert r.captures == {"foo": "hello"}


def test_a13_link_dest_mismatch():
    r = run("[hi](https://example.com)", span("paragraph"),
            span("link", "hi", media_ref="https://different.com"))
    assert not r.passed
    v = r.violations[0]
    assert v["kind"] == ViolationKind.CONTENT_LITERAL
    assert v["expected"] == "https://example.com"
    assert v["actual"] == "https://different.com"


# --- A14 table-repeated-rows (tests/tables.rs:31–116) -----------------------

TABLE_SCHEMA = (
    "| Item | Price |\n"
    "| --- | --- |\n"
    "| `item:/\\w+/` | `price:/\\d+/` |{,3}"
)


def test_a14_table_repeated_rows():
    doc = [
        span("table_header_cell", "Item"), span("table_header_cell", "Price"),
        span("table_cell", "apple"), span("table_cell", "3"),
        span("table_cell", "pear"), span("table_cell", "5"),
        span("table_cell", "fig"), span("table_cell", "7"),
    ]
    r = run(TABLE_SCHEMA, *doc)
    assert r.passed, r.violations
    assert r.captures == {"item": ["apple", "pear", "fig"],
                          "price": ["3", "5", "7"]}


def test_a14_table_bad_price():
    doc = [
        span("table_header_cell", "Item"), span("table_header_cell", "Price"),
        span("table_cell", "apple"), span("table_cell", "cheap"),
    ]
    r = run(TABLE_SCHEMA, *doc)
    assert not r.passed
    assert ViolationKind.CONTENT_MATCHER in kinds(r)


# --- A15 quote-matcher (tests/quotes.rs `blockquote_with_matcher`) ----------

def test_a15_quote_matcher():
    r = run("> This is `code:/.*/`", span("quote"),
            span("text", "This is test123"))
    assert r.passed, r.violations
    assert r.captures == {"code": "test123"}


# --- A16 structure-extra-node (tests/misc.rs `node_children_mismatch`) ------

def test_a16_input_has_extra_node():
    r = run("", span("heading1", "Hi"))
    assert not r.passed
    assert kinds(r) == [ViolationKind.STRUCT_INPUT_HAS_CHILD]


def test_a16_schema_has_extra_node():
    r = run("# Hi")  # no spans at all
    assert not r.passed
    assert kinds(r) == [ViolationKind.STRUCT_SCHEMA_HAS_CHILD]


# --- A17 list-kind classing (compare_node_kinds.rs:35–63) -------------------

def test_a17_ordered_vs_unordered_fails():
    r = run("- a", span("ordered_list_item", "a"))
    assert not r.passed
    v = r.violations[0]
    assert v["kind"] == ViolationKind.NODE_TYPE_MISMATCH
    assert v["expected"] == "tight_list(-)"
    assert v["actual"] == "tight_list(1.)"


@pytest.mark.parametrize("marker", ["-", "*", "+"])
def test_a17_unordered_markers_same_class(marker):
    r = run(f"{marker} a", span("list_item", "a"))
    assert r.passed, r.violations


# --- A18 cell-trim (ts_utils.rs:15–24) --------------------------------------

def test_a18_cells_compared_trimmed():
    schema = "| Name |\n| --- |\n| Bob |"
    doc = [span("table_header_cell", "  Name  "), span("table_cell", " Bob ")]
    r = run(schema, *doc)
    assert r.passed, r.violations


# --- A19 kitchen-sink (tests/misc.rs:40–72) ---------------------------------

def test_a19_kitchen_sink():
    schema = (
        "# `title:/\\w+/`\n"
        "\n"
        "| K | V |\n"
        "| --- | --- |\n"
        "| `k:/\\w+/` | `v:/\\d+/` |{,2}\n"
        "\n"
        "- `thing:/\\w+/`{2,3}\n"
        "\n"
        "```{lang:/\\w+/}\n"
        "{body}\n"
        "```"
    )
    doc = [
        span("heading1", "Report"),
        span("table_header_cell", "K"), span("table_header_cell", "V"),
        span("table_cell", "a"), span("table_cell", "1"),
        span("table_cell", "b"), span("table_cell", "2"),
        span("list_item", "x"), span("list_item", "y"),
        span("code_lang", "sql"), span("code_body", "select 1"),
    ]
    r = run(schema, *doc)
    assert r.passed, r.violations
    assert r.captures == {
        "title": "Report", "k": ["a", "b"], "v": ["1", "2"],
        "thing": ["x", "y"], "lang": "sql", "body": "select 1",
    }


# --- compile-time schema errors (errors.rs:191–263) -------------------------

def test_multiple_matchers_in_container_rejected():
    with pytest.raises(SchemaError) as e:
        compile_schema(r"`a:/\w+/` and `b:/\w+/`")
    assert e.value.kind == SchemaError.MULTIPLE_MATCHERS


def test_unclosed_matcher_rejected():
    with pytest.raises(SchemaError) as e:
        compile_schema("start `oops")
    assert e.value.kind == SchemaError.UNCLOSED_MATCHER


def test_bad_regex_rejected():
    with pytest.raises(SchemaError) as e:
        compile_schema("`x:/[unclosed/`")
    assert e.value.kind == SchemaError.MATCHER_ERROR


def test_literal_bang_with_reps_rejected():
    with pytest.raises(SchemaError) as e:
        compile_schema("`code`!{2,3}")
    assert e.value.kind == SchemaError.INVALID_EXTRAS


def test_repeating_matcher_in_text_container_rejected():
    with pytest.raises(SchemaError) as e:
        compile_schema(r"prefix `x:/\w+/`{2,3} suffix")
    assert e.value.kind == SchemaError.REPEATING_IN_TEXT


# --- literal inline code `text`! (matchers.rs:604–775) ----------------------

def test_literal_code_span():
    r = run("run `make`! now",
            span("paragraph"), span("text", "run "),
            span("code_span", "make"), span("text", " now"))
    assert r.passed, r.violations


def test_literal_code_span_mismatch():
    r = run("run `make`! now",
            span("paragraph"), span("text", "run "),
            span("code_span", "cmake"), span("text", " now"))
    assert not r.passed
    assert ViolationKind.CONTENT_LITERAL in kinds(r)


# --- emphasis / strong ------------------------------------------------------

def test_emphasis_and_strong():
    r = run("plain *em* **bold**",
            span("paragraph"), span("text", "plain "),
            span("emphasis", "em"), span("text", " "),
            span("strong_emphasis", "bold"))
    assert r.passed, r.violations


def test_emphasis_kind_mismatch():
    r = run("*em*", span("paragraph"), span("strong_emphasis", "em"))
    assert not r.passed
    assert ViolationKind.NODE_TYPE_MISMATCH in kinds(r)


# --- ruler ------------------------------------------------------------------

def test_ruler():
    r = run("---", span("ruler"))
    assert r.passed


def test_ruler_mismatch():
    r = run("---", span("paragraph"), span("text", "x"))
    assert not r.passed
    assert ViolationKind.NODE_TYPE_MISMATCH in kinds(r)


# --- NodeListTooDeep (errors.rs NodeListTooDeep) ----------------------------

def test_list_nested_deeper_than_schema():
    r = run("- `item:/\\w+/`{1,2}",
            span("list_item", "top"),
            span("list_item", "\tnested"))
    assert not r.passed
    assert ViolationKind.LIST_TOO_DEEP in kinds(r)


# --- sandwich table rows (tables.rs:483–546) --------------------------------

def test_table_sandwich_literal_footer_after_repeated_rows():
    schema = ("| Item | Price |\n"
              "| --- | --- |\n"
              "| `item:/\\w+/` | `price:/\\d+/` |{,3}\n"
              "| Total | `total:/\\d+/` |")
    doc = [
        span("table_header_cell", "Item"), span("table_header_cell", "Price"),
        span("table_cell", "apple"), span("table_cell", "3"),
        span("table_cell", "pear"), span("table_cell", "5"),
        span("table_cell", "Total"), span("table_cell", "8"),
    ]
    r = run(schema, *doc)
    assert r.passed, r.violations
    assert r.captures == {"item": ["apple", "pear"], "price": ["3", "5"],
                          "total": "8"}


def test_table_sandwich_missing_footer_fails():
    schema = ("| Item | Price |\n"
              "| --- | --- |\n"
              "| `item:/\\w+/` | `price:/\\d+/` |{,3}\n"
              "| Total | `total:/\\d+/` |")
    doc = [
        span("table_header_cell", "Item"), span("table_header_cell", "Price"),
        span("table_cell", "apple"), span("table_cell", "3"),
    ]
    r = run(schema, *doc)
    # the reservation rule hands the only doc row to the literal footer
    # template, which rejects "apple" vs "Total"
    assert not r.passed
    assert ViolationKind.CONTENT_LITERAL in kinds(r)


# --- adjacent sibling lists (reference: distinct list nodes; lists.rs) ------

def test_adjacent_sibling_lists_validate_separately():
    # two schema lists, two doc lists separated by a list_break marker:
    # each list validates against its own template
    schema = "- `a:/\\w+/`{1,3}\n\n1. `b:/\\w+/`{1,3}\n"
    r = run(schema,
            span("list_item", "one"), span("list_item", "two"),
            span("list_break"),
            span("ordered_list_item", "three"))
    assert r.passed, r.violations
    assert r.captures == {"a": ["one", "two"], "b": ["three"]}


def test_adjacent_lists_do_not_merge_into_one_template():
    # ONE schema list but TWO adjacent doc lists: the second list must NOT
    # silently extend the first (the reference keeps them distinct nodes)
    schema = "- `a:/\\w+/`{1,9}\n"
    r = run(schema,
            span("list_item", "one"),
            span("list_break"),
            span("list_item", "two"))
    assert not r.passed
    assert r.captures.get("a") == ["one"]
    assert ViolationKind.STRUCT_INPUT_HAS_CHILD in kinds(r)


def test_same_class_lists_without_break_merge_as_before():
    # no marker → one list (the loose-list case): both items match
    schema = "- `a:/\\w+/`{1,9}\n"
    r = run(schema, span("list_item", "one"), span("list_item", "two"))
    assert r.passed, r.violations
    assert r.captures == {"a": ["one", "two"]}


# --- non-repeating matcher in a list item -----------------------------------
# The reference DECLARES NonRepeatingMatcherInListContext (errors.rs:356)
# but never constructs it; its runtime behavior is the textual fallback
# (lists.rs:742: a non-repeated matcher extracts as None → literal/textual
# validation of the single item).  These pin our matching behavior.

def test_non_repeating_matcher_in_list_single_item_matches():
    r = run("- `x:/\\w+/`\n", span("list_item", "hello"))
    assert r.passed, r.violations
    assert r.captures == {"x": "hello"}


def test_non_repeating_matcher_in_list_two_items_fails():
    # textual fallback implies exact sibling-count equality for literal
    # lists (lists.rs:406-455): a second item is a structure violation
    r = run("- `x:/\\w+/`\n", span("list_item", "hello"),
            span("list_item", "world"))
    assert not r.passed


# --- nested blocks inside quotes (quotes.rs:63-66 container delegation) -----

def test_quote_with_nested_blocks():
    schema = "> # `h:/\\w+/`\n>\n> - `x:/\\w+/`{1,4}\n"
    doc = [
        span("quote"),
        span("heading1", "Inner"),
        span("list_item", "a"), span("list_item", "b"),
        span("quote_end"),
    ]
    r = run(schema, *doc)
    assert r.passed, r.violations
    assert r.captures == {"h": "Inner", "x": ["a", "b"]}


def test_quote_nested_blocks_missing_child_fails():
    schema = "> # Title\n>\n> - item\n"
    r = run(schema, span("quote"), span("heading1", "Title"),
            span("quote_end"))
    assert not r.passed
    assert ViolationKind.STRUCT_SCHEMA_HAS_CHILD in kinds(r)


def test_quote_nested_extra_child_fails():
    schema = "> # Title\n>\n> - item\n"   # blocky: heading + list
    r = run(schema, span("quote"), span("heading1", "Title"),
            span("list_item", "item"), span("paragraph"),
            span("text", "extra"), span("quote_end"))
    assert not r.passed
    assert ViolationKind.STRUCT_INPUT_HAS_CHILD in kinds(r)


def test_quote_inline_still_inline():
    # a single-paragraph quote stays an inline container (no regression)
    r = run("> hello\n", span("quote"), span("text", "hello"))
    assert r.passed, r.violations


def test_inline_quote_nested_inside_blocky_quote():
    # regression: the blocky body scan must not miscount an inline quote
    # (every quote body closes with quote_end in the uniform encoding)
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = "> # Inner\n>\n> > hello\n"
    r = evaluate_spans(markdown_to_spans(md),
                       compile_schema("> # Inner\n>\n> > hello\n"))
    assert r.passed, r.violations


def test_multi_paragraph_list_item_matches_reference_behavior():
    # the reference validates only an item's FIRST paragraph
    # (lists.rs:568-581: marker -> next sibling must be THE paragraph);
    # extra item paragraphs flatten as transparent item_extra spans
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = "- item one\n\n  extra para\n- item two\n\nAfter\n"
    spans = markdown_to_spans(md)
    kinds = [s["kind"] for s in spans]
    assert kinds == ["list_item", "item_extra", "list_item",
                     "paragraph", "text"]
    r = evaluate_spans(spans, compile_schema("- `x:/[\\w ]+/`{1,3}\n\nAfter\n"))
    assert r.passed, r.violations
    assert r.captures == {"x": ["item one", "item two"]}


def test_loose_item_multiple_extras_and_tab_indent():
    # review regressions: 3+-paragraph loose items and tab-indented
    # continuations must stay inside the item (transparent extras)
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = "- item one\n\n  extra a\n\n  extra b\n- item two\n\nAfter\n"
    kinds = [s["kind"] for s in markdown_to_spans(md)]
    assert kinds == ["list_item", "item_extra", "item_extra", "list_item",
                     "paragraph", "text"]
    md2 = "- item one\n\n\textra a\n- item two\n"
    kinds2 = [s["kind"] for s in markdown_to_spans(md2)]
    assert kinds2 == ["list_item", "item_extra", "list_item"]


# --- rich heading inline content (reference tests/links.rs
# link_inside_heading; tests/textual_container.rs
# heading_link_and_text_matchers, paragraph_mixed_literal) --------------------

def _full(schema_md, doc_md):
    from mdvalidate_ray.sources.markdown import markdown_to_spans
    return evaluate_spans(markdown_to_spans(doc_md),
                          compile_schema(schema_md))


def test_link_inside_heading():
    r = _full(r"# [hi]({url:/.*/}) `other:/\w+/`",
              "# [hi](https://example.com) hi")
    assert r.passed, r.violations
    assert r.captures == {"url": "https://example.com", "other": "hi"}


def test_heading_link_dest_mismatch():
    r = _full("# [hi](https://a.com)", "# [hi](https://b.com)")
    assert not r.passed


def test_heading_mixed_emphasis_literal():
    r = _full("# hello *there*", "# hello *there*")
    assert r.passed, r.violations


def test_image_literal_markdown_roundtrip():
    r = _full("![alt](image.png)", "![alt](image.png)")
    assert r.passed, r.violations


def test_ruler_stars_same_class():
    # reference tests/rulers.rs ruler_stars: *** and --- are both rulers
    r = _full("---", "***")
    assert r.passed, r.violations


def test_complicated_multiple_doc_children_markdown_roundtrip():
    # reference tests/misc.rs complicated_multiple_doc_children_example —
    # full markdown → spans → validate, exact captures parity
    schema = (
        "\n# Hi `name:/[A-Z][a-z]*/`\n\n"
        "| Header 1 | Header `num:/\\d/` |\n"
        "|----------|----------|\n"
        "| Cell 1   | Cell 2   |\n\n"
        "- `items:/.*/`{,}\n\n"
        "```{lang:/\\w+/}\n{code}\n```\n"
    )
    doc = (
        "\n# Hi Wolf\n\n"
        "| Header 1 | Header 2 |\n"
        "|----------|----------|\n"
        "| Cell 1   | Cell 2   |\n\n"
        "- apples\n- bananas\n\n"
        "```python\nprint(\"hi\")\n```\n"
    )
    r = _full(schema, doc)
    assert r.passed, r.violations
    assert r.captures == {"name": "Wolf", "num": "2",
                          "items": ["apples", "bananas"],
                          "lang": "python", "code": 'print("hi")'}


def test_complicated_example_fails_out_of_order():
    # reference tests/misc.rs complicated_multiple_doc_children_example_fails
    r = _full("\n# Hi `name:/[A-Z][a-z]*/`\n\n- item\n",
              "\n- item\n\n# Hi Wolf\n")
    assert not r.passed


@pytest.mark.parametrize("schema,doc,want_pass,want_caps", [
    ("> This is a quote\n", "> This is a quote\n", True, {}),
    ("> This is a quote\n", "> Different text\n", False, {}),
    ("> Level 1\n> > Level 2\n", "> Level 1\n> > Level 2\n", True, {}),
    ("> This is `code:/.*/`\n", "> This is test123\n", True,
     {"code": "test123"}),
])
def test_quotes_rs_markdown_roundtrip(schema, doc, want_pass, want_caps):
    # reference tests/quotes.rs: simple_blockquote / blockquote_mismatch /
    # nested_blockquote / blockquote_with_matcher via the full markdown path
    r = _full(schema, doc)
    assert r.passed == want_pass, r.violations
    if want_pass:
        assert r.captures == want_caps


# --- r3 fidelity: escaped pipes, HTML blocks, hard line breaks ---------------

def test_escaped_pipe_in_table_cells():
    """``\\|`` is a literal pipe inside a cell on BOTH sides (schema and
    input unescape identically), not a cell separator."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans("| a \\| b | c |\n| --- | --- |\n"
                              "| x \\| y | z |\n")
    cells = [(s["kind"], s["text"]) for s in spans]
    assert cells == [("table_header_cell", "a | b"),
                     ("table_header_cell", "c"),
                     ("table_cell", "x | y"), ("table_cell", "z")]

    r = _full("| a \\| b | c |\n| --- | --- |\n| x \\| y | `v` |",
              "| a \\| b | c |\n| --- | --- |\n| x \\| y | hello |")
    assert r.passed, r.violations
    assert r.captures == {"v": "hello"}
    bad = _full("| a \\| b |\n| --- |\n| lit |",
                "| a \\| b |\n| --- |\n| other |")
    assert not bad.passed


def test_html_block_is_opaque_span():
    """Block-level HTML flattens to ONE opaque html_block span (the
    tree-sitter html_block node); a schema expecting a paragraph there
    reports a kind mismatch, matching the reference's dispatch
    fallback."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = "before\n\n<div class=\"x\">\n  <b>raw</b>\n</div>\n\nafter\n"
    spans = markdown_to_spans(md)
    kinds = [s["kind"] for s in spans]
    assert kinds == ["paragraph", "text", "html_block",
                     "paragraph", "text"]
    html = next(s for s in spans if s["kind"] == "html_block")
    assert html["text"] == "<div class=\"x\">\n  <b>raw</b>\n</div>"

    r = _full("before\n\nmiddle\n\nafter", md)
    assert not r.passed
    assert any(v["kind"] == "node_type_mismatch" for v in r.violations)


def test_entity_references_stay_literal():
    """``&amp;`` / ``&#64;`` / ``&copy;`` are LITERAL text bytes on both
    sides, never decoded: the reference's node taxonomy
    (ts_types.rs:33–203) has no entity node kind, so entities flow
    through TextualVsTextual as raw text — schema ``&amp;`` matches
    input ``&amp;`` and does NOT match a decoded ``&``."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans("a &amp; b &#64; c &copy; d\n")
    assert [s["kind"] for s in spans] == ["paragraph", "text"]
    assert spans[1]["text"] == "a &amp; b &#64; c &copy; d"

    same = _full("x &amp; y", "x &amp; y")
    assert same.passed, same.violations
    decoded = _full("x &amp; y", "x & y")
    assert not decoded.passed
    # matcher capture sees the raw entity bytes too
    cap = _full("v: `val`", "v: &amp;&#64;")
    assert cap.passed, cap.violations
    assert cap.captures.get("val") == "&amp;&#64;"


def test_hard_line_break_backslash_stripped():
    """A trailing backslash is a hard-break MARKER, not paragraph text:
    the break survives as the newline join, the backslash does not."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans("line one\\\nline two\n")
    assert [s["kind"] for s in spans] == ["paragraph", "text"]
    assert spans[1]["text"] == "line one\nline two"
    # escaped backslash at EOL is literal text, not a break marker
    spans2 = markdown_to_spans("keep \\\\\nnext\n")
    assert spans2[1]["text"] == "keep \\\\\nnext"


# --- cursor-positioned sub-walk harness (reference ValidatorTester,
# walkers/validators/mod.rs:54–235) ------------------------------------------

def test_evaluate_block_at_positions():
    """Each schema block can be driven in isolation at an arbitrary span
    cursor (``evaluate_spans(blocks=range(k, k + 1), pos=p)``): the
    sub-walk reports only ITS violations/captures and where the cursor
    stopped — no end-of-document structural noise before the last
    block."""
    from mdvalidate_ray.evaluate.evaluator import evaluate_spans
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    schema = compile_schema("# `title:/\\w+/`\n\nliteral intro\n\n"
                            "- `tag:/\\w+/`{1,2}\n")
    spans = markdown_to_spans("# Hello\n\nliteral intro\n\n- a\n- b\n")

    def block_at(k, pos):
        return evaluate_spans(spans, schema, blocks=range(k, k + 1),
                              pos=pos)

    # block 0 (heading) at pos 0: consumes the heading, captures title
    r0 = block_at(0, 0)
    assert r0.passed and r0.captures == {"title": "Hello"} and r0.end == 1

    # block 1 (paragraph) starting where block 0 stopped
    r1 = block_at(1, r0.end)
    assert r1.passed and r1.end > r0.end

    # block 2 (list) at the right cursor: array capture, cursor at end
    r2 = block_at(2, r1.end)
    assert r2.passed and r2.captures == {"tag": ["a", "b"]}
    assert r2.end == len(spans)

    # the WRONG sub-validator at a position reports just its mismatch
    bad = block_at(2, 0)   # list template vs heading
    assert not bad.passed
    assert bad.violations[0]["kind"] == "node_type_mismatch"

    # no end-of-document noise: a heading template alone against a doc
    # with MORE content passes (the full walk would add input-has-child)
    again = block_at(0, 0)
    assert again.passed


def test_autolinks_both_sides():
    """<https://…> / <user@host> autolinks are LINK nodes (tree-sitter
    uri_autolink / email_autolink) on both the schema and input sides:
    text = the URI, destination = URI (mailto: for emails)."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans(
        "see <https://example.com/x> or mail <bob@example.org> now\n")
    got = [(s["kind"], s["text"], s["media_ref"]) for s in spans]
    assert got == [
        ("paragraph", "", ""),
        ("text", "see ", ""),
        ("link", "https://example.com/x", "https://example.com/x"),
        ("text", " or mail ", ""),
        ("link", "bob@example.org", "mailto:bob@example.org"),
        ("text", " now", ""),
    ]

    r = _full("see <https://example.com/x> or mail <bob@example.org> now",
              "see <https://example.com/x> or mail <bob@example.org> now")
    assert r.passed, r.violations
    # a schema autolink pins the exact destination
    bad = _full("go <https://example.com>", "go <https://evil.example>")
    assert not bad.passed
