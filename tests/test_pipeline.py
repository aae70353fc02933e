"""End-to-end Ray Data validation pipeline tests.

Covers FIXTURES.md B6 (batch-size invariance — the analog of the
reference's chunk-size robustness tests, src/cmd.rs:274–398 of the
reference: chunking must not change the verdict) and verdict parity
between the Ray task stage and direct driver-side evaluation.
"""

import json
import re

import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st
from test_property import document

from mdvalidate_ray.corpus import (
    DOCUMENTS_SCHEMA,
    arrow_documents,
    expected_fail_mode,
    flagship_schema_text,
    ray_documents,
)
from mdvalidate_ray.evaluate.evaluator import evaluate_spans
from mdvalidate_ray.schema.compiler import compile_schema
from mdvalidate_ray.stages.columnar import (
    _Walked,
    anchored_exact,
    anchored_match,
    build_plan,
    full_match,
    re2_equivalent,
    sentinel_match,
)
from mdvalidate_ray.stages.validate import (
    VALIDATED_SCHEMA,
    ConstraintEvaluator,
    evaluate_batch,
    validate_dataset,
    violations_dataset,
)

N_DOCS = 120

EXPECTED_KIND_BY_MODE = {
    "wrong_heading_level": "node_type_mismatch",
    "bad_table_value": "content_mismatch_matcher",
    "too_many_list_items": "children_length_mismatch",
    "trailing_extra_span": "malformed_structure_input_has_child",
    "missing_code_body": "malformed_structure_schema_has_child",
    "bad_intro_case": "not_enough_nodes_for_repeating_paragraph",
}


def test_ray_corpus_matches_driver_corpus(ray_session):
    ray_tbl = ray_documents(N_DOCS, override_num_blocks=4).sort("doc_id").to_pandas()
    local_tbl = arrow_documents(N_DOCS).to_pandas().sort_values("doc_id")
    assert list(ray_tbl["doc_id"]) == list(local_tbl["doc_id"])
    assert ray_tbl["spans"].map(len).tolist() == local_tbl["spans"].map(len).tolist()


def test_pipeline_verdicts_match_planted_modes(ray_session):
    # dup_every huge → no planted duplicate ids, so doc_id ↔ index is 1:1
    ds = ray_documents(N_DOCS, override_num_blocks=4, dup_every=10**9)
    validated = validate_dataset(ds, flagship_schema_text(), batch_size=32)
    rows = {r["doc_id"]: r for r in validated.take_all()}
    assert len(rows) == N_DOCS
    for i in range(N_DOCS):
        doc_id = f"doc{i:012d}"
        mode = expected_fail_mode(i)
        r = rows[doc_id]
        assert r["passed"] == (mode is None), (i, mode, r["violations"])
        if mode is not None:
            kinds = {v["kind"] for v in r["violations"]}
            assert EXPECTED_KIND_BY_MODE[mode] in kinds, (i, mode, kinds)
        else:
            caps = json.loads(r["captures"])
            assert caps["title"].startswith("Doc ")
            assert isinstance(caps["tag"], list) and caps["tag"]


def test_violations_dataset_flat(ray_session):
    ds = ray_documents(N_DOCS, override_num_blocks=2)
    validated = validate_dataset(ds, flagship_schema_text(), batch_size=64)
    viols = violations_dataset(validated).take_all()
    assert viols, "expected planted violations"
    expected_docs = {f"doc{i:012d}" for i in range(N_DOCS)
                     if expected_fail_mode(i) is not None}
    assert {v["doc_id"] for v in viols} == expected_docs
    assert all(set(v) == {"doc_id", "constraint_id", "kind", "expected",
                          "actual", "span_index"} for v in viols)


@pytest.mark.parametrize("batch_size", [1, 32, 4096])
def test_b6_batch_size_invariance(ray_session, batch_size):
    """B6: verdicts identical at batch_size 1, 32, 4096 (reference analog:
    chunk sizes 1..=9 must not change the result, cmd.rs:385–398)."""
    ds = ray_documents(60, override_num_blocks=3)
    validated = validate_dataset(ds, flagship_schema_text(),
                                 batch_size=batch_size)
    got = sorted(
        (r["doc_id"], r["passed"], r["captures"], r["n_violations"])
        for r in validated.take_all())
    evaluator = ConstraintEvaluator(flagship_schema_text())
    expected_tbl = evaluator(arrow_documents(60))
    expected = sorted(zip(
        expected_tbl.column("doc_id").to_pylist(),
        expected_tbl.column("passed").to_pylist(),
        expected_tbl.column("captures").to_pylist(),
        expected_tbl.column("n_violations").to_pylist()))
    assert got == expected


def _oracle(tbl, compiled) -> list:
    """The 7 output columns of ``evaluate_batch``, one document at a
    time: ``evaluate_spans`` on the ``to_pylist()`` dict spans."""
    rows = []
    for r in tbl.to_pylist():
        spans = r["spans"]
        res = evaluate_spans(spans, compiled)
        rows.append({
            "doc_id": r["doc_id"],
            "passed": res.passed,
            "captures": json.dumps(res.captures, sort_keys=True,
                                   separators=(",", ":")),
            "n_spans": len(spans),
            "n_violations": len(res.violations),
            "violations": res.violations,
            "media_refs": [s["media_ref"] for s in spans if s["media_ref"]],
        })
    return rows


def _assert_batch_matches_oracle(tbl, compiled) -> None:
    """``evaluate_batch`` equals the per-document oracle on the batch as
    one batch, as a ``slice()``, as two chunks and as zero rows."""
    want = _oracle(tbl, compiled)
    n = tbl.num_rows
    k = n // 2
    shapes = [
        (tbl, want),
        (tbl.slice(1, max(n - 2, 0)), want[1:max(n - 1, 1)]),
        (pa.concat_tables([tbl.slice(0, k), tbl.slice(k)]), want),
        (tbl.slice(0, 0), []),
    ]
    for shaped, expected in shapes:
        got = evaluate_batch(shaped, compiled)
        assert got.schema == VALIDATED_SCHEMA
        assert got.to_pylist() == expected


def _span(kind, text="", ref="", offset=0) -> dict:
    return {"kind": kind, "text": text, "media_ref": ref, "offset": offset}


_WRONG_KIND = {"list_item": "ordered_list_item",
               "ordered_list_item": "list_item",
               "heading1": "heading2", "heading2": "heading1",
               "table_cell": "table_header_cell", "text": "image",
               "image": "text", "code_body": "code_lang"}


def _mutants(spans: list) -> list:
    """Mutations of one document's spans: per span kind, its first and
    last span dropped, its first span given a wrong kind or a wrong
    text; on the first and last texts, a leading tab, non-ASCII, ``"``
    and ``\\``; a null text where the walk tolerates one; an extra
    span; and a zero-span document."""
    out = [[]]
    if not spans:
        return out

    def swap(i, **kw):
        return spans[:i] + [dict(spans[i], **kw)] + spans[i + 1:]

    first, last = {}, {}
    for i, s in enumerate(spans):
        first.setdefault(s["kind"], i)
        last[s["kind"]] = i
    for kind, i in first.items():
        for j in {i, last[kind]}:
            out.append(spans[:j] + spans[j + 1:])
        out.append(swap(i, kind=_WRONG_KIND.get(kind, "text")))
        out.append(swap(i, text=(spans[i]["text"] or "") + "!"))
    texts = [i for i, s in enumerate(spans) if s["text"]]
    for i in sorted(set(texts[:1] + texts[-1:])):
        t = spans[i]["text"]
        for bad in ("\t" + t, t + "\u00e9", t + '"q"', t + "\\"):
            out.append(swap(i, text=bad))
    # a marker's text is never read; a null code body is a violation
    for kind in ("paragraph", "ruler", "code_body"):
        if kind in first:
            out.append(swap(first[kind], text=None))
    mid = len(spans) // 2
    out.append(spans[:mid] + [_span("ruler", offset=mid)] + spans[mid:])
    return out


def _docs_table(span_lists: list) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array([f"d{i}" for i in range(len(span_lists))], pa.string()),
         pa.array(span_lists, DOCUMENTS_SCHEMA.field("spans").type)],
        schema=DOCUMENTS_SCHEMA)


@settings(max_examples=60, deadline=None)
@given(document())
def test_batch_matches_per_document_oracle(doc):
    """Differential: on generated (schema, document) pairs and their
    mutants, the columnar plan plus the walk equal the per-document
    walk on all 7 columns."""
    schema_text, spans, _ = doc
    compiled = compile_schema(schema_text)
    _assert_batch_matches_oracle(
        _docs_table([spans] + _mutants(spans)), compiled)


def test_flagship_batch_matches_per_document_oracle():
    """The flagship corpus (every planted failure mode) plus mutants of
    its conforming documents, against the per-document oracle."""
    compiled = compile_schema(flagship_schema_text())
    assert _walked(_flagship_doc(), compiled) == []
    docs = arrow_documents(120).column("spans").to_pylist()
    mutants = [m for spans in docs[:40:7] for m in _mutants(spans)]
    # a quote in an intro, a backslash in a code body: accepted, escaped
    quoted = [dict(s, text='Intro say "hi" \\ now')
              if s["kind"] == "text" else s for s in docs[0]]
    slashed = [dict(s, text='print("\\n")')
               if s["kind"] == "code_body" else s for s in docs[1]]
    tbl = _docs_table(docs + mutants + [quoted, slashed])
    _assert_batch_matches_oracle(tbl, compiled)
    assert _walked(quoted, compiled) == _walked(slashed, compiled) == []


def test_paragraph_shapes_match_per_document_oracle():
    """Paragraphs with no child or two children, next to regular ones,
    under a repeated-paragraph matcher that also accepts the empty
    text: the walk joins or blanks their texts, so the plan must hand
    them back."""
    compiled = compile_schema("`p`{1,4}")
    P, T = _span("paragraph"), _span("text", "x")
    _assert_batch_matches_oracle(_docs_table([
        [P, T], [P, T, T, P], [P, P, T], [P, T, T], [P], [P, T, P, T],
        [T], [P, _span("image", "y", "asset-1"), P, T]]), compiled)


def test_text_units_match_per_document_oracle():
    """Prefix and suffix literals around bare and regex matchers, literal
    headings and paragraphs, literal and curly code blocks and rulers,
    each accepted or handed back as the walk decides."""
    compiled = compile_schema(
        "# Doc `t` v1\n\n## Plain title\n\nSee `w:/[a-z]+/` now\n\n"
        "Just text\n\n---\n\n```py\nprint()\n```\n\n"
        "```{lang:/[a-z]+/}\n{body}\n```")
    good = [_span("heading1", "Doc x y v1"), _span("heading2", "Plain title"),
            _span("paragraph"), _span("text", "See abc now"),
            _span("paragraph"), _span("text", "Just text"), _span("ruler"),
            _span("code_lang", "py"), _span("code_body", "print()"),
            _span("code_lang", "sh"), _span("code_body", "ls -l")]
    swaps = [(0, "Doc v1"), (0, "Doc  v1"), (0, "Doc x v"), (0, "Dox v1"),
             (1, "Plain title "), (3, "See  now"), (3, "See ab1 now"),
             (3, "See abc now!"), (5, "Just"), (7, "pyx"), (8, "print( )"),
             (9, ""), (10, "")]
    docs = [good] + [good[:i] + [dict(good[i], text=t)] + good[i + 1:]
                     for i, t in swaps]
    assert _walked(good, compiled) == []
    _assert_batch_matches_oracle(_docs_table(docs), compiled)


_LIST_TABLE_SCHEMA = (
    "- `tag:/[a-z]+\\d/`{2,4}\n\n"
    "| Name | Qty |\n| --- | --- |\n"
    "| `name:/[a-z]+/` | `qty:/\\d+/` |{2,3}\n")


def _list_table_doc(tags, header=("Name", "Qty"), cells=()) -> list:
    kinds = (["list_item"] * len(tags) + ["table_header_cell"] * len(header)
             + ["table_cell"] * len(cells))
    return [_span(k, t, offset=i)
            for i, (k, t) in enumerate(zip(kinds, [*tags, *header, *cells]))]


GOOD_TAGS = ["ab1", "cd2", "ef3"]
GOOD_CELLS = ["ant", "1", "bee", "22", "cat", "333"]


def _with_cells(**at) -> list:
    cells = list(GOOD_CELLS)
    for i, t in at.items():
        cells[int(i[1:])] = t
    return cells


# shapes the list and table fast paths decide, violations included
FAST_SHAPES = [
    _list_table_doc(GOOD_TAGS, cells=GOOD_CELLS),
    _list_table_doc(GOOD_TAGS, cells=_with_cells(c1="x1")),     # first row
    _list_table_doc(GOOD_TAGS, cells=_with_cells(c5="33x3")),   # last row
    _list_table_doc(GOOD_TAGS, cells=_with_cells(c2="B", c3="")),
    _list_table_doc(GOOD_TAGS, cells=_with_cells(c3="22 kg")),  # suffix
    _list_table_doc(GOOD_TAGS, cells=_with_cells(c0=" ant ", c3="\t22 ")),
    _list_table_doc(GOOD_TAGS, cells=_with_cells(c0=" an t")),
    _list_table_doc(GOOD_TAGS, cells=GOOD_CELLS + ["dog", "4"]),  # 4 rows
    _list_table_doc(GOOD_TAGS, cells=GOOD_CELLS[:2]),             # 1 row
    _list_table_doc(GOOD_TAGS, cells=["x", "y"] + GOOD_CELLS[2:] * 2),
    _list_table_doc(GOOD_TAGS, cells=[]),
    _list_table_doc(GOOD_TAGS + ["gh4", "ij5"], cells=GOOD_CELLS),
    _list_table_doc(["ab1"], cells=GOOD_CELLS),
    _list_table_doc(["ab1", "c!", "ef3"], cells=GOOD_CELLS),      # middle
    _list_table_doc(["ab1x", "cd2"], cells=GOOD_CELLS),  # prefix match
    _list_table_doc(["ab1", "cd2", "ef3", "gh4", "i!"], cells=GOOD_CELLS),
]
# shapes a fast path hands to the interpreter: the table's (a header
# mismatch, ragged rows) or the list's (a nested item)
SLOW_TABLES = [
    _list_table_doc(GOOD_TAGS, header=("Name", "Qtty"), cells=GOOD_CELLS),
    _list_table_doc(GOOD_TAGS, header=("Name",), cells=GOOD_CELLS),
    _list_table_doc(GOOD_TAGS, cells=GOOD_CELLS[:5]),
]
SLOW_LISTS = [_list_table_doc(["ab1", "\tcd2", "ef3"], cells=GOOD_CELLS)]


def test_fast_paths_match_interpreter(monkeypatch):
    """Differential: ``evaluate_batch`` (the columnar plan, then the
    walk with its list/table fast paths) must equal the pure
    interpreter (fast paths monkeypatched off), document by document,
    on all 7 columns over a corpus containing every planted failure
    mode, and over hand-built lists and tables: bad cells in the first
    and last row, two in one row, a regex matching only a prefix,
    whitespace-padded cells, too many and too few rows and items, an
    item failing mid-run, a header mismatch and a ragged row, and a
    table whose two columns share one capture id.  The fast paths decide
    the shapes they cover, violations included, and hand the others to
    the interpreter."""
    import mdvalidate_ray.evaluate.evaluator as EV

    tbl = arrow_documents(600)
    compiled = compile_schema(flagship_schema_text())
    shapes = _docs_table(FAST_SHAPES + SLOW_TABLES + SLOW_LISTS)
    shapes_compiled = compile_schema(_LIST_TABLE_SCHEMA)
    fast = ConstraintEvaluator(flagship_schema_text())(tbl).to_pylist()
    fast_shapes = evaluate_batch(shapes, shapes_compiled).to_pylist()
    fast_walk = _oracle(shapes, shapes_compiled)
    # one capture id on two columns joins row by row
    shared = compile_schema(_LIST_TABLE_SCHEMA.replace("qty:", "name:"))
    shared_doc = _docs_table([FAST_SHAPES[0]])
    fast_shared = _oracle(shared_doc, shared)
    decided = []
    for name in ("_try_fast_list", "_try_fast_table"):
        def record(*a, _orig=getattr(EV, name)):
            out = _orig(*a)
            decided.append(out is not None and out is not False)
            return out
        monkeypatch.setattr(EV, name, record)
    for spans in FAST_SHAPES + SLOW_TABLES + SLOW_LISTS:
        decided.clear()
        evaluate_spans(spans, shapes_compiled)
        assert decided == [spans not in SLOW_LISTS,
                           spans not in SLOW_TABLES], spans
    monkeypatch.setattr(EV, "_try_fast_list", lambda *a: None)
    monkeypatch.setattr(EV, "_try_fast_table", lambda *a: False)
    assert fast == _oracle(tbl, compiled)
    slow_shapes = _oracle(shapes, shapes_compiled)
    assert fast_shapes == fast_walk == slow_shapes
    assert fast_shared == _oracle(shared_doc, shared)
    assert json.loads(fast_shared[0]["captures"])["name"] == [
        "ant", "1", "bee", "22", "cat", "333"]
    assert sum(not r["passed"] for r in slow_shapes) == 18


def _walked(spans: list, compiled) -> list:
    """The ``(first, stop)`` block ranges that ``evaluate_batch`` hands
    to the walk (``stages.validate.evaluate_spans``) for one document,
    in order; ``(n, n)`` for an n-block schema is the end check alone."""
    from mdvalidate_ray.stages import validate

    calls, walk = [], validate.evaluate_spans

    def record(doc_spans, schema, **kw):
        calls.append((kw["blocks"].start, kw["blocks"].stop))
        return walk(doc_spans, schema, **kw)

    validate.evaluate_spans = record
    try:
        evaluate_batch(_docs_table([spans]), compiled)
    finally:
        validate.evaluate_spans = walk
    return calls


def _flagship_doc(mode=None) -> list:
    """The first document of ``arrow_documents(120)`` planted with
    ``mode`` (None: the first conforming one)."""
    docs = arrow_documents(120).column("spans").to_pylist()
    return next(d for i, d in enumerate(docs)
                if expected_fail_mode(i) == mode)


HANDED_BACK = {
    "wrong_heading_level": [(0, 1)],
    # the intro run stops before its first paragraph, so the list, the
    # table and the code block each meet a span of the wrong kind
    "bad_intro_case": [(1, 2), (3, 4), (4, 5), (5, 6)],
    "too_many_list_items": [(3, 4)],
    "bad_table_value": [(4, 5)],
    "missing_code_body": [(5, 6)],
    "trailing_extra_span": [(6, 6)],
}


def test_planted_failures_walk_only_their_failing_blocks():
    """Each planted failure mode hands the walk exactly the blocks the
    per-document oracle reports violations in (a trailing extra span
    only the end check), and the batch equals the oracle."""
    compiled = compile_schema(flagship_schema_text())
    docs = []
    for mode, want in HANDED_BACK.items():
        spans = _flagship_doc(mode)
        assert _walked(spans, compiled) == want, mode
        failing = {v["constraint_id"].split(".")[0]
                   for v in evaluate_spans(spans, compiled).violations}
        assert failing - {"doc"} == {f"b{k}" for lo, hi in want
                                     for k in range(lo, hi)}, mode
        docs.append(spans)
    _assert_batch_matches_oracle(_docs_table(docs), compiled)


def test_unjudgeable_spans_hand_back_one_block():
    """A span the plan cannot judge fails only the step that reads it:
    a heading of the wrong level, a non-printable text and a paragraph
    with two children each hand back one block, as does a document
    failing two blocks each of those; a document that ends after its
    list gets the walk's missing-block violations at its last span; a
    ``list_break``, ``item_extra`` or ``quote_end`` sends the whole
    document to the walk.  Every case equals the oracle."""
    compiled = compile_schema(flagship_schema_text())
    good = _flagship_doc()
    kinds = [s["kind"] for s in good]
    intro, first_item = kinds.index("text"), kinds.index("list_item")
    table = kinds.index("table_header_cell")

    def swap(spans, i, **kw):
        return spans[:i] + [dict(spans[i], **kw)] + spans[i + 1:]

    def insert(spans, i, kind, text=""):
        return spans[:i] + [_span(kind, text, offset=i)] + spans[i:]

    bad_table = _flagship_doc("bad_table_value")
    cases = [
        (swap(good, 0, kind="heading2"), [(0, 1)]),
        (swap(good, intro, text=good[intro]["text"] + "\u00e9"), [(1, 2)]),
        (swap(good, intro, text=good[intro]["text"] + "\x07"), [(1, 2)]),
        (insert(good, intro + 1, "text", " more"), [(1, 2)]),
        (swap(bad_table, 0, kind="heading2"), [(0, 1), (4, 5)]),
        (good[:table], [(4, 6)]),
        (insert(good, first_item, "list_break"), [(0, 6)]),
        (insert(good, first_item + 1, "item_extra", "more"), [(0, 6)]),
        (insert(good, table, "quote_end"), [(0, 6)]),
    ]
    for spans, want in cases:
        assert _walked(spans, compiled) == want, spans
    ended = evaluate_spans(good[:table], compiled).violations
    assert [(v["kind"], v["span_index"]) for v in ended] == [
        ("malformed_structure_schema_has_child", good[table - 1]["offset"])
    ] * 2
    _assert_batch_matches_oracle(
        _docs_table([spans for spans, _ in cases]), compiled)


def test_mid_document_quote_hands_back_one_block():
    """A ``quote`` span where a ruler belongs: the plan hands the ruler
    block to the walk, which reports it and steps past the span, and
    the rest of the document stays with the plan."""
    compiled = compile_schema(
        "# Doc `t` v1\n\n## Plain title\n\nSee `w:/[a-z]+/` now\n\n"
        "Just text\n\n---\n\n```py\nprint()\n```")
    good = [_span("heading1", "Doc x y v1"),
            _span("heading2", "Plain title"),
            _span("paragraph"), _span("text", "See abc now"),
            _span("paragraph"), _span("text", "Just text"), _span("ruler"),
            _span("code_lang", "py"), _span("code_body", "print()")]
    quoted = good[:6] + [_span("quote")] + good[7:]
    assert _walked(good, compiled) == []
    assert _walked(quoted, compiled) == [(4, 5)]
    _assert_batch_matches_oracle(_docs_table([good, quoted]), compiled)


def test_regex_gate_refuses_and_hands_back():
    """A block whose pattern is outside the RE2-equivalent whitelist is a
    walked step: every document hands it to the walk, and the batch
    still equals the per-document oracle."""
    for pattern in (r"(?=a)\w+", r"(a)\1", r"a+\Z", r"(?i:a)+", r"a{,2}",
                    r"[[:alpha:]]+", r"\u0061+", r"a+$", r"\ba+",
                    r"(?P<x>a)+", r"a*+"):
        assert not re2_equivalent(pattern), pattern
        compiled = compile_schema(f"# `t:/{pattern}/`")
        docs = [[_span("heading1", t)] for t in ("a", "aa", "A", "", "b a")]
        assert _walked(docs[0], compiled) == [(0, 1)], pattern
        _assert_batch_matches_oracle(_docs_table(docs), compiled)


_FLAGSHIP_LIST = "- `tag:/\\w+/`{1,40}"


@pytest.mark.parametrize("edit, walked", [
    # a lookahead: the same language as \w+, outside the RE2 whitelist
    ((_FLAGSHIP_LIST, "- `tag:/(?=\\w)\\w+/`{1,40}"), [(3, 4)]),
    ((_FLAGSHIP_LIST, _FLAGSHIP_LIST + "\n  - `sub:/\\w+/`{0,3}"), [(3, 4)]),
    # one id on the list and a table column: both blocks, one walked step
    (("field:", "tag:"), [(3, 5)]),
    # one id on the intros and the list, with the gallery stepped between
    (("intro:", "tag:"), [(1, 2), (3, 4)]),
    (("value:", "field:"), [(4, 5)]),       # one id on two table columns
    (("tag:", "tagé:"), []),
], ids=["lookahead", "nested_list", "list_and_table", "intro_and_list",
        "two_columns", "non_ascii_id"])
def test_unsteppable_blocks_are_walked_steps(edit, walked):
    """A flagship schema with a block the plan cannot step, or a capture
    id it cannot key on, still gets a plan: the block is a walked step
    that every document hands to the walk, the other blocks stay with
    the plan, and the batch equals the per-document oracle."""
    text = flagship_schema_text()
    assert edit[0] in text
    compiled = compile_schema(text.replace(*edit))
    assert _walked(_flagship_doc(), compiled) == walked
    docs = arrow_documents(60).column("spans").to_pylist()
    mutants = [m for spans in docs[:30:7] for m in _mutants(spans)]
    _assert_batch_matches_oracle(_docs_table(docs + mutants), compiled)


@pytest.mark.parametrize("between, tail, walked, want", [
    # the second list's values extend the first's
    ([], [], [(0, 1), (2, 3)], ["a", "b", "c"]),
    # the heading's scalar replaces the first list's values, and the
    # second list's values replace the scalar
    (["# `tag:/\\w+/`"], [_span("heading1", "x")], [(0, 1), (2, 4)],
     ["c"]),
], ids=["list_ruler_list", "list_ruler_heading_list"])
def test_walked_steps_join_captures_as_one_walk(between, tail, walked, want):
    """A capture id on lists (and a heading) with a stepped ruler after
    the first list: the walk takes the blocks on each side of the ruler
    in two calls, and a document's captures are those of one walk over
    the schema."""
    compiled = compile_schema("\n\n".join(
        ["- `tag:/\\w+/`{1,5}", "---", *between, "- `tag:/\\w+/`{1,5}"]))
    items = [_span("list_item", t) for t in ("a", "b")]
    doc = items + [_span("ruler"), *tail, _span("list_item", "c")]
    assert _walked(doc, compiled) == walked
    assert json.loads(evaluate_batch(_docs_table([doc]), compiled)
                      .column("captures")[0].as_py()) == {"tag": want}
    _assert_batch_matches_oracle(
        _docs_table([doc, doc[:3], doc[2:], items + doc[2:-1]]), compiled)


_ATOMS = st.sampled_from([
    "a", "b", "c", " ", "1", r"\.", ".", r"\w", r"\d", r"\s", r"\W",
    r"\S", "[a-c]", "[^b]", r"[\d ]", "[ab1.]"])
_REPEATS = st.sampled_from(
    ["*", "+", "?", "*?", "+?", "??", "{2}", "{1,2}", "{0,}", "{1,3}?"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda t: f"(?:{t[0]}|{t[1]})"),
        # alternation whose first branch is a prefix of the second
        st.tuples(inner, inner).map(lambda t: f"(?:{t[0]}|{t[0]}{t[1]})"),
        st.tuples(inner, _REPEATS).map(lambda t: f"(?:{t[0]}){t[1]}"),
        inner.map(lambda p: f"({p})"),
    )


_PATTERNS = st.one_of(
    st.recursive(_ATOMS, _extend, max_leaves=6),
    st.tuples(_ATOMS, _ATOMS).map(lambda t: f"{t[0]}|{t[0]}{t[1]}"))


@settings(max_examples=300, deadline=None)
@given(_PATTERNS, st.lists(st.text(alphabet="abc 1.", max_size=7),
                           min_size=1, max_size=8),
       st.sampled_from(["", "a", "."]))
@example("a|ab", ["a", "ab", "abb", ""], "")
@example("a|ab", ["ab", "aba"], "b")
def test_regex_gate_matches_python_re(pattern, texts, suffix):
    """For whitelisted patterns on printable-ASCII text, the columnar
    full-consumption test equals Python's leftmost-first match."""
    assert re2_equivalent(pattern), pattern
    rx = re.compile("^" + pattern)
    want = []
    for t in texts:
        m = rx.match(t)
        want.append(m is not None and t[m.end():] == suffix)
    got = full_match(pa.array(texts, pa.string()), pattern, suffix)
    assert got.tolist() == want


# what the anchored gate admits: single-character items, then at most
# one greedy repeat of a single-character item
_GREEDY = st.sampled_from(["*", "+", "?", "{2}", "{1,3}", "{0,}"])
_ANCHORED = st.tuples(
    st.lists(_ATOMS, max_size=4).map("".join),
    st.one_of(st.just(""), st.tuples(_ATOMS, _GREEDY).map("".join)),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_ANCHORED, st.lists(st.text(alphabet="abc 1._-", max_size=7),
                           min_size=1, max_size=8))
@example(r"[A-Za-z][\w ]*", ["A b_1", "1a", "", "a-b"])
@example("img .*", ["img ", "img a.b", "im", "img"])
def test_anchored_gate_matches_python_re(pattern, texts):
    """For every pattern the anchored gate admits, the anchored RE2 full
    match, the sentinel test and Python's leftmost-first match reaching
    the end agree on printable-ASCII text."""
    assert anchored_exact(pattern), pattern
    rx = re.compile(pattern)
    want = [m is not None and m.end() == len(t)
            for t, m in ((t, rx.match(t)) for t in texts)]
    arr = pa.array(texts, pa.string())
    assert anchored_match(arr, pattern).tolist() == want
    assert sentinel_match(arr, pattern).tolist() == want
    assert full_match(arr, pattern).tolist() == want


@pytest.mark.parametrize("pattern, suffix, text, want", [
    ("a|ab", "", "ab", False),      # alternation: "a" wins, leaves "b"
    (r"\w+?", "", "ab", False),     # lazy: stops after "a"
    (r"(\w)+", "", "ab", True),     # a group
    ("a*b", "", "aab", True),       # a repeat that is not last
    (r"\w+", "x", "abx", False),    # suffix: the greedy run eats the x
])
def test_anchored_gate_refuses_and_stays_exact(pattern, suffix, text, want):
    """Patterns and suffixes outside the anchored gate take the sentinel
    test, in ``full_match`` and in the plan, and stay exact where an
    anchored full match would differ."""
    def python_re(t):
        m = re.match(pattern, t)
        return m is not None and t[m.end():] == suffix

    assert re2_equivalent(pattern)
    assert not anchored_exact(pattern) or suffix
    assert python_re(text) == want
    assert full_match(pa.array([text, ""]), pattern, suffix).tolist() \
        == [want, python_re("")]
    compiled = compile_schema(f"# `t:/{pattern}/`{suffix}")
    assert not any(isinstance(s, _Walked) for s in build_plan(compiled).steps)
    _assert_batch_matches_oracle(_docs_table(
        [[_span("heading1", t)] for t in (text, text + text, "", suffix)]),
        compiled)


def test_violation_report_matches_raw_violations(ray_session):
    """The aggregated report must reproduce exactly what a driver-side
    pandas aggregation of the raw violations table says."""
    import mdvalidate_ray.queries as Q

    sf = "/root/testdata/sf0.001"
    report = Q.violation_report(sf).to_pandas().set_index(
        ["kind", "constraint_id"]).sort_index()
    raw = Q.validate_violations(sf).to_pandas()
    want = raw.groupby(["kind", "constraint_id"]).agg(
        n_violations=("doc_id", "size"), n_docs=("doc_id", "nunique"),
        example_doc=("doc_id", "min")).sort_index()
    assert list(report.index) == list(want.index)
    for col in ("n_violations", "n_docs", "example_doc"):
        assert report[col].tolist() == want[col].tolist(), col


def test_incremental_validate_parity(ray_session):
    """Incremental re-validation returns exactly the verdicts a FULL
    validation of the new snapshot would give for the added ∪ changed
    keys — and nothing else; removed tombstones are exactly the dropped
    keys."""
    import pyarrow as pa

    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.pipelines.validate_pipeline import (
        incremental_validate,
    )
    from mdvalidate_ray.queries import _corpus_versions
    from mdvalidate_ray.stages.validate import validate_dataset

    v1, v2 = _corpus_versions("/root/testdata/sf0.001")
    res = incremental_validate(v1, v2,
                               schema_text=flagship_schema_text())
    inc = res["verdicts"].select_columns(
        ["doc_id", "passed", "n_violations", "status"]).to_pandas()

    full = validate_dataset(v2, flagship_schema_text()).select_columns(
        ["doc_id", "passed", "n_violations"]).to_pandas()
    v1_ids = set(v1.select_columns(["doc_id"]).to_pandas()["doc_id"])
    v2_ids = set(full["doc_id"])

    # expected change set: new keys + keys whose spans differ —
    # recompute independently from the generators' perturbation rule
    added = v2_ids - v1_ids
    changed = {d for d in inc[inc["status"] == "changed"]["doc_id"]}
    assert set(inc["doc_id"]) == added | changed
    assert set(inc[inc["status"] == "added"]["doc_id"]) == added

    fm = full.set_index("doc_id")
    for _, r in inc.iterrows():
        assert bool(fm.loc[r["doc_id"], "passed"]) == bool(r["passed"])
        assert int(fm.loc[r["doc_id"], "n_violations"]) == int(
            r["n_violations"])

    removed = set(res["removed"].to_pandas()["doc_id"])
    assert removed == v1_ids - v2_ids
    # every changed doc really is different in v2 (edited rule: idx%7)
    assert all(d in v1_ids for d in changed)


def test_incremental_status_join_tier_parity(ray_session, force_tier):
    """A zero tier budget forces the change-set-past-driver tier
    (status attached by a hash-partitioned join instead of a broadcast
    table); the (doc_id, passed, n_violations, status) rows must be
    identical to the broadcast tier, and both tiers' status must equal
    the diff's, for string and for int64 doc ids (validated ids are
    strings, so an int64 diff key must be cast before the lookup)."""
    import pyarrow.compute as pc

    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.pipelines.validate_pipeline import (
        incremental_validate,
    )
    from mdvalidate_ray.queries import _corpus_versions

    def int_ids(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("doc_id")
        return b.set_column(i, "doc_id", pc.cast(pc.utf8_slice_codeunits(
            b.column("doc_id"), 3), pa.int64()))

    v1, v2 = _corpus_versions("/root/testdata/sf0.001")
    cols = ["doc_id", "passed", "n_violations", "status"]
    as_int = tuple(v.map_batches(int_ids, batch_format="pyarrow")
                   for v in (v1, v2))
    for old, new in ((v1, v2), as_int):
        res = incremental_validate(old, new,
                                   schema_text=flagship_schema_text())
        base = res["verdicts"].select_columns(cols).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        diff = res["diff"].to_pandas()
        want = {str(k): s for k, s in zip(diff["doc_id"], diff["status"])
                if s != "removed"}
        assert dict(zip(base["doc_id"], base["status"])) == want
        assert {"added", "changed"} <= set(want.values())
        with force_tier("partitioned"):
            forced = incremental_validate(
                old, new, schema_text=flagship_schema_text())["verdicts"] \
                .select_columns(cols).to_pandas() \
                .sort_values("doc_id").reset_index(drop=True)
        assert base.equals(forced) and len(base) > 0


def test_incremental_validate_unchanged_and_removal_only(ray_session):
    """Identical snapshots give an empty change set: no verdicts and no
    removals.  A removal-only diff gives no verdicts and one tombstone
    per removed document.  Both used to raise in semi_join_keys on the
    empty, schema-less key set."""
    import ray.data

    from mdvalidate_ray.pipelines.validate_pipeline import (
        incremental_validate,
    )

    docs = arrow_documents(40)
    same = incremental_validate(ray.data.from_arrow(docs),
                                ray.data.from_arrow(docs),
                                schema_text=flagship_schema_text())
    assert same["verdicts"].count() == 0
    assert same["removed"].count() == 0

    gone = incremental_validate(ray.data.from_arrow(docs),
                                ray.data.from_arrow(docs.slice(0, 33)),
                                schema_text=flagship_schema_text())
    assert gone["verdicts"].count() == 0
    assert sorted(gone["removed"].to_pandas()["doc_id"]) == \
        sorted(docs.column("doc_id").to_pylist()[33:])
