"""The compiled schema is ready to walk.

``compile_schema`` builds every matcher's regex and every list and table
template's fast-path info, so walking a freshly compiled schema compiles
no regex and sets no attribute on the schema's objects.  A matcher regex
is used through ``.match`` only, which anchors it without a ``^`` prefix,
so a pattern with a leading inline flag (``(?i)``) walks like any other.
"""

import dataclasses
import pickle
import re

import pyarrow as pa

from mdvalidate_ray import cli
from mdvalidate_ray.corpus import (
    DOCUMENTS_SCHEMA,
    flagship_schema_text,
    make_doc,
)
from mdvalidate_ray.evaluate.evaluator import evaluate_spans
from mdvalidate_ray.schema.compiler import compile_schema
from mdvalidate_ray.sources.markdown import markdown_to_spans
from mdvalidate_ray.stages.validate import evaluate_batch

QUOTE_SCHEMA = """> # `head:/\\w+/`
>
> - `q:/\\w+/`{1,}

- `a:/\\w/`
- b

| `x` | y |
| --- | --- |
| `c:/\\d+/` | lit |{1,}
"""
QUOTE_DOC = """> # Head
>
> - one
> - two

- a
- b

| x | y |
| --- | --- |
| 1 | lit |
| 2 | lit |
"""
FLAG_SCHEMA = "# `title:/(?i)doc.*/`\n"


def _tree(compiled) -> list:
    """Every dataclass object of a compiled schema, each once."""
    seen, todo = {}, [compiled]
    while todo:
        obj = todo.pop()
        if dataclasses.is_dataclass(obj):
            if id(obj) not in seen:
                seen[id(obj)] = obj
                todo.extend(getattr(obj, f.name)
                            for f in dataclasses.fields(obj))
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return list(seen.values())


def test_fresh_schema_walks_without_compiling_or_setting(monkeypatch):
    docs = [make_doc(i, 200)[1] for i in range(40)]
    cases = [(flagship_schema_text(), docs),
             (QUOTE_SCHEMA, [markdown_to_spans(QUOTE_DOC),
                             markdown_to_spans(QUOTE_DOC.replace("2", "z"))])]
    compiled = []
    for text, spans in cases:
        schema = compile_schema(text)
        objects = _tree(schema)
        before = [dict(vars(o)) for o in objects]
        compiled.append((schema, spans, objects, before))

    made = []
    real = re._compile

    def counting(pattern, flags):
        made.append(pattern)
        return real(pattern, flags)

    monkeypatch.setattr(re, "_compile", counting)
    verdicts = []
    for schema, spans, _, _ in compiled:
        verdicts += [evaluate_spans(s, schema).passed for s in spans]
    monkeypatch.undo()

    assert made == []
    assert True in verdicts and False in verdicts
    for _, _, objects, before in compiled:
        after = [vars(o) for o in objects]
        for obj, old, new in zip(objects, before, after):
            assert new.keys() == old.keys(), type(obj).__name__
            assert all(new[k] is old[k] for k in old), type(obj).__name__


def test_compiled_schema_pickles_walk_ready():
    schema = compile_schema(flagship_schema_text() + "\n" + QUOTE_SCHEMA)
    back = pickle.loads(pickle.dumps(schema))
    assert back == schema
    doc = make_doc(3, 200)[1]
    assert evaluate_spans(doc, back) == evaluate_spans(doc, schema)
    list_, table = back.blocks[3], back.blocks[4]
    assert list_.fast[0] is list_.items[0].inline[0].matcher
    assert table.fast[1][0] is table.rows[0].cells[0][0].matcher
    assert back.blocks[0].inline[0].matcher.regex.pattern == "[A-Za-z][\\w ]*"


def test_leading_inline_flag_matches():
    schema = compile_schema(FLAG_SCHEMA)
    ok = evaluate_spans(markdown_to_spans("# Doc one\n"), schema)
    assert ok.passed and ok.captures == {"title": "Doc one"}
    assert evaluate_spans(markdown_to_spans("# DOC two\n"), schema).passed
    bad = evaluate_spans(markdown_to_spans("# other\n"), schema)
    assert not bad.passed
    assert [v["kind"] for v in bad.violations] == ["content_mismatch_matcher"]
    assert bad.violations[0]["expected"] == "^(?i)doc.*"


def test_leading_inline_flag_corpus_and_cli(tmp_path):
    texts = ["# Doc one\n", "# other\n", "# doc\n"]
    table = pa.Table.from_pylist(
        [{"doc_id": f"d{i}", "spans": markdown_to_spans(t)}
         for i, t in enumerate(texts)], schema=DOCUMENTS_SCHEMA)
    schema = compile_schema(FLAG_SCHEMA)
    out = evaluate_batch(table, schema).to_pylist()
    walked = [evaluate_spans(markdown_to_spans(t), schema) for t in texts]
    assert [r["passed"] for r in out] == [w.passed for w in walked] \
        == [True, False, True]
    assert out[0]["captures"] == '{"title":"Doc one"}'

    (tmp_path / "s.md").write_text(FLAG_SCHEMA)
    for text, code in (("# Doc one\n", 0), ("# other\n", 1)):
        (tmp_path / "d.md").write_text(text)
        assert cli.main([str(tmp_path / "s.md"), str(tmp_path / "d.md"),
                         "-q"]) == code
