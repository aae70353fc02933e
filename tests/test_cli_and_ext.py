"""CLI (reference `mdv` analog), markdown→spans ingestion, plug-in
constraints, and sampled hot-key detection."""

import json
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pytest

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = """# `title:/\\w+/`

Intro with a [link]({url:/https:.*/}) here.

- `tag:/\\w+/`{1,3}

```{lang:/\\w+/}
{body}
```
"""

GOOD_DOC = """# Hello

Intro with a [link](https://example.com) here.

- alpha
- beta

```python
print("hi")
```
"""

BAD_DOC = GOOD_DOC.replace("# Hello", "## Hello")


@pytest.fixture()
def files(tmp_path):
    s = tmp_path / "schema.md"
    g = tmp_path / "good.md"
    b = tmp_path / "bad.md"
    s.write_text(SCHEMA)
    g.write_text(GOOD_DOC)
    b.write_text(BAD_DOC)
    return s, g, b


def _run(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "mdvalidate_ray.cli", *map(str, argv)],
        capture_output=True, text=True, input=stdin, cwd=ROOT)


def test_cli_single_doc_pass(files):
    s, g, _ = files
    r = _run(s, g)
    assert r.returncode == 0, r.stderr
    caps = json.loads(r.stdout)
    assert caps["title"] == "Hello"
    assert caps["tag"] == ["alpha", "beta"]
    assert caps["url"] == "https://example.com"
    assert caps["lang"] == "python" and caps["body"] == 'print("hi")'


def test_cli_single_doc_fail_exit_code_and_report(files):
    s, _, b = files
    r = _run(s, b)
    assert r.returncode == 1
    assert "node_type_mismatch" in r.stderr
    assert r.stdout == ""


def test_cli_stdin(files):
    s, _, _ = files
    r = _run(s, "-", stdin=GOOD_DOC)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["title"] == "Hello"


def test_cli_quiet(files):
    s, _, b = files
    r = _run(s, b, "-q")
    assert r.returncode == 1
    assert r.stderr.strip() == ""


def test_markdown_roundtrip_matches_corpus_conventions():
    from mdvalidate_ray.evaluate.evaluator import evaluate_spans
    from mdvalidate_ray.schema.compiler import compile_schema
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans(GOOD_DOC)
    kinds = [s["kind"] for s in spans]
    assert kinds[0] == "heading1"
    assert "link" in kinds and "list_item" in kinds
    assert kinds[-2:] == ["code_lang", "code_body"]
    r = evaluate_spans(spans, compile_schema(SCHEMA))
    assert r.passed, r.violations


def test_markdown_table_and_nested_list():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = ("| A | B |\n| --- | --- |\n| 1 | 2 |\n\n"
          "- top\n  - nested\n\n> quoted *em*\n")
    spans = markdown_to_spans(md)
    by_kind = {}
    for s in spans:
        by_kind.setdefault(s["kind"], []).append(s["text"])
    assert by_kind["table_header_cell"] == ["A", "B"]
    assert by_kind["table_cell"] == ["1", "2"]
    assert by_kind["list_item"] == ["top", "\tnested"]
    assert "quote" in by_kind
    assert by_kind["emphasis"] == ["em"]


def test_plugin_constraint(ray_session):
    from mdvalidate_ray.corpus import ray_documents
    from mdvalidate_ray.stages.plugins import (
        apply_plugins,
        registered_constraints,
    )

    assert "span_count_bounds" in registered_constraints()
    ds = ray_documents(100, override_num_blocks=2)
    viols = apply_plugins(ds, [("span_count_bounds",
                                {"min": 0, "max": 60})]).take_all()
    assert viols, "expected docs with > 60 spans"
    for v in viols:
        assert v["kind"] == "span_count_out_of_bounds"
        assert int(v["actual"]) > 60


def test_plugin_registry_rejects_bad_class():
    from mdvalidate_ray.stages.plugins import register_constraint

    with pytest.raises(TypeError):
        @register_constraint("bad")
        class Bad:
            pass


def test_hot_key_detection(ray_session):
    import ray.data

    from mdvalidate_ray.stages.skew import auto_salt_buckets, detect_hot_keys

    n = 40_000
    keys = ["hot"] * (n // 2) + [f"k{i}" for i in range(n // 2)]
    ds = ray.data.from_arrow(pa.table({"k": keys})).random_shuffle(seed=7)
    hot = detect_hot_keys(ds, "k", sample_fraction=0.2, hot_threshold=5_000)
    assert hot == ["hot"], hot
    assert auto_salt_buckets(ds, "k", sample_fraction=0.2,
                             hot_threshold=5_000) >= 8
    cold = ray.data.from_arrow(
        pa.table({"k": [f"k{i}" for i in range(10_000)]}))
    assert detect_hot_keys(cold, "k", sample_fraction=0.2,
                           hot_threshold=5_000) == []


# --- markdown list-boundary flattening --------------------------------------

def test_markdown_same_marker_lists_stay_one_list():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    for text in ["- a\n- b\n", "- a\n\n- b\n"]:
        ks = [s["kind"] for s in markdown_to_spans(text)]
        assert ks == ["list_item", "list_item"], (text, ks)


def test_markdown_marker_change_splits_lists():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    for text in ["- a\n* b\n", "1. a\n\n- b\n", "- a\n\n1. b\n"]:
        ks = [s["kind"] for s in markdown_to_spans(text)]
        assert "list_break" in ks, (text, ks)
        assert ks.count("list_break") == 1


def test_markdown_setext_headings():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    got = [(s["kind"], s["text"]) for s in
           markdown_to_spans("Title\n=====\n\nBody\n----\n")]
    assert got == [("heading1", "Title"), ("heading2", "Body")]
    # blank-line-separated dash run stays a ruler
    ks = [s["kind"] for s in markdown_to_spans("Foo\n\n---\n")]
    assert ks == ["paragraph", "text", "ruler"]


def test_markdown_indented_code_block():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans("    line 1\n    line 2\n")
    assert [s["kind"] for s in spans] == ["code_lang", "code_body"]
    assert spans[1]["text"] == "line 1\nline 2"


def test_markdown_nested_emphasis_flattens():
    from mdvalidate_ray import compile_schema, evaluate_spans
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    spans = markdown_to_spans("*a **b** c*\n")
    assert [(s["kind"], s["text"]) for s in spans] == \
        [("paragraph", ""), ("emphasis", "a b c")]
    r = evaluate_spans(spans, compile_schema("*a **b** c*\n"))
    assert r.passed, r.violations


def test_markdown_nested_quote_blocks_roundtrip():
    from mdvalidate_ray import compile_schema, evaluate_spans
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = "> # Inner\n>\n> - a\n> - b\n\nAfter\n"
    schema = "> # `h:/\\w+/`\n>\n> - `x:/\\w+/`{1,4}\n\nAfter\n"
    r = evaluate_spans(markdown_to_spans(md), compile_schema(schema))
    assert r.passed, r.violations
    assert r.captures == {"h": "Inner", "x": ["a", "b"]}


def test_markdown_link_reference_definitions():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    md = ("See [the docs][docs] and ![pic][]\n\n"
          "[docs]: https://example.com/d\n[pic]: asset-img-1\n")
    got = [(s["kind"], s["text"], s["media_ref"])
           for s in markdown_to_spans(md) if s["kind"] in ("link", "image")]
    assert got == [("link", "the docs", "https://example.com/d"),
                   ("image", "pic", "asset-img-1")]


def test_markdown_list_item_continuation_lines():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    got = [(s["kind"], s["text"]) for s in
           markdown_to_spans("- a long item\n  continued here\n- second\n")]
    assert got == [("list_item", "a long item continued here"),
                   ("list_item", "second")]


def test_cli_source_context_report(tmp_path, capsys):
    from mdvalidate_ray.cli import main

    schema = tmp_path / "s.md"
    schema.write_text("# `t:/Report .*/`\n")
    doc = tmp_path / "d.md"
    doc.write_text("# Wrong\n")
    rc = main([str(schema), str(doc)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--> {doc}:1" in err
    assert "# Wrong" in err and "^" in err
    assert "expected" in err


def test_cli_source_report_points_at_table_row_and_quote_line(tmp_path,
                                                              capsys):
    """A bad table cell is reported on its own row's line, and a span
    inside a blocky quote on its own line, not the block's first line."""
    from types import SimpleNamespace

    from mdvalidate_ray.cli import run_single

    schema = tmp_path / "s.md"
    schema.write_text("# T\n\n- `a:/\\w+/`{,5}\n\n"
                      "| A | B |\n| --- | --- |\n"
                      "| `k:/\\d+/` | `v:/\\d+/` |{,5}\n")
    doc = tmp_path / "d.md"
    doc.write_text("# T\n\n- a\n- b\n\n| A | B |\n| --- | --- |\n"
                   "| 1 | 2 |\n| 3 | x |\n")
    out = tmp_path / "out.json"
    with open(out, "w") as f:
        rc = run_single(schema.read_text(), str(doc), f,
                        SimpleNamespace(quiet=False))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--> {doc}:9" in err and "| 3 | x |" in err
    assert f"--> {doc}:6" not in err

    from mdvalidate_ray.sources.markdown import markdown_to_spans

    got = [(s["kind"], s["text"], s["line"]) for s in
           markdown_to_spans("# T\n\n> # Inner\n>\n> - q1\n> - q2")]
    assert got == [("heading1", "T", 1), ("quote", "", 3),
                   ("heading1", "Inner", 3), ("list_item", "q1", 5),
                   ("list_item", "q2", 6), ("quote_end", "", 3)]


def test_markdown_linkdef_not_stripped_from_code_blocks():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    s = markdown_to_spans("```text\n[label]: http://x\ncode line\n```")
    body = [x["text"] for x in s if x["kind"] == "code_body"]
    assert body == ["[label]: http://x\ncode line"]
    s2 = markdown_to_spans("    [a]: b\n    code\n")
    assert [x["text"] for x in s2 if x["kind"] == "code_body"] == \
        ["[a]: b\ncode"]


def test_markdown_linkdefs_reach_nested_quote_bodies():
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    s = markdown_to_spans("> See [docs][d]\n>\n> - a\n\n[d]: http://x\n")
    links = [(x["kind"], x["media_ref"]) for x in s if x["kind"] == "link"]
    assert links == [("link", "http://x")]


# --- streaming single-doc mode (reference cmd.rs:95–122, LimitedReader
# chunk-invariance cmd.rs:204–429) -------------------------------------------

def _run_stream(*argv, stdin=None, bufsize=None):
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ)
    if bufsize is not None:
        env["BUFFER_SIZE"] = str(bufsize)
    return subprocess.run(
        [_sys.executable, "-m", "mdvalidate_ray.cli", *map(str, argv)],
        capture_output=True, text=True, input=stdin, cwd=ROOT,
        env=env)


def test_cli_stream_chunk_size_invariance(files):
    """The verdict and captures are identical at every chunk size (the
    reference's LimitedReader property, sizes 1..9) and identical to the
    non-streaming mode — the EOF pass is authoritative."""
    s, _, _ = files
    want = _run(s, "-", stdin=GOOD_DOC)
    assert want.returncode == 0
    for bufsize in (1, 2, 3, 7, 9, 4096):
        r = _run_stream(s, "-", "--stream", stdin=GOOD_DOC,
                        bufsize=bufsize)
        assert r.returncode == 0, (bufsize, r.stderr)
        assert json.loads(r.stdout) == json.loads(want.stdout)
    bad = _run_stream(s, "-", "--stream", stdin=BAD_DOC, bufsize=3)
    assert bad.returncode == 1 and "node_type_mismatch" in bad.stderr


def test_cli_stream_fast_fail_exits_before_eof(files):
    """With -f, a violation that more input cannot cure (the first block
    is complete and wrong) exits early — the tail of the stream is never
    required to produce the failure."""
    s, _, _ = files
    # wrong first heading, then plenty of trailing content so the early
    # exit is observable as not needing the whole document
    doc = BAD_DOC + "\n" + ("filler paragraph\n\n" * 200)
    r = _run_stream(s, "-", "--stream", "-f", stdin=doc, bufsize=64)
    assert r.returncode == 1
    assert "node_type_mismatch" in r.stderr
    # and a clean doc under -f still passes all the way to EOF
    ok = _run_stream(s, "-", "--stream", "-f", stdin=GOOD_DOC, bufsize=8)
    assert ok.returncode == 0, ok.stderr


def test_cli_stream_forward_definition_in_last_tail(tmp_path, capsys):
    """A link-reference definition that arrives after its use, in the
    tail only ``finish()`` flattens, falls back to the batch pass like
    one that arrives in a fed chunk: same exit code and output as the
    non-streaming mode, not an uncaught ``StreamingUnsupported``."""
    from mdvalidate_ray.cli import main

    schema = tmp_path / "s.md"
    schema.write_text("# `t:/Title .*/`\n\n`p:/.*/`{,5}\n")
    doc = tmp_path / "d.md"
    runs = []
    for text in ("# Title x\n\nsee [a][r]\n\n[r]: http://x\n",
                 "# Title x\n\nsee [a][r]\n\n# extra\n\n[r]: http://x\n"):
        doc.write_text(text)
        for mode in ([], ["--stream"]):
            rc = main([str(schema), str(doc)] + mode)
            runs.append((rc, *capsys.readouterr()))
    assert [r[0] for r in runs] == [0, 0, 1, 1]
    assert runs[0] == runs[1] and runs[2] == runs[3]
