"""Start-up guard for the one-document CLI (``mdv-ray schema.md doc.md``,
with and without ``--stream``).

A one-document call pays its interpreter start-up before any work, so
the modules it imports must stay pure Python: no numpy, pyarrow, pandas
or Ray (the corpus stack).  It compiles the schema once per call, and a
passing ``--stream`` run does not flatten the whole text again after
``finish()``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from mdvalidate_ray import cli
from mdvalidate_ray.corpus import flagship_schema_text
from mdvalidate_ray.evaluate.evaluator import evaluate_spans
from mdvalidate_ray.schema import compiler
from mdvalidate_ray.sources import markdown
from mdvalidate_ray.stages import stream_validate

ROOT = Path(__file__).resolve().parent.parent

# the modules perfbench's single_doc set-up imports in a fresh interpreter
SETUP_MODULES = ("cli", "evaluate.evaluator", "schema.compiler",
                 "sources.markdown", "stages.stream_validate")
HEAVY = ("numpy", "pyarrow", "pandas", "ray")

PASSING = """# Report alpha

Intro one paragraph

Intro two paragraph

![img one](asset-000000001)

- alpha
- beta

| Field | Value |
| --- | --- |
| rows | 12 |
| cols | 3 |

```python
print(1)
```
"""
# a level-2 title and a non-numeric table value
FAILING = PASSING.replace("# Report", "## Report").replace("| 3 |", "| x |")

PROBE = """
import contextlib, io, json, sys
import mdvalidate_ray.{modules}
after_import = sorted(m for m in {heavy!r} if m in sys.modules)
from mdvalidate_ray.cli import main
runs = []
for argv in {argvs!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    runs.append([rc, out.getvalue()])
after_runs = sorted(m for m in {heavy!r} if m in sys.modules)
print(json.dumps([after_import, after_runs, runs]))
"""


@pytest.fixture
def files(tmp_path):
    schema = tmp_path / "schema.md"
    schema.write_text(flagship_schema_text())
    docs = {}
    for name, text in (("pass", PASSING), ("fail", FAILING)):
        docs[name] = tmp_path / f"{name}.md"
        docs[name].write_text(text)
    return schema, docs


def _expected(text: str) -> list:
    r = evaluate_spans(markdown.markdown_to_spans(text),
                       compiler.compile_schema(flagship_schema_text()))
    return [0, r.captures_json() + "\n"] if r.passed else [1, ""]


def test_one_document_cli_loads_no_corpus_stack(files):
    schema, docs = files
    argvs = [[str(schema), str(docs[name])] + stream
             for stream in ([], ["--stream"]) for name in ("pass", "fail")]
    code = PROBE.format(modules=", mdvalidate_ray.".join(SETUP_MODULES),
                        heavy=HEAVY, argvs=argvs)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_runs, runs = json.loads(proc.stdout)
    assert after_import == [], f"the set-up imports load {after_import}"
    assert after_runs == [], f"one-document runs load {after_runs}"
    want = [_expected(PASSING), _expected(FAILING)] * 2
    assert want[0][0] == 0 and want[1][0] == 1
    assert runs == want


@pytest.mark.parametrize("stream", [False, True])
@pytest.mark.parametrize("name", ["pass", "fail"])
def test_main_compiles_the_schema_once(files, monkeypatch, stream, name):
    schema, docs = files
    calls = []
    compile_schema = compiler.compile_schema

    def counting(text):
        calls.append(text)
        return compile_schema(text)

    # stream_validate binds compile_schema at import
    monkeypatch.setattr(compiler, "compile_schema", counting)
    monkeypatch.setattr(stream_validate, "compile_schema", counting)
    argv = [str(schema), str(docs[name]), "-q"] + (["--stream"] if stream
                                                  else [])
    assert cli.main(argv) == (0 if name == "pass" else 1)
    assert len(calls) == 1, f"{len(calls)} compiles"


def test_passing_stream_does_not_flatten_after_finish(files, monkeypatch,
                                                      capsys):
    schema, docs = files
    want = _expected(PASSING)[1]
    events = []
    finish = stream_validate.StreamingDocValidator.finish
    flatten = markdown.markdown_to_spans

    def spy_finish(self):
        events.append("finish")
        return finish(self)

    def spy_flatten(text, **kw):
        events.append("flatten")
        return flatten(text, **kw)

    monkeypatch.setattr(stream_validate.StreamingDocValidator, "finish",
                        spy_finish)
    monkeypatch.setattr(markdown, "markdown_to_spans", spy_flatten)
    assert cli.main([str(schema), str(docs["pass"]), "--stream"]) == 0
    assert capsys.readouterr().out == want
    assert events[events.index("finish"):] == ["finish"]
