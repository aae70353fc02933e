"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py``, so a ``pytest`` run over the whole
repository does not pick it up.  Each smoke run executes in a child
process with its own local Ray session, so the test process never starts
Ray or has its modules wrapped by the tracer.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT)]

from inputs import expected_passes, render_markdown  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {"suite": {"n_docs": 200, "block_rows": 100},
        "single_doc": {"n_docs": 50}}
TINY_CATALOG = {"orders": 300, "customers": 30, "max_lines": 5, "parts": 40,
                "documents": 60, "embeddings": 60, "dim": 16, "events": 200,
                "users": 10, "cdc_docs": 300, "cdc_block_rows": 150,
                "change_every": 100}


def test_renderer_round_trips_to_closed_form():
    from mdvalidate_ray import compile_schema, evaluate_spans
    from mdvalidate_ray.corpus import flagship_schema_text, make_doc
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    compiled = compile_schema(flagship_schema_text())
    for i in range(300):
        spans = make_doc(i, 300, seed=11)[1]
        back = markdown_to_spans(render_markdown(spans))
        assert evaluate_spans(back, compiled).passed == \
            expected_passes(i, markdown=True), i
        # same spans, except that a fence always carries a body
        want = [(s["kind"], s["text"], s["media_ref"]) for s in spans]
        got = [(s["kind"], s["text"], s["media_ref"]) for s in back]
        if ("code_body", "", "") in got and \
                not any(k == "code_body" for k, _, _ in want):
            got.remove(("code_body", "", ""))
        assert got == want, i


def test_tracer_totals_within_a_span():
    from tracing import Tracer

    t = Tracer()
    with t.span("op"):
        with t.span("walk"):
            pass
    with t.span("stream"):
        with t.span("walk"):
            pass
    assert t.totals()["walk"]["calls"] == 2
    assert t.totals(within="op")["walk"]["calls"] == 1
    assert "stream" not in t.totals(within="op")


def test_metric_and_workload_names():
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} <= set(TINY)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_reports_every_metric(workload, trace):
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT)!r}]\n"
        "import run, workloads\n"
        f"workloads.CatalogSample.params = {TINY_CATALOG!r}\n"
        f"result, record = run.run({workload!r}, seed=3, seconds=0.5, "
        f"trace={trace!r}, params={TINY[workload]!r}, setup_reps=1)\n"
        "print(json.dumps([result, record['problems']]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result, problems = json.loads(proc.stdout.strip().splitlines()[-1])
    kind = "per_layer" if trace else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, problems
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "suite":
        # the catalog sample runs in the traced suite operations
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(m[k] > 0 for k in m if k.startswith("functions."))
        assert m["cdc.revalidated_ratio"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "suite", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
