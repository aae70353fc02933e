"""Every corpus entry point reads its input through one reader and runs
the one-pass fused suite: the CLI corpus mode (with and without OUTPUT,
with ``--checkpoint``), the checkpointed runner's input checks, the
listing rule every path shares, the fused read plan, and a 1-CPU Ray
session in which all corpus paths must finish."""

import glob
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mdvalidate_ray.cli import main as cli_main
from mdvalidate_ray.corpus import (
    assets_table,
    doc_id_for_index,
    expected_fail_mode,
    flagship_schema_text,
    ray_documents,
)

ROOT = Path(__file__).resolve().parents[1]
N_DOCS = 400


def _failing_ids(n):
    return {doc_id_for_index(i, n) for i in range(n)
            if expected_fail_mode(i) is not None}


def _job_main(argv):
    sys.path.insert(0, str(ROOT / "jobs"))
    try:
        import validate_job
    finally:
        sys.path.remove(str(ROOT / "jobs"))
    return validate_job.main(argv)


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    """A 4-file flagship corpus and its schema file."""
    base = tmp_path_factory.mktemp("corpus_paths")
    docs = base / "corpus"
    ray_documents(N_DOCS, override_num_blocks=4).write_parquet(str(docs))
    assert len(list(docs.glob("*.parquet"))) == 4
    schema = base / "schema.md"
    schema.write_text(flagship_schema_text())
    return docs, schema


def test_cli_corpus_writes_verdicts_and_violations(corpus, tmp_path):
    docs, schema = corpus
    out = tmp_path / "out"
    assert cli_main([str(schema), str(docs), str(out), "-q"]) == 1
    verdicts = pq.read_table(out / "verdicts")
    assert verdicts.num_rows == N_DOCS
    assert set(verdicts.column_names) == {
        "doc_id", "passed", "captures", "n_spans", "n_violations"}
    viols = pq.read_table(out / "violations")
    assert set(viols.column("doc_id").to_pylist()) == _failing_ids(N_DOCS)
    assert viols.num_rows == sum(verdicts.column("n_violations").to_pylist())


def test_cli_corpus_sinks_any_doc_id_and_repeated_files(corpus, tmp_path):
    """Sink file names do not come from the doc_ids, so ids holding '/'
    or 300 bytes write like any other; an input file present twice is
    two identical blocks, and the sinks still hold every row."""
    docs, schema = corpus
    inp = tmp_path / "input"
    inp.mkdir()
    renamed = {}
    for i, f in enumerate(sorted(docs.glob("*.parquet"))):
        t = pq.read_table(f)
        ids = t.column("doc_id").to_pylist()
        new = [f"s3://bucket/{'x' * 300 if (i, j) == (0, 0) else d}"
               for j, d in enumerate(ids)]
        renamed.update(zip(ids, new))
        pq.write_table(t.set_column(t.schema.get_field_index("doc_id"),
                                    "doc_id", pa.array(new)), inp / f.name)
        if i == 0:
            shutil.copy(inp / f.name, inp / "zz-copy.parquet")
            n_copy = t.num_rows
    out = tmp_path / "out"
    assert cli_main([str(schema), str(inp), str(out), "-q"]) == 1
    verdicts = pq.read_table(out / "verdicts")
    assert verdicts.num_rows == N_DOCS + n_copy
    assert "s3://bucket/" + "x" * 300 in verdicts.column("doc_id").to_pylist()
    viols = pq.read_table(out / "violations")
    assert set(viols.column("doc_id").to_pylist()) == {
        renamed[d] for d in _failing_ids(N_DOCS)}
    assert viols.num_rows == sum(verdicts.column("n_violations").to_pylist())


def test_cli_corpus_without_output_prints_summary(corpus, capsys):
    docs, schema = corpus
    from mdvalidate_ray.stages.validate import validate_dataset

    import ray.data

    n_viol = sum(r["n_violations"] for r in validate_dataset(
        ray.data.read_parquet(str(docs)), flagship_schema_text())
        .select_columns(["n_violations"]).take_all())
    assert n_viol > 0
    assert cli_main([str(schema), str(docs)]) == 1
    err = capsys.readouterr().err
    assert f"{N_DOCS} documents validated, {n_viol} violations" in err


def test_checkpoint_rejects_partitions_below_one(corpus, tmp_path, capsys):
    docs, schema = corpus
    out = tmp_path / "out"
    for k in ("0", "-1"):
        assert cli_main([str(schema), str(docs), str(out), "--checkpoint",
                         "--partitions", k]) == 2
        assert "partitions must be at least 1" in capsys.readouterr().err
    assert not (out / "manifest.jsonl").exists()

    assets = tmp_path / "assets.parquet"
    pq.write_table(assets_table(N_DOCS), str(assets))
    assert _job_main(["--input", str(docs), "--assets", str(assets),
                      "--output", str(out), "--partitions", "0"]) == 2
    assert not (out / "manifest.jsonl").exists()


def test_cli_checkpoint_resume_refuses_changed_input(corpus, tmp_path,
                                                     capsys):
    docs, schema = corpus
    inp = tmp_path / "input"
    shutil.copytree(docs, inp)
    out = tmp_path / "out"
    argv = [str(schema), str(inp), str(out), "--checkpoint",
            "--partitions", "2"]
    assert cli_main(argv) == 1            # planted violations
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 2
    capsys.readouterr()
    first = sorted(inp.glob("*.parquet"))[0]
    shutil.copy(first, inp / "zz-added.parquet")
    assert cli_main(argv) == 2
    assert "lineage mismatch" in capsys.readouterr().err


def test_checkpoint_resume_refuses_old_or_mismatched_records(corpus, tmp_path,
                                                             capsys):
    """A run without an asset table reports n_dangling as null, not 0; a
    resume that would mix probed and unprobed partitions, or meet records
    written before n_dangling was recorded, exits 2."""
    docs, schema = corpus
    out = tmp_path / "out"
    argv = [str(schema), str(docs), str(out), "--checkpoint",
            "--partitions", "2"]
    assert cli_main(argv) == 1
    assert '"n_dangling": null' in capsys.readouterr().err

    assets = tmp_path / "assets.parquet"
    pq.write_table(assets_table(N_DOCS), str(assets))
    assert _job_main(["--input", str(docs), "--assets", str(assets),
                      "--output", str(out), "--partitions", "2"]) == 2
    assert "asset-table setting" in capsys.readouterr().err

    manifest = out / "manifest.jsonl"
    recs = [json.loads(line) for line in manifest.read_text().splitlines()]
    for rec in recs:
        del rec["n_dangling"]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert cli_main(argv) == 2
    assert "older version" in capsys.readouterr().err


def test_empty_input_exits_two_everywhere(corpus, tmp_path, capsys):
    """A directory with no parquet files is one error on every corpus
    path: CLI corpus mode (plain and --fast-fail), --checkpoint and the
    job each exit 2 with the same message."""
    _, schema = corpus
    empty = tmp_path / "empty"
    (empty / "sub").mkdir(parents=True)
    (empty / "notes.txt").write_text("not a corpus")
    assets = tmp_path / "assets.parquet"
    pq.write_table(assets_table(N_DOCS), str(assets))
    want = f"error: no parquet files under {empty}"
    runs = {
        "cli": lambda: cli_main([str(schema), str(empty), "-q"]),
        "fast-fail": lambda: cli_main([str(schema), str(empty), "-f"]),
        "checkpoint": lambda: cli_main([str(schema), str(empty),
                                        str(tmp_path / "out"),
                                        "--checkpoint"]),
        "job": lambda: _job_main(["--input", str(empty), "--assets",
                                  str(assets), "--output",
                                  str(tmp_path / "job")]),
    }
    for name, run in runs.items():
        assert run() == 2, name
        assert capsys.readouterr().err.strip() == want, name


def _reported_rows(argv, capsys) -> int:
    assert cli_main(argv) == 1            # planted violations
    err = capsys.readouterr().err
    m = re.search(r"^(\d+) documents validated", err, re.M)
    return int(m.group(1)) if m else json.loads(err)["rows"]


def test_nested_directory_reads_the_same_documents(corpus, tmp_path,
                                                   capsys):
    """A file at the top and one in a subdirectory: CLI corpus mode and
    --checkpoint both list the directory recursively, so they validate
    the same documents."""
    docs, schema = corpus
    files = sorted(docs.glob("*.parquet"))
    inp = tmp_path / "input"
    (inp / "sub").mkdir(parents=True)
    shutil.copy(files[0], inp / "top.parquet")
    shutil.copy(files[1], inp / "sub" / "nested.parquet")
    want = sum(pq.read_metadata(f).num_rows for f in files[:2])
    plain = _reported_rows([str(schema), str(inp), str(tmp_path / "a")],
                           capsys)
    ckpt = _reported_rows([str(schema), str(inp), str(tmp_path / "b"),
                           "--checkpoint", "--partitions", "2"], capsys)
    assert plain == ckpt == want


def test_flat_directory_lineage_is_unchanged(corpus, tmp_path):
    """A flat directory's checkpoint lineage is the top-level
    ``*.parquet`` glob (hidden files skipped), dealt round-robin, for an
    absolute and a relative input path alike, so manifests written
    before the recursive listing still resume."""
    docs, schema = corpus
    inp = tmp_path / "input"
    shutil.copytree(docs, inp)
    shutil.copy(sorted(inp.glob("*.parquet"))[0], inp / ".hidden.parquet")
    for name, path in (("abs", str(inp)), ("rel", os.path.relpath(inp))):
        out = tmp_path / name
        argv = [str(schema), path, str(out), "--checkpoint",
                "--partitions", "3", "-q"]
        assert cli_main(argv) == 1
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
        recs = [json.loads(line) for line in
                (out / "manifest.jsonl").read_text().splitlines()]
        assert [r["lineage"] for r in recs] == [
            {"kind": "parquet_files", "files": files[i::3]}
            for i in range(3)]
        assert cli_main(argv) == 1        # resumes: nothing re-runs
        assert len((out / "manifest.jsonl").read_text().splitlines()) == 3


def test_corpus_read_fuses_into_the_suite_one_file_per_block(
        ray_session, tmp_path, monkeypatch):
    """The corpus reader reads one block per file, so Ray runs the read
    and the suite as one ``ReadParquet->MapBatches(fused_task_batch)``
    operator with no ``SplitBlocks``, and CLI corpus mode and
    --checkpoint each write one verdict file per input file.  A 2000-doc
    corpus is large enough that ``read_parquet(dir)`` splits each file's
    block."""
    import ray.data

    docs = tmp_path / "corpus"
    ray_documents(2000, override_num_blocks=4).write_parquet(str(docs))
    schema = tmp_path / "schema.md"
    schema.write_text(flagship_schema_text())
    plans = []
    take_all = ray.data.Dataset.take_all

    def recording_take_all(self, *a, **kw):
        rows = take_all(self, *a, **kw)
        plans.append(self.stats())
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", recording_take_all)
    for mode, extra in (("plain", []),
                        ("checkpoint", ["--checkpoint", "--partitions",
                                        "2"])):
        plans.clear()
        out = tmp_path / mode
        assert cli_main([str(schema), str(docs), str(out), "-q",
                         *extra]) == 1
        assert len(plans) == (2 if extra else 1), mode
        for plan in plans:
            ops = re.findall(r"^Operator \d+ (\S+):", plan, re.M)
            assert ops == ["ReadParquet->MapBatches(fused_task_batch)"], \
                (mode, ops)
            assert "SplitBlocks" not in plan, mode
        verdicts = sorted((out / "verdicts").rglob("*.parquet"))
        assert len(verdicts) == 4, (mode, verdicts)


ONE_CPU_SCRIPT = r"""
import sys

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data

from mdvalidate_ray.corpus import flagship_schema_text
from mdvalidate_ray.pipelines.checkpoint import run_checkpointed
from mdvalidate_ray.pipelines.fused import run_fused_suite
from mdvalidate_ray.sources.io import corpus_files, read_documents
from mdvalidate_ray.stages.validate import validate_dataset

corpus, out = sys.argv[1], sys.argv[2]
schema = flagship_schema_text()
validated = validate_dataset(ray.data.read_parquet(corpus), schema)
print("validate_dataset", validated.count(), sum(
    b.num_rows - sum(b.column("passed").to_pylist())
    for b in validated.iter_batches(batch_format="pyarrow")))
rep = run_fused_suite(read_documents(corpus), schema, out + "/v",
                      out + "/x")
print("run_fused_suite", rep["rows"], rep["n_failed"])
files = corpus_files(corpus)
groups = [files[0::2], files[1::2]]
recs = run_checkpointed(lambda k: read_documents(groups[k]),
                        lambda k: {"files": groups[k]}, 2, out + "/c",
                        schema)
print("run_checkpointed", sum(r["rows"] for r in recs),
      sum(r["rows"] - r["n_passed"] for r in recs))
ray.shutdown()
"""


def test_corpus_paths_finish_in_one_cpu_session(ray_session, tmp_path):
    """A fixed pool of two one-CPU actors cannot be placed in (or starves
    the read tasks of) a 1-CPU session: over 8000 documents in 4 files it
    never finished, while 400 documents still limped through.  Every
    corpus path must run on tasks and finish."""
    n_docs = 8000
    docs = tmp_path / "corpus"
    ray_documents(n_docs, override_num_blocks=4).write_parquet(str(docs))
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_SCRIPT, str(docs),
         str(tmp_path / "out")],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(ROOT)})
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("corpus paths did not finish in 120 s on 1 CPU")
    assert proc.returncode == 0, stderr[-3000:]
    n_failed = len(_failing_ids(n_docs))
    got = dict(re.findall(r"^(\w+) (\d+ \d+)$", stdout, re.M))
    assert got == {name: f"{n_docs} {n_failed}" for name in (
        "validate_dataset", "run_fused_suite", "run_checkpointed")}


# the five catalog queries whose stages once ran in actor pools: a fixed
# pool of one actor held the only CPU and starved the read forever
ONE_CPU_QUERIES = ("lang_pred_counts", "lang_confusion", "curation_funnel",
                   "media_decode", "knn_pq")

ROWS_DIGEST = r"""
def rows_digest(result):
    import hashlib

    import pyarrow as pa

    df = result.to_pandas() if isinstance(result, pa.Table) or hasattr(
        result, "iter_batches") else result
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return hashlib.sha1(df.to_csv(index=False).encode()).hexdigest()
"""

ONE_CPU_QUERY_SCRIPT = ROWS_DIGEST + r"""
import sys

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import __ray_entry__

qs = __ray_entry__.queries()
for name in sys.argv[2:]:
    print(name, rows_digest(qs[name](sys.argv[1])), flush=True)
ray.shutdown()
"""


def _finish_in_one_cpu_session(queries):
    """Run ``queries`` at sf0.001 in a 1-CPU subprocess session: each
    must finish inside 120 s with the rows of the test session."""
    import __ray_entry__

    sf_dir = "/root/testdata/sf0.001"
    if not os.path.isdir(sf_dir):
        pytest.skip("testdata missing")
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_QUERY_SCRIPT, sf_dir, *queries],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(ROOT)})
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        done = [n for n, _ in re.findall(r"^(\w+) (\w+)$", stdout, re.M)]
        pytest.fail("catalog queries did not finish in 120 s on 1 CPU; "
                    f"finished: {done}")
    assert proc.returncode == 0, stderr[-3000:]
    scope: dict = {}
    exec(ROWS_DIGEST, scope)
    qs = __ray_entry__.queries()
    want = {name: scope["rows_digest"](qs[name](sf_dir))
            for name in queries}
    assert dict(re.findall(r"^(\w+) (\w+)$", stdout, re.M)) == want


def test_catalog_map_stages_finish_in_one_cpu_session(ray_session):
    """The language-ID, funnel, media and PQ stages run on tasks, so in a
    1-CPU session they finish, with the rows of the test session."""
    _finish_in_one_cpu_session(ONE_CPU_QUERIES)


# the eight hash_join callers: Ray Data's native join ran on hash-shuffle
# aggregator actors and never finished on one CPU
HASH_JOIN_QUERIES = ("priority_revenue", "q10_returned_revenue",
                     "q7_nation_volume", "q8_market_share",
                     "q9_profit_by_nation_year", "q12_late_priority",
                     "nation_segment_gap", "order_discount_proration")


def test_hash_join_queries_finish_in_one_cpu_session(ray_session):
    """``hash_join`` is a broadcast or one co-partition on tasks, so its
    callers finish in a 1-CPU session, with the rows of the test
    session."""
    _finish_in_one_cpu_session(HASH_JOIN_QUERIES)
