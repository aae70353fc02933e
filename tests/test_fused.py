"""One-pass fused suite (pipelines/fused.py): parity with the unfused
stages, resumability of the per-block sinks, and determinism.

The fused pass must produce byte-identical verdict/violation rows and the
same wide-constraint results as running validate_dataset +
sketch/referential passes separately — it is a scheduling change, not a
semantics change.
"""

import glob
import os

import pyarrow.parquet as pq
import pytest

from mdvalidate_ray.corpus import (
    assets_table,
    expected_fail_mode,
    flagship_schema_text,
    ray_documents,
)
from mdvalidate_ray.pipelines.fused import run_fused_suite
from mdvalidate_ray.stages.uniqueness import sketch_and_refs_pass
from mdvalidate_ray.stages.validate import validate_dataset

N_DOCS = 200


@pytest.fixture
def fused_report(ray_session, tmp_path):
    ds = ray_documents(N_DOCS, override_num_blocks=4)
    out = str(tmp_path / "verdicts")
    viol = str(tmp_path / "violations")
    keys = assets_table(N_DOCS).column("asset_id").combine_chunks()
    report = run_fused_suite(ds, flagship_schema_text(), out, viol, keys)
    return report, out, viol


def test_fused_matches_unfused_verdicts(ray_session, fused_report):
    report, out, viol = fused_report
    fused = pq.read_table(out).sort_by("doc_id")

    ds = ray_documents(N_DOCS, override_num_blocks=4)
    ref = {r["doc_id"]: r for r in validate_dataset(
        ds, flagship_schema_text(), batch_size=None).take_all()}
    assert fused.num_rows == N_DOCS == len(ref)
    for row in fused.to_pylist():
        r = ref[row["doc_id"]]
        assert row["passed"] == r["passed"]
        assert row["captures"] == r["captures"]
        assert row["n_spans"] == r["n_spans"]
        assert row["n_violations"] == r["n_violations"]
    # flat violations sink covers exactly the planted failing docs
    viols = pq.read_table(viol)
    expected_docs = {f"doc{i:012d}" for i in range(N_DOCS)
                     if expected_fail_mode(i) is not None}
    assert set(viols.column("doc_id").to_pylist()) == expected_docs


def test_fused_wide_constraints_match_unfused(ray_session, fused_report):
    report, _, _ = fused_report
    ds = ray_documents(N_DOCS, override_num_blocks=4)
    validated = validate_dataset(ds, flagship_schema_text(),
                                 batch_size=None)
    keys = assets_table(N_DOCS).column("asset_id").combine_chunks()
    hll, kll, n_dangling, _ = sketch_and_refs_pass(
        validated.select_columns(["doc_id", "n_spans", "media_refs"]),
        "doc_id", "n_spans", "media_refs", keys)
    assert report["rows"] == N_DOCS
    assert report["referential"]["n_dangling"] == n_dangling > 0
    assert report["uniqueness"]["approx_distinct"] == hll.estimate()
    for q in (0.1, 0.5, 0.9):
        assert report["spans_sketch"].quantile(q) == kll.quantile(q)
    n_failed_expected = sum(1 for i in range(N_DOCS)
                            if expected_fail_mode(i) is not None)
    assert report["n_failed"] == n_failed_expected


def test_fused_resume_skips_existing_blocks(ray_session, tmp_path):
    ds = ray_documents(N_DOCS, override_num_blocks=4)
    out = str(tmp_path / "v")
    viol = str(tmp_path / "x")
    r1 = run_fused_suite(ds, flagship_schema_text(), out, viol)
    files = sorted(glob.glob(os.path.join(out, "*.parquet")))
    assert len(files) == len(set(r1["verdict_files"])) == 4
    mtimes = {f: os.path.getmtime(f) for f in files}
    # second run with skip_existing: report identical, files untouched
    ds2 = ray_documents(N_DOCS, override_num_blocks=4)
    r2 = run_fused_suite(ds2, flagship_schema_text(), out, viol,
                         skip_existing=True)
    assert r2["rows"] == r1["rows"]
    assert r2["n_failed"] == r1["n_failed"]
    assert sorted(r2["verdict_files"]) == [os.path.abspath(f) for f in files]
    for f in files:
        assert os.path.getmtime(f) == mtimes[f], "resume rewrote a block"


def test_fused_counts_a_dangling_ref_once_per_document(ray_session, tmp_path):
    """n_dangling counts distinct (document, ref) pairs: a document citing
    one missing asset twice adds one, a second document citing it adds
    another."""
    import pyarrow as pa
    import ray

    from mdvalidate_ray.corpus import DOCUMENTS_SCHEMA
    from mdvalidate_ray.pipelines.fused import fused_task_batch

    def image(ref, offset):
        return {"kind": "image", "text": "img", "media_ref": ref,
                "offset": offset}

    batch = pa.Table.from_pylist([
        {"doc_id": "a", "spans": [image("missing-1", 0),
                                  image("missing-1", 1)]},
        {"doc_id": "b", "spans": [image("missing-1", 0),
                                  image("asset-1", 1)]},
    ], schema=DOCUMENTS_SCHEMA)
    row = fused_task_batch(
        batch, schema_text=flagship_schema_text(),
        out_dir=str(tmp_path), viol_dir=str(tmp_path),
        asset_keys_ref=ray.put(pa.array(["asset-1"]))).to_pylist()[0]
    assert row["n_dangling"] == 2
    assert row["dangling_sample"] == '["missing-1", "missing-1"]'
