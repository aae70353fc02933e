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
from mdvalidate_ray.stages.validate import validate_dataset
from mdvalidate_ray.state.sketches import HyperLogLog

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
    """The fused partials against exact forms of the unfused rows: HLL
    merge is an element-wise register max, so one sketch fed every
    doc_id has the same estimate; n_dangling is the distinct (document,
    missing ref) pairs; KLL quantiles sit within KLL's rank error of the
    exact n_spans quantiles."""
    report, _, _ = fused_report
    ds = ray_documents(N_DOCS, override_num_blocks=4)
    rows = validate_dataset(ds, flagship_schema_text(),
                            batch_size=None).select_columns(
        ["doc_id", "n_spans", "media_refs"]).take_all()
    keys = set(assets_table(N_DOCS).column("asset_id").to_pylist())
    assert report["rows"] == N_DOCS == len(rows)

    hll = HyperLogLog(p=14).add([r["doc_id"] for r in rows])
    assert report["uniqueness"]["approx_distinct"] == hll.estimate()

    dangling = {(r["doc_id"], ref) for r in rows
                for ref in r["media_refs"] or [] if ref not in keys}
    assert dangling and all(ref.startswith("missing-")
                            for _, ref in dangling)
    assert report["referential"]["n_dangling"] == len(dangling)

    kll = report["spans_sketch"]
    eps = 1.65 / kll.k      # KLL normalized rank error at 99% (k=200: 1.65%)
    spans = sorted(r["n_spans"] for r in rows)
    for q in (0.1, 0.5, 0.9):
        v = kll.quantile(q)
        below = sum(1 for x in spans if x < v) / len(spans)
        at_most = sum(1 for x in spans if x <= v) / len(spans)
        assert below - eps <= q <= at_most + eps, (q, v)
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
