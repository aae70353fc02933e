"""The batch validator against its golden fixture.

``tests/data/evaluate_golden.parquet`` holds the flagship corpus (every
planted failure mode) and mutants of its conforming documents, each with
the 7 ``VALIDATED_SCHEMA`` columns ``evaluate_batch`` gave them, and the
schema text in its metadata (``python3 tools/evaluate_golden.py``
rewrites it).  Any change to any column of any row fails this test, on
the whole batch, on a ``slice()`` and on a two-chunk batch.
"""

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mdvalidate_ray.corpus import DOCUMENTS_SCHEMA
from mdvalidate_ray.schema.compiler import compile_schema
from mdvalidate_ray.stages.validate import VALIDATED_SCHEMA, evaluate_batch

FIXTURE = Path(__file__).parent / "data" / "evaluate_golden.parquet"


@pytest.fixture(scope="module")
def golden():
    t = pq.read_table(FIXTURE)
    docs = t.select(DOCUMENTS_SCHEMA.names).cast(DOCUMENTS_SCHEMA) \
        .combine_chunks()
    want = t.select(VALIDATED_SCHEMA.names).to_pylist()
    return docs, want, compile_schema(t.schema.metadata[b"schema"].decode())


@pytest.mark.parametrize("shape", ["whole", "slice", "two_chunks"])
def test_evaluate_batch_matches_golden_fixture(golden, shape):
    docs, want, compiled = golden
    n = docs.num_rows
    assert n > 200 and not all(r["passed"] for r in want)
    if shape == "slice":
        docs, want = docs.slice(7, n - 20), want[7:n - 13]
    elif shape == "two_chunks":
        docs = pa.concat_tables([docs.slice(0, n // 3),
                                 docs.slice(n // 3)])
        assert docs.column("spans").num_chunks == 2
    got = evaluate_batch(docs, compiled)
    assert got.schema == VALIDATED_SCHEMA
    rows = got.to_pylist()
    differ = [i for i, (a, b) in enumerate(zip(rows, want)) if a != b]
    assert len(rows) == len(want)
    assert not differ, (f"{len(differ)} rows differ; first: "
                        f"{rows[differ[0]]!r} != {want[differ[0]]!r}")
