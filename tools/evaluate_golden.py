"""Golden fixture for the batch validator
(``tests/data/evaluate_golden.parquet``).

The fixture pins ``stages.validate.evaluate_batch`` on all 7
``VALIDATED_SCHEMA`` columns.  Its documents are the flagship corpus
``corpus.arrow_documents(N_DOCS)``, which plants every failure mode, and
the mutants (``_mutants`` of ``tests/test_pipeline.py``) of its first
``N_MUTATED`` conforming documents, validated against
``corpus.flagship_schema_text()``.  The file holds each document's
``spans`` next to the expected columns, and the schema text in its
metadata under ``schema``.

    python3 tools/evaluate_golden.py          # rewrite the fixture
    python3 tools/evaluate_golden.py --check  # report rows that differ
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "evaluate_golden.parquet"
N_DOCS = 120
N_MUTATED = 4


def documents():
    """The fixture's input: a ``(doc_id, spans)`` table and the schema
    text."""
    import pyarrow as pa
    from test_pipeline import _mutants

    from mdvalidate_ray.corpus import (
        DOCUMENTS_SCHEMA,
        arrow_documents,
        expected_fail_mode,
        flagship_schema_text,
    )

    corpus = arrow_documents(N_DOCS)
    spans = corpus.column("spans").to_pylist()
    conforming = [i for i in range(N_DOCS) if expected_fail_mode(i) is None]
    mutants = [(f"mutant-{i}-{k}", m) for i in conforming[:N_MUTATED]
               for k, m in enumerate(_mutants(spans[i]))]
    ids = corpus.column("doc_id").to_pylist() + [d for d, _ in mutants]
    docs = pa.Table.from_arrays(
        [pa.array(ids, pa.string()),
         pa.array(spans + [m for _, m in mutants],
                  DOCUMENTS_SCHEMA.field("spans").type)],
        schema=DOCUMENTS_SCHEMA)
    return docs, flagship_schema_text()


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "tests")]
    import pyarrow.parquet as pq

    from mdvalidate_ray.schema.compiler import compile_schema
    from mdvalidate_ray.stages.validate import evaluate_batch

    docs, schema_text = documents()
    out = evaluate_batch(docs, compile_schema(schema_text))
    if "--check" in argv:
        old = pq.read_table(FIXTURE)
        want = old.drop_columns(["spans"]).to_pylist()
        got = out.to_pylist()
        bad = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
        print(len(bad), "of", len(want), "rows differ:", bad)
        return 1 if bad or len(want) != len(got) else 0
    table = out.add_column(1, "spans", docs.column("spans"))
    table = table.replace_schema_metadata({"schema": schema_text})
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(table, FIXTURE, compression="zstd")
    print(FIXTURE, table.num_rows, "documents", FIXTURE.stat().st_size,
          "bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
