"""The corpus reader: the CLI corpus mode, ``--checkpoint``, the job and
``bench.py`` read their documents here.

:func:`read_documents` lists a corpus's parquet files by one rule
(:func:`corpus_files`) and reads them one block per file, so Ray plans
the read and the suite's ``map_batches`` as one fused
``ReadParquet->MapBatches(fused_task_batch)`` operator.  Parallelism is
therefore per file; a file larger than Ray's target block size is still
split inside its own read task.

The production input format per BASELINE.json's input_hint is Lance
(``ray.data.read_lance``).  The ``lance`` package is optional, so that
branch is gated behind an import-try, and parquet is the verified path.
The prod-named ``read_lance`` plumbing IS executed and pinned by tests
via :mod:`mdvalidate_ray.sources.lance_stub` (an API-compatible shim of
the exact pylance surface Ray's LanceDatasource touches, injected as
``sys.modules["lance"]``); the Lance v2 columnar FORMAT itself is not
reimplemented (see ``LANCE_DECISION.md`` at the repo root).
"""

from __future__ import annotations

import os

import pyarrow as pa


class CorpusInputError(ValueError):
    """The input cannot be validated as asked: it holds no parquet
    files, or it cannot be checkpointed as asked (no partitions, or a
    finished partition whose recorded lineage or asset-table setting
    differs from today's run; see
    :mod:`mdvalidate_ray.pipelines.checkpoint`).  Every corpus entry
    point exits 2 on it."""


def have_lance() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def corpus_files(path: str) -> list[str]:
    """The parquet files of a corpus: ``path`` itself when it is a file,
    otherwise every ``*.parquet`` under it, recursively and sorted,
    skipping hidden files and directories (a name starting with ``.``).
    Listed through ``pyarrow.fs``, so a local path and a URI list the
    same way; each file is ``path`` joined with its path below it.
    Raises :class:`CorpusInputError` when there is none."""
    import pyarrow.fs as pafs

    if "://" in path:
        fs, root = pafs.FileSystem.from_uri(path)
    else:
        fs, root = pafs.LocalFileSystem(), os.path.abspath(path)
    info = fs.get_file_info(root)
    if info.type == pafs.FileType.File:
        return [path]
    files = []
    if info.type == pafs.FileType.Directory:
        for f in fs.get_file_info(pafs.FileSelector(root, recursive=True)):
            rel = os.path.relpath(f.path, root)
            if (f.type == pafs.FileType.File and rel.endswith(".parquet")
                    and not any(part.startswith(".")
                                for part in rel.split("/"))):
                files.append(os.path.join(path, rel))
    if not files:
        raise CorpusInputError(f"no parquet files under {path}")
    return sorted(files)


def read_documents(path, *, columns=None, **kw):
    """Read a documents table, one block per parquet file: ``path`` is a
    corpus path (listed by :func:`corpus_files`) or a list of parquet
    files.  Local files are handed to Ray as absolute paths, since the
    read tasks need not share the driver's working directory.  A
    ``.lance`` path reads the Lance dataset when the lance package is
    available."""
    import ray.data

    if isinstance(path, str) and (path.endswith(".lance")
                                  or path.endswith(".lance/")):
        if not have_lance():
            raise ImportError(
                "lance is not installed in this environment; convert the "
                "dataset to parquet or install pylance")
        return ray.data.read_lance(path, columns=columns, **kw)
    files = [f if "://" in f else os.path.abspath(f) for f in
             (corpus_files(path) if isinstance(path, str) else path)]
    return ray.data.read_parquet(files, columns=columns,
                                 override_num_blocks=len(files), **kw)


_WIDEN = {
    "int8": pa.int64(), "int16": pa.int64(), "int32": pa.int64(),
    "uint8": pa.int64(), "uint16": pa.int64(), "uint32": pa.int64(),
    "float": pa.float64(), "halffloat": pa.float64(),
}


def union_schema_of(schemas: list[pa.Schema]) -> pa.Schema:
    """The UNION-BY-NAME schema of heterogeneous sources (DuckDB
    ``read_parquet(..., union_by_name=true)`` semantics): fields appear
    in first-seen order; a column missing from a source reads as NULL;
    conflicting numeric widths promote (int* → int64, float32 →
    float64).  Genuinely incompatible types (e.g. string vs int) raise
    — silent coercion hides corruption."""
    out: dict[str, pa.DataType] = {}
    for sch in schemas:
        for f in sch:
            t = _WIDEN.get(str(f.type), f.type)
            prev = out.get(f.name)
            if prev is None:
                out[f.name] = t
            elif prev != t:
                both = {str(prev), str(t)}
                if both <= {"int64", "double"}:
                    out[f.name] = pa.float64()
                else:
                    raise TypeError(
                        f"union_by_name: column {f.name!r} has "
                        f"incompatible types {prev} vs {t}")
    return pa.schema(list(out.items()))


def union_by_name(datasets: list):
    """UNION heterogeneous-schema Datasets by column NAME — the schema-
    evolution reader: month N of a corpus gains a column, an old shard
    lacks it, and the pipeline must still stream both as one Dataset.
    Each source pays one vectorized cast/pad ``map_batches`` (missing
    columns materialize as null arrays, numerics widen per
    :func:`union_schema_of`); then Ray's zero-copy ``union`` chains the
    streams — no shuffle, no materialization."""
    schemas = [ds.schema().base_schema if hasattr(ds.schema(),
                                                  "base_schema")
               else ds.schema() for ds in datasets]
    schemas = [s if isinstance(s, pa.Schema) else pa.schema(
        list(zip(s.names, s.types))) for s in schemas]
    target = union_schema_of(schemas)

    def conform(b: pa.Table) -> pa.Table:
        cols = []
        for f in target:
            if f.name in b.schema.names:
                cols.append(b.column(f.name).cast(f.type))
            else:
                cols.append(pa.nulls(b.num_rows, f.type))
        return pa.Table.from_arrays(cols, schema=target)

    mapped = [ds.map_batches(conform, batch_format="pyarrow",
                             zero_copy_batch=True) for ds in datasets]
    out = mapped[0]
    for m in mapped[1:]:
        out = out.union(m)
    return out
