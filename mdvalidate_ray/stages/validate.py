"""The constraint-evaluation stage: a task-pool ``map_batches`` transform.

The Ray analog of the reference's single-threaded validator loop
(reference: src/mdschema/validation/validator.rs:59–93): the schema is
compiled ONCE per worker process (:func:`cached_evaluator`, like "parse
once, immutable thereafter", validator.rs:59–62, with regexes compiled per
process like the LazyLock statics in matcher.rs:15–21) and each task
validates one zero-copy Arrow batch of documents.

Each batch is evaluated by the schema's columnar block plan
(:mod:`mdvalidate_ray.stages.columnar`), which steps once per schema
block over the whole batch with Arrow kernels, and the per-document tree
interpreter (:func:`~mdvalidate_ray.evaluate.evaluator.evaluate_spans`),
which alone reports violations: the reference's repetition semantics are
a small NFA over the span sequence (SURVEY.md §7 "what's hard"), and the
plan covers only the runs it can check column-wise.  A document the plan
cannot decide at some step is handed to the walk for that step's blocks,
from the plan's cursor, and re-enters the plan at the next step from the
walk's end cursor -- the reference's resume from ``farthest_reached_pos``
(validator.rs:101–149) instead of a second walk from the first span.  At
cluster scale this stage is embarrassingly parallel: no shuffle, no
cross-row state, output rows 1:1 with input rows.
"""

from __future__ import annotations

import pyarrow as pa

from mdvalidate_ray.evaluate.evaluator import evaluate_spans
from mdvalidate_ray.schema.compiler import compile_schema

VIOLATION_STRUCT = pa.struct([
    ("constraint_id", pa.string()),
    ("kind", pa.string()),
    ("expected", pa.string()),
    ("actual", pa.string()),
    ("span_index", pa.int32()),
])

VALIDATED_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("passed", pa.bool_()),
    ("captures", pa.string()),
    ("n_spans", pa.int32()),
    ("n_violations", pa.int32()),
    ("violations", pa.list_(VIOLATION_STRUCT)),
    # non-empty media refs carried forward so the referential probe reads
    # them from the validated batch instead of re-walking the spans
    ("media_refs", pa.list_(pa.string())),
])

VIOLATIONS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("constraint_id", pa.string()),
    ("kind", pa.string()),
    ("expected", pa.string()),
    ("actual", pa.string()),
    ("span_index", pa.int32()),
])


class ConstraintEvaluator:
    """A compiled schema as a callable: one Arrow batch of documents in,
    the validated batch out."""

    def __init__(self, schema_text: str):
        self.compiled = compile_schema(schema_text)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return evaluate_batch(batch, self.compiled)


def evaluate_batch(batch: pa.Table, compiled) -> pa.Table:
    """Validate one zero-copy Arrow batch against a compiled schema —
    the kernel behind :class:`ConstraintEvaluator`, and so behind both
    :func:`validate_dataset` and the fused suite.

    The schema's columnar plan (:mod:`mdvalidate_ray.stages.columnar`)
    steps every document through the schema with Arrow kernels and hands
    the walk only the blocks it cannot decide."""
    import numpy as np
    import pyarrow.compute as pc

    from mdvalidate_ray.stages.columnar import plan_for

    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    n = len(spans)
    offsets = spans.offsets.to_numpy().astype(np.int64)
    refs = spans.values.field("media_ref").slice(
        offsets[0], offsets[-1] - offsets[0])
    offsets -= offsets[0]
    walk = _Walk(spans, compiled)
    captures = plan_for(compiled).run(spans, walk)
    viols: list = [[]] * n
    nviol = np.zeros(n, dtype=np.int32)
    for i, v in walk.violations.items():
        viols[i], nviol[i] = v, len(v)
    # non-empty media refs per document, straight from the columns
    has_ref = pc.fill_null(pc.not_equal(refs, ""), False)
    lengths = np.diff(offsets)
    ref_counts = np.bincount(np.repeat(np.arange(n), lengths)[
        has_ref.to_numpy(zero_copy_only=False)], minlength=n)
    mrefs = pa.ListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(ref_counts))), pa.int32()),
        refs.filter(has_ref))
    return pa.Table.from_arrays(
        [batch.column("doc_id").cast(pa.string()),
         pa.array(nviol == 0, pa.bool_()),
         captures,
         pa.array(lengths, pa.int32()),
         pa.array(nviol, pa.int32()),
         pa.array(viols, pa.list_(VIOLATION_STRUCT)),
         mrefs],
        schema=VALIDATED_SCHEMA)


class _Walk:
    """The per-document walk of one batch's documents, block range by
    block range: ``walk(docs, blocks, pos)`` runs :func:`evaluate_spans`
    on each of ``docs`` over the schema ``blocks`` from its span cursor
    in ``pos``, keeps the violations and captures per document and
    returns the cursors where the walks stopped; each walk joins into
    the document's earlier captures, as one whole walk would.

    A document's spans become Python tuples once, the first time it is
    walked, and only from that walk's cursor on (and at least its last
    span, which a missing block reports): the walk never reads a span
    before its cursor, later walks of the document start further on, and
    the spans before stay ``None``."""

    def __init__(self, spans: pa.ListArray, compiled):
        import numpy as np

        self.compiled = compiled
        self.flat = spans.values
        offsets = spans.offsets.to_numpy().astype(np.int64)
        self.start = offsets[:-1]
        # a null document reads as no spans
        self.size = np.where(spans.is_valid().to_numpy(
            zero_copy_only=False), np.diff(offsets), 0)
        self.tuples: dict = {}
        self.violations: dict = {}
        self.captures: dict = {}

    def __call__(self, docs, blocks: range, pos):
        import numpy as np

        new = np.array([d not in self.tuples for d in docs.tolist()],
                       dtype=bool)
        if new.any():
            self._convert(docs[new], pos[new])
        ends = []
        for d, p in zip(docs.tolist(), pos.tolist()):
            r = evaluate_spans(self.tuples[d], self.compiled,
                               blocks=blocks, pos=p,
                               captures=self.captures.get(d))
            if r.violations:
                self.violations.setdefault(d, []).extend(r.violations)
            if r.captures:
                self.captures[d] = r.captures
            ends.append(r.end)
        return np.array(ends, dtype=np.int64)

    def _convert(self, docs, pos) -> None:
        import numpy as np

        size = self.size[docs]
        first = np.maximum(np.minimum(pos, size - 1), 0)
        lens = size - first
        at = np.repeat(self.start[docs] + first - np.cumsum(lens) + lens,
                       lens) + np.arange(lens.sum())
        flat = _span_tuples(self.flat.take(pa.array(at)))
        i = 0
        for d, f, n in zip(docs.tolist(), first.tolist(), lens.tolist()):
            self.tuples[d] = [None] * f + flat[i:i + n]
            i += n


def _span_tuples(flat: pa.StructArray) -> list:
    """Spans as ``(kind, text, media_ref, offset)`` tuples, the form the
    walk reads."""
    import numpy as np
    import pyarrow.compute as pc

    # field-wise flatten + dict rebuild is ~3x faster than struct
    # to_pylist (measured); on top of that (also measured, ~2.5x on
    # the non-text fields):
    # * `text` and the non-empty `media_ref` values go through numpy:
    #   to_numpy(zero_copy_only=False).tolist() builds the same str/None
    #   list ~10x faster than to_pylist (11 vs 124 ms on a 141k-string
    #   block);
    # * `kind` dictionary-encodes (tiny vocabulary) — one small
    #   to_pylist + an index gather of SHARED interned strings;
    # * `offset` goes through numpy .tolist() (C fast path);
    # * `media_ref` is mostly null — fill a None template sparsely.
    texts = flat.field("text").to_numpy(zero_copy_only=False).tolist()
    kd = flat.field("kind").dictionary_encode()
    # numpy object-array gather of SHARED interned strings — ~6x the
    # speed of a Python list comprehension over 280k indices
    kinds = np.array(kd.dictionary.to_pylist(), dtype=object)[
        kd.indices.to_numpy(zero_copy_only=False)].tolist()
    offs = flat.field("offset").to_numpy(
        zero_copy_only=False).tolist()
    ref_col = flat.field("media_ref")
    # Sparse fill keyed on the ACTUAL filler: corpora write "" (not
    # null) for ref-less spans, so filling every non-null value
    # converted all 286k strings per batch (~380 ms); filling only
    # the non-empty ~6% costs ~20 ms.  "" must survive in the tuple
    # (link-destination matching distinguishes "" from absent), so
    # the template is "" when the column is null-free, None-mixed
    # otherwise.
    if ref_col.null_count == 0:
        refs: list = [""] * len(flat)
        ridx = pc.indices_nonzero(pc.not_equal(ref_col, ""))
    else:
        refs = [None] * len(flat)
        ridx = pc.indices_nonzero(pc.is_valid(ref_col))
    for i, v in zip(ridx.to_numpy().tolist(), ref_col.take(ridx).to_numpy(
            zero_copy_only=False).tolist()):
        refs[i] = v
    # ONE zip over all the spans, then C-level list slices per doc —
    # 4000 small zips cost ~2x a single big one (measured)
    return list(zip(kinds, texts, refs, offs))


def explode_violations(batch: pa.Table) -> pa.Table:
    """validated batch → flat violations table (one row per violation).

    Pure Arrow: list-flatten + parent-index take, no Python row loop."""
    viol_col = batch.column("violations")
    if isinstance(viol_col, pa.ChunkedArray):
        viol_col = viol_col.combine_chunks()
    flat = viol_col.flatten()
    if len(flat) == 0:
        return VIOLATIONS_SCHEMA.empty_table()
    parents = pa.compute.list_parent_indices(viol_col)
    doc_ids = batch.column("doc_id").take(parents)
    return pa.Table.from_arrays(
        [doc_ids] + [flat.field(name) for name in
                     ("constraint_id", "kind", "expected", "actual", "span_index")],
        schema=VIOLATIONS_SCHEMA)


_EVALUATORS: dict = {}


def cached_evaluator(schema_text: str) -> ConstraintEvaluator:
    """The per-worker-process evaluator for ``schema_text``.  Ray reuses
    worker processes across tasks, so successive tasks (and successive
    queries on the same schema) compile once per process; the cache keeps
    the four most recently used schemas."""
    from mdvalidate_ray.state.proc_cache import get_or_build

    return get_or_build(_EVALUATORS, schema_text,
                        lambda: ConstraintEvaluator(schema_text), keep=4)


def _validate_task(batch: pa.Table, *, schema_text: str) -> pa.Table:
    return cached_evaluator(schema_text)(batch)


def validate_dataset(ds, schema_text: str, *, batch_size: int | None = None):
    """documents Dataset → validated Dataset (verdicts + nested violations).

    The kernel runs as plain tasks on the warm worker pool, with the
    compiled schema from the per-process :func:`cached_evaluator`.

    ``batch_size=None`` (default) evaluates whole blocks — measured ~50%
    faster than re-slicing into fixed batches (no coalescing/copy between
    the read and the kernel); pass an int only when block sizes are
    pathological."""
    # schema-authoring errors are compile-time: fail on the driver before
    # any data is read (SURVEY.md §2.6; reference errors.rs:191–263)
    compile_schema(schema_text)
    return ds.map_batches(
        _validate_task,
        fn_kwargs={"schema_text": schema_text},
        batch_size=batch_size,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def violations_dataset(validated):
    """validated Dataset → flat violations Dataset."""
    return validated.map_batches(explode_violations, batch_format="pyarrow",
                                 zero_copy_batch=True)
