"""Deterministic synthetic corpus of interleaved text+media documents.

BASELINE.json's ``input_hint`` fixes the input shape: a table with columns
``(doc_id: string, spans: array<struct<kind, text, media_ref, offset>>)``.
No external data exists for that shape, so this module synthesizes it —
deterministically (seeded per doc_id, so generation is order-independent and
parallelizable with ``ray.data.range(...).map_batches``) and with *known
planted defects* so tests can assert exact expected verdicts, duplicate
doc_ids, and dangling media_refs without re-running the engine.

Documents conform to :func:`flagship_schema_text` unless a failure mode is
planted.  Planting is a pure function of the document index, so the expected
outcome of every wide constraint is computable in closed form
(:func:`expected_fail_mode`, :func:`expected_dangling_indices`,
:func:`doc_id_for_index`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DOCUMENTS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(pa.struct([
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]))),
])

ASSETS_SCHEMA = pa.schema([
    ("asset_id", pa.string()),
    ("mime", pa.string()),
    ("size_bytes", pa.int64()),
])

_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu "
    "xi omicron pi rho sigma tau upsilon phi chi psi omega row scan merge "
    "batch shuffle stream block actor arrow lance parquet sketch bloom"
).split()

FAIL_MODES = (
    "wrong_heading_level",      # h2 instead of h1 → node_type_mismatch
    "bad_table_value",          # non-numeric Value cell → content_mismatch_matcher
    "too_many_list_items",      # tags beyond max → children_length_mismatch
    "trailing_extra_span",      # extra ruler at end → malformed_structure_input_has_child
    "missing_code_body",        # code_lang without code_body → malformed_structure_schema_has_child
    "bad_intro_case",           # intro paragraph not matching /Intro .*/ →
                                # not_enough_nodes_for_repeating_paragraph
)

MAX_TAGS = 40
MAX_TABLE_ROWS = 30
MAX_INTROS = 6
MAX_GALLERY = 8


def flagship_schema_text() -> str:
    """The mdschema every synthetic document is generated against.

    Exercises every matcher feature of the reference grammar: heading
    matcher, repeated paragraphs, repeated list items, repeated table rows,
    code-fence curly matchers, plus image paragraphs whose media_refs are
    validated separately by the referential-integrity constraint."""
    return (
        "# `title:/[A-Za-z][\\w ]*/`\n"
        "\n"
        "`intro:/Intro .*/`{1," + str(MAX_INTROS) + "}\n"
        "\n"
        "`gallery:/img .*/`{," + str(MAX_GALLERY) + "}\n"
        "\n"
        "- `tag:/\\w+/`{1," + str(MAX_TAGS) + "}\n"
        "\n"
        "| Field | Value |\n"
        "| --- | --- |\n"
        "| `field:/\\w+/` | `value:/\\d+/` |{," + str(MAX_TABLE_ROWS) + "}\n"
        "\n"
        "```{lang:/\\w+/}\n"
        "{body}\n"
        "```\n"
    )


def doc_id_for_index(i: int, num_docs: int, dup_every: int = 1000,
                     hot_copies: int = 0) -> str:
    """doc_id assignment with planted duplicates (FIXTURES.md B3).

    * every ``dup_every``-th index (``i % dup_every == 7`` with
      ``i >= dup_every``) reuses the previous index's id → ~0.1% exact
      duplicates at the default; a huge ``dup_every`` disables planting;
    * the last ``hot_copies`` indices all share one hot id (skew test).
    """
    if hot_copies and i >= num_docs - hot_copies:
        return "doc_hot"
    if i >= dup_every and i % dup_every == 7:
        return f"doc{i - 1:012d}"
    return f"doc{i:012d}"


def expected_fail_mode(i: int, fail_every: int = 10) -> str | None:
    """Failure planting: every ``fail_every``-th doc fails, cycling through
    FAIL_MODES.  Pure function of the index — tests recompute it."""
    if i % fail_every == 3:
        return FAIL_MODES[(i // fail_every) % len(FAIL_MODES)]
    return None


def expected_dangling_indices(i: int, dangling_every: int = 50) -> bool:
    """Docs whose gallery contains one dangling media_ref (B4)."""
    return i % dangling_every == 11


def n_assets_for(num_docs: int) -> int:
    return max(100, num_docs // 10)


def make_doc(i: int, num_docs: int, seed: int = 42, fail_every: int = 10,
             dangling_every: int = 50, dup_every: int = 1000,
             hot_copies: int = 0) -> tuple[str, list[dict]]:
    """Generate one document's (doc_id, spans). Deterministic in (seed, i)."""
    rng = np.random.default_rng((seed, i))
    mode = expected_fail_mode(i, fail_every)
    n_assets = n_assets_for(num_docs)
    spans: list[dict] = []

    def add(kind, text="", media_ref=""):
        spans.append({"kind": kind, "text": text, "media_ref": media_ref,
                      "offset": len(spans)})

    def words(n):
        return " ".join(_WORDS[j] for j in rng.integers(0, len(_WORDS), n))

    title = f"Doc {words(2)}"
    add("heading2" if mode == "wrong_heading_level" else "heading1", title)

    n_intro = int(rng.integers(1, MAX_INTROS + 1))
    for k in range(n_intro):
        bad = mode == "bad_intro_case" and k == 0
        add("paragraph")
        add("text", ("intro " if bad else "Intro ") + words(int(rng.integers(5, 30))))

    n_img = int(rng.integers(0, MAX_GALLERY + 1))
    dangle_at = int(rng.integers(0, n_img)) if (
        expected_dangling_indices(i, dangling_every) and n_img > 0) else -1
    for k in range(n_img):
        if k == dangle_at:
            ref = f"missing-{i:09d}"
        else:
            ref = f"asset-{int(rng.integers(0, n_assets)):09d}"
        add("paragraph")
        add("image", f"img {words(2)}", media_ref=ref)

    n_tags = MAX_TAGS + 1 if mode == "too_many_list_items" \
        else int(rng.integers(1, MAX_TAGS + 1))
    for k in range(n_tags):
        add("list_item", _WORDS[int(rng.integers(0, len(_WORDS)))] + str(k))

    add("table_header_cell", "Field")
    add("table_header_cell", "Value")
    n_rows = int(rng.integers(0, MAX_TABLE_ROWS + 1))
    bad_row = int(rng.integers(0, n_rows)) if (mode == "bad_table_value" and n_rows) else -1
    if mode == "bad_table_value" and n_rows == 0:
        n_rows, bad_row = 1, 0
    for k in range(n_rows):
        add("table_cell", _WORDS[int(rng.integers(0, len(_WORDS)))])
        add("table_cell", "oops" if k == bad_row else str(int(rng.integers(0, 10_000))))

    add("code_lang", "python")
    if mode != "missing_code_body":
        add("code_body", f"print({int(rng.integers(0, 99))})")
    if mode == "trailing_extra_span":
        add("ruler")

    return doc_id_for_index(i, num_docs, dup_every, hot_copies), spans


def documents_batch(indices: np.ndarray, num_docs: int, seed: int = 42,
                    fail_every: int = 10, dangling_every: int = 50,
                    dup_every: int = 1000, hot_copies: int = 0) -> pa.Table:
    """Vector of indices → Arrow table of documents (the map_batches body)."""
    ids, span_lists = [], []
    for i in indices:
        doc_id, spans = make_doc(int(i), num_docs, seed, fail_every,
                                 dangling_every, dup_every, hot_copies)
        ids.append(doc_id)
        span_lists.append(spans)
    return pa.Table.from_arrays(
        [pa.array(ids, pa.string()),
         pa.array(span_lists, DOCUMENTS_SCHEMA.field("spans").type)],
        schema=DOCUMENTS_SCHEMA)


def markdown_batch_to_documents(batch: pa.Table, *, text_column: str = "text",
                                id_column: str = "doc_id") -> pa.Table:
    """Raw-text corpus batch → the spans-shaped documents table (the
    map_batches body of the CLI's ``--text-column`` ingestion)."""
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    ids = batch.column(id_column).cast(pa.string()).to_pylist()
    texts = batch.column(text_column).to_pylist()
    span_lists = [markdown_to_spans(t or "") for t in texts]
    return pa.Table.from_arrays(
        [pa.array(ids, pa.string()),
         pa.array(span_lists, DOCUMENTS_SCHEMA.field("spans").type)],
        schema=DOCUMENTS_SCHEMA)


def ray_documents(num_docs: int, seed: int = 42, *, fail_every: int = 10,
                  dangling_every: int = 50, dup_every: int = 1000,
                  hot_copies: int = 0, override_num_blocks: int | None = None):
    """Distributed corpus synthesis: ``ray.data.range`` → ``map_batches``.

    The per-doc RNG is seeded by (seed, index), so any partitioning of the
    index space yields identical rows — generation scales with the cluster
    instead of bottlenecking on the driver."""
    import ray.data

    ds = ray.data.range(num_docs, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        lambda b: documents_batch(b["id"], num_docs, seed, fail_every,
                                  dangling_every, dup_every, hot_copies),
        batch_format="numpy",
    )


def arrow_documents(num_docs: int, seed: int = 42, **kw) -> pa.Table:
    """Small driver-side corpus for unit tests (no Ray)."""
    return documents_batch(np.arange(num_docs), num_docs, seed, **kw)


def assets_table(num_docs: int) -> pa.Table:
    """Asset side table; every generated ``asset-*`` ref resolves here,
    every ``missing-*`` ref dangles (FIXTURES.md B4)."""
    n = n_assets_for(num_docs)
    ids = [f"asset-{k:09d}" for k in range(n)]
    rng = np.random.default_rng(7)
    mimes = np.array(["image/png", "image/jpeg", "audio/wav", "video/mp4"])
    return pa.Table.from_arrays(
        [pa.array(ids),
         pa.array(mimes[rng.integers(0, len(mimes), n)]),
         pa.array(rng.integers(1_000, 10_000_000, n), pa.int64())],
        schema=ASSETS_SCHEMA)
