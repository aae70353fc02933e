"""Seeded benchmark inputs and their on-disk cache.

Every input is a pure function of ``(kind, seed, params)``.  Entries are
cached under ``.perfbench/cache/<kind>-<key>/`` in the checkout, where
``key`` hashes the seed, every generator parameter and the source of the
generators themselves (this file and ``mdvalidate_ray/corpus.py``), so a
generator change can never silently reuse stale input.

Synthesis runs in a child process (``python3 perfbench/inputs.py ...``):
its time is reported once, kept out of ``setup_s``, and its memory stays
out of the measured process's peak RSS.

Kinds:

* ``corpus``: the flagship spans corpus from ``corpus.documents_batch``
  with the default defect planting, as ``block_rows``-row parquet files
  plus the asset key table.
* ``markdown``: the corpus documents rendered to markdown text by
  :func:`render_markdown`, one row per document with its index.
* ``catalog``: small TPC-H-like tables (``orders``, ``lineitem``,
  ``documents``, ``embeddings``, ``events``; one parquet file each, with
  the column names and types of the catalog queries' inputs) plus a
  ``cdc`` snapshot pair, ``old`` and ``new``, of which :func:`cdc_plan`
  says which indices were removed, edited or added.  Prices and discounts are dyadic, so revenue
  sums carry no rounding and the engine and its DuckDB oracle agree
  exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "cache"
_SOURCES = (Path(__file__).resolve(), ROOT / "mdvalidate_ray" / "corpus.py")

# snapshot keys are primary keys: an index stride no corpus reaches
NO_DUPS = 10**12


def cache_key(kind: str, seed: int, params: dict) -> str:
    h = hashlib.sha256(json.dumps([kind, seed, params],
                                  sort_keys=True).encode())
    for src in _SOURCES:
        h.update(src.read_bytes())
    return h.hexdigest()[:16]


def ensure(kind: str, seed: int, params: dict) -> tuple[Path, float | None]:
    """Path of the cached input, built first if absent.  Returns the
    synthesis seconds when this call built it, else None."""
    path = CACHE / f"{kind}-{cache_key(kind, seed, params)}"
    if (path / "_DONE").exists():
        return path, None
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), kind,
                    str(seed), json.dumps(params), str(path)],
                   check=True, cwd=ROOT, timeout=600)
    return path, time.perf_counter() - t0


# ---- closed-form plans ----------------------------------------------------

def cdc_plan(n: int, seed: int, change_every: int) -> dict:
    """Which corpus indices the new snapshot removes, edits and adds: one
    index in ``change_every`` moves, split evenly between the three."""
    import numpy as np

    rng = np.random.default_rng((seed, 0xCDC))
    k = max(3, n // change_every) // 3
    moved = rng.choice(n, size=2 * k, replace=False)
    return {"removed": sorted(int(i) for i in moved[:k]),
            "changed": sorted(int(i) for i in moved[k:]),
            "added": list(range(n, n + k))}


def expected_passes(i: int, markdown: bool) -> bool:
    """Closed-form verdict of corpus document ``i``.  A markdown code fence
    always has a body (possibly empty), so ``missing_code_body`` cannot be
    expressed in markdown and that document passes."""
    from mdvalidate_ray.corpus import expected_fail_mode

    mode = expected_fail_mode(i)
    return mode is None or (markdown and mode == "missing_code_body")


# ---- spans -> markdown ----------------------------------------------------

def render_markdown(spans: list[dict]) -> str:
    """Render one corpus document's spans as the markdown text that
    ``sources.markdown.markdown_to_spans`` flattens back to the same span
    kinds and texts (blocks separated by blank lines)."""
    blocks: list[str] = []
    i, n = 0, len(spans)
    while i < n:
        kind, text = spans[i]["kind"], spans[i]["text"]
        if kind.startswith("heading"):
            blocks.append("#" * int(kind[7:]) + " " + text)
            i += 1
        elif kind == "paragraph":
            child = spans[i + 1]
            if child["kind"] == "image":
                blocks.append(f"![{child['text']}]({child['media_ref']})")
            else:
                blocks.append(child["text"])
            i += 2
        elif kind == "list_item":
            items = []
            while i < n and spans[i]["kind"] == "list_item":
                items.append("- " + spans[i]["text"])
                i += 1
            blocks.append("\n".join(items))
        elif kind == "table_header_cell":
            head = []
            while i < n and spans[i]["kind"] == "table_header_cell":
                head.append(spans[i]["text"])
                i += 1
            cells = []
            while i < n and spans[i]["kind"] == "table_cell":
                cells.append(spans[i]["text"])
                i += 1
            w = len(head)
            rows = [head, ["---"] * w] + [cells[r:r + w]
                                          for r in range(0, len(cells), w)]
            blocks.append("\n".join("| " + " | ".join(r) + " |"
                                    for r in rows))
        elif kind == "code_lang":
            body = ""
            if i + 1 < n and spans[i + 1]["kind"] == "code_body":
                body = spans[i + 1]["text"] + "\n"
                i += 1
            blocks.append(f"```{text}\n{body}```")
            i += 1
        elif kind == "ruler":
            blocks.append("---")
            i += 1
        else:
            raise ValueError(f"no markdown rendering for span kind {kind!r}")
    return "\n\n".join(blocks) + "\n"


# ---- synthesis (child process) --------------------------------------------

def _build_corpus(out: Path, seed: int, p: dict) -> None:
    import numpy as np
    import pyarrow.parquet as pq

    from mdvalidate_ray.corpus import assets_table, documents_batch

    n, rows = p["n_docs"], p["block_rows"]
    os.makedirs(out / "documents")
    for b, start in enumerate(range(0, n, rows)):
        t = documents_batch(np.arange(start, min(start + rows, n)), n, seed,
                            fail_every=p["fail_every"],
                            dangling_every=p["dangling_every"],
                            dup_every=p["dup_every"])
        pq.write_table(t, out / "documents" / f"part-{b:05d}.parquet")
    pq.write_table(assets_table(n), out / "assets.parquet")


def _build_cdc(out: Path, seed: int, p: dict) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mdvalidate_ray.corpus import DOCUMENTS_SCHEMA, make_doc

    n, rows = p["n_docs"], p["block_rows"]
    plan = cdc_plan(n, seed, p["change_every"])
    removed, changed = set(plan["removed"]), set(plan["changed"])

    def doc(i: int, doc_seed: int):
        return make_doc(i, n, doc_seed, dup_every=NO_DUPS)

    def write(name: str, docs: list) -> None:
        os.makedirs(out / name)
        for b, start in enumerate(range(0, len(docs), rows)):
            part = docs[start:start + rows]
            t = pa.Table.from_arrays(
                [pa.array([d[0] for d in part], pa.string()),
                 pa.array([d[1] for d in part],
                          DOCUMENTS_SCHEMA.field("spans").type)],
                schema=DOCUMENTS_SCHEMA)
            pq.write_table(t, out / name / f"part-{b:05d}.parquet")

    old = [doc(i, seed) for i in range(n)]
    new = []
    for i in range(n):
        if i in removed:
            continue
        if i in changed:
            # same index, so same id and closed-form verdict; content from
            # another seed (redrawn until it differs)
            k = 1
            while (d := doc(i, seed + 7919 * k)) == old[i]:
                k += 1
            new.append(d)
        else:
            new.append(old[i])
    new += [doc(i, seed) for i in plan["added"]]
    write("old", old)
    write("new", new)


def _build_markdown(out: Path, seed: int, p: dict) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mdvalidate_ray.corpus import make_doc

    n = p["n_docs"]
    texts = [render_markdown(make_doc(i, n, seed)[1]) for i in range(n)]
    os.makedirs(out)
    pq.write_table(pa.table({"index": pa.array(range(n), pa.int64()),
                             "text": pa.array(texts, pa.string())}),
                   out / "markdown.parquet")


def _build_catalog(out: Path, seed: int, p: dict) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng((seed, 0xCA7))
    os.makedirs(out / "tables")

    def write(name: str, cols: dict) -> None:
        pq.write_table(pa.table(cols), out / "tables" / f"{name}.parquet")

    def stamps(start: str, span_us: int, n: int):
        t0 = np.datetime64(start, "us").astype(np.int64)
        return pa.array(t0 + rng.integers(0, span_us, n), pa.int64()) \
            .cast(pa.timestamp("us"))

    n = p["orders"]
    write("orders", {
        "o_orderkey": pa.array(np.arange(n), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, p["customers"], n),
                              pa.int64()),
        "o_orderdate": stamps("1992-01-01", 2406 * 86_400 * 10**6, n)})
    lines = rng.integers(1, p["max_lines"] + 1, n)
    m = int(lines.sum())
    write("lineitem", {
        "l_orderkey": pa.array(np.repeat(np.arange(n), lines), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, p["parts"], m), pa.int64()),
        # whole prices and discounts in 1/32 steps: every revenue term and
        # sum is exact in binary floating point
        "l_extendedprice": pa.array(
            rng.integers(900, 100_000, m).astype(np.float64)),
        "l_discount": pa.array(rng.integers(0, 4, m) / 32)})
    words = ("the a data table row column key join sort merge hash scan "
             "filter group agg window stream batch query order part line "
             "customer value fast slow big small spark").split()
    n = p["documents"]
    write("documents", {
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array([" ".join(rng.choice(words, rng.integers(20, 60)))
                          for _ in range(n)], pa.string())})
    n = p["embeddings"]
    emb = rng.standard_normal((n, p["dim"])).astype(np.float32)
    write("embeddings", {
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(list(emb), pa.list_(pa.float32()))})
    n = p["events"]
    write("events", {
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": stamps("2024-01-01", 30 * 86_400 * 10**6, n),
        "user_id": pa.array(rng.integers(0, p["users"], n), pa.int64()),
        "value": pa.array(rng.integers(0, 50_000, n) / 100)})
    _build_cdc(out / "cdc", seed, {"n_docs": p["cdc_docs"],
                                   "block_rows": p["cdc_block_rows"],
                                   "change_every": p["change_every"]})


SYNTHESIZERS = {"corpus": _build_corpus, "markdown": _build_markdown,
                "catalog": _build_catalog}


def _main(argv: list[str]) -> None:
    kind, seed, params, out = argv[0], int(argv[1]), json.loads(argv[2]), \
        Path(argv[3])
    sys.path.insert(0, str(ROOT))
    tmp = out.with_name(out.name + f".tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    SYNTHESIZERS[kind](tmp, seed, params)
    (tmp / "_DONE").write_text(json.dumps({"kind": kind, "seed": seed,
                                           "params": params}))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


if __name__ == "__main__":
    _main(sys.argv[1:])
