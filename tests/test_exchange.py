"""Tooling guards: every exchange bucket and every two-sided exchange
comes from ``mdvalidate_ray.exchange``.

Walks ``mdvalidate_ray/`` by AST and fails, outside ``exchange.py``, on

* a hand-written bucket — a ``% np.uint64(n_parts | n_buckets |
  self.n_parts)`` or the multiply-shift constant ``0x9E3779B97F4A7C15``.
  The only exceptions are the hashes that are part of a result rather
  than routing (see the ``exchange`` module docstring);
* a ``.union(`` — two sides tagged, padded and unioned by hand instead
  of :func:`~mdvalidate_ray.exchange.co_partition`.  The only exceptions
  are unions that are not an exchange.

Both allowlists name their exceptions by qualified name.
"""

import ast
import pathlib

import numpy as np
import pyarrow as pa

PKG = pathlib.Path(__file__).resolve().parents[1] / "mdvalidate_ray"
GOLDEN = 0x9E3779B97F4A7C15
BUCKET_COUNTS = {"n_parts", "n_buckets"}

# module (relative to mdvalidate_ray/, no .py) : qualified name → why
OUTPUT_HASHES = {
    "functions/relational:write_bucketed.add_bucket":
        "bucket=K directories of the written layout",
    "functions/relational:snapshot_diff._nested_row_hash":
        "row content hash the diff compares",
    "functions/text:dsir_importance_weights.count_part":
        "hashed n-gram feature buckets of the importance weights",
    "functions/text:dsir_importance_weights.score":
        "hashed n-gram feature buckets of the importance weights",
    "functions/media:audio_fingerprints":
        "audio fingerprint words",
    "functions/dedup:_CC_G1":
        "edge-set signature of the connected-components rounds",
}


def _is_bucket_count(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in BUCKET_COUNTS
    return (isinstance(node, ast.Attribute) and node.attr == "n_parts"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _is_uint64_of_count(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "uint64" and len(node.args) == 1
            and _is_bucket_count(node.args[0]))


# module : qualified name → why its ``.union(`` is not an exchange
UNIONS = {
    "queries:_augmented_docs": "self-augmentation: a corpus plus its copies",
    "queries:semantic_dedup_flags":
        "self-augmentation: embeddings plus their copies",
    "sources/io:union_by_name": "a multi-source read",
    "functions/relational:bloom_copartition":
        "the concat of its two outputs",
}


def _hits(is_hit, root: pathlib.Path) -> list[str]:
    """``module:qualified.name:line`` of every node ``is_hit`` accepts
    outside ``exchange.py``."""
    hits = []
    for f in sorted(root.rglob("*.py")):
        mod = str(f.relative_to(root))[:-3]
        if mod == "exchange":
            continue

        def walk(node, qual):
            for n in ast.iter_child_nodes(node):
                q = qual
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                    q = f"{qual}.{n.name}" if qual else n.name
                elif not qual and isinstance(n, ast.Assign) and all(
                        isinstance(t, ast.Name) for t in n.targets):
                    q = n.targets[0].id
                if is_hit(n):
                    hits.append(f"{mod}:{q or '<module>'}:{n.lineno}")
                walk(n, q)

        walk(ast.parse(f.read_text()), "")
    return hits


def hand_buckets(root: pathlib.Path = PKG) -> list[str]:
    """``module:qualified.name:line`` of every hand-written bucket."""
    return _hits(lambda n: (
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
        and _is_uint64_of_count(n.right)) or (
        isinstance(n, ast.Constant) and n.value == GOLDEN), root)


def hand_unions(root: pathlib.Path = PKG) -> list[str]:
    """``module:qualified.name:line`` of every ``.union(`` call."""
    return _hits(lambda n: (
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "union"), root)


def test_no_exchange_bucket_outside_exchange_module():
    stray = [h for h in hand_buckets()
             if h.rsplit(":", 1)[0] not in OUTPUT_HASHES]
    assert not stray, (
        "compute exchange buckets with mdvalidate_ray.exchange.key_bucket "
        "or by_bucket: " + ", ".join(stray))


def test_output_hash_allowlist_is_live():
    """Every allowlisted name still holds the hash it is listed for, so
    a stale entry cannot quietly widen the guard."""
    seen = {h.rsplit(":", 1)[0] for h in hand_buckets()}
    assert set(OUTPUT_HASHES) <= seen, set(OUTPUT_HASHES) - seen


def test_no_hand_written_union_outside_exchange_module():
    stray = [h for h in hand_unions() if h.rsplit(":", 1)[0] not in UNIONS]
    assert not stray, (
        "meet two Datasets with mdvalidate_ray.exchange.co_partition, "
        "not a tagged .union(: " + ", ".join(stray))


def test_union_allowlist_is_live():
    seen = {h.rsplit(":", 1)[0] for h in hand_unions()}
    assert set(UNIONS) <= seen, set(UNIONS) - seen


def test_union_guard_flags_a_planted_union(tmp_path):
    """The walk finds a ``.union(`` at any depth and names the function
    it sits in; ``exchange.py`` and a ``frozenset | frozenset`` pass."""
    (tmp_path / "exchange.py").write_text(
        "def co_partition(a, b):\n    return a.union(b)\n")
    (tmp_path / "ops.py").write_text(
        "def join(a, b, x, y):\n"
        "    def tag(ds):\n"
        "        return ds\n"
        "    both = tag(a).union(tag(b))\n"
        "    return both, x | y\n")
    assert hand_unions(tmp_path) == ["ops:join:4"]


def test_key_bucket_reads_integer_keys_exactly():
    from mdvalidate_ray.exchange import key_bucket

    big = 2**53 + 1
    with_null = key_bucket(pa.array([big, None], pa.int64()), 64)
    without = key_bucket(pa.array([big], pa.int64()), 64)
    as_numpy = key_bucket(np.array([big], dtype=np.int64), 64)
    assert with_null[0] == without[0] == as_numpy[0]
    assert with_null[1] == key_bucket(pa.array([0], pa.int64()), 64)[0]
    # several columns fold into one bucket per row, within range
    b = key_bucket([pa.array([1, 2, 3]), pa.array(["a", None, "c"])], 7)
    assert b.dtype == np.int64 and ((b >= 0) & (b < 7)).all()


def test_co_partition_hands_each_side_its_own_schema(ray_session):
    """``co_partition`` calls ``fn`` with each bucket's two sides under
    their own schemas, the right key in the left key's type: an equal
    non-key name on both sides does not collide, a nested column rides
    through, a 0-row side keeps its schema, and equal keys share a
    bucket."""
    import json

    import ray.data

    from mdvalidate_ray.exchange import co_partition

    nested = pa.list_(pa.struct([("a", pa.int64())]))
    left = pa.table({"k": pa.array([1, 2, None, 5, 8], pa.int32()),
                     "v": pa.array(range(5), pa.int64()),
                     "tags": pa.array([[{"a": i}] for i in range(5)],
                                      nested)})
    right = pa.table({"k2": pa.array([2, 5, 5, 7, None], pa.int64()),
                      "v": ["two", "five", "five2", "seven", "null"]})
    want_r = pa.schema([("k2", pa.int32()), ("v", pa.string())])

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert lt.schema == left.schema and rt.schema == want_r
        return pa.table({"l": [json.dumps(lt.to_pylist())],
                         "r": [json.dumps(rt.to_pylist())]})

    out = co_partition(
        ray.data.from_arrow([left.slice(0, 2), left.slice(2)]),
        ray.data.from_arrow([right, right.schema.empty_table()]),
        fn, 3, on="k", right_on="k2").take_all()
    buckets = [(json.loads(r["l"]), json.loads(r["r"])) for r in out]
    got_l = sorted((r for lb, _ in buckets for r in lb), key=repr)
    got_r = sorted((r for _, rb in buckets for r in rb), key=repr)
    assert got_l == sorted(left.to_pylist(), key=repr)
    assert got_r == sorted(right.to_pylist(), key=repr)
    where: dict = {}
    for i, (lb, rb) in enumerate(buckets):
        for key in [r["k"] for r in lb] + [r["k2"] for r in rb]:
            assert where.setdefault(key, i) == i
