"""mdvalidate_ray — a Ray-Data-native constraint-validation engine.

Re-expresses the markdown-schema contract of the reference engine
(404Wolf/mdvalidate, studied read-only at /root/reference) as declarative
constraints over Arrow tables of interleaved text+media documents, evaluated
with ``ray.data.Dataset`` pipelines:

* the per-document schema walk (reference:
  src/mdschema/validation/validator.rs) becomes a compiled constraint AST
  evaluated inside ``map_batches`` over whole Arrow batches: a columnar
  block plan decides each schema block it can for every document, and
  only the blocks it cannot are walked, document by document
  (:mod:`mdvalidate_ray.stages.validate`);
* wide data-quality constraints with no reference analog — column stats,
  ``doc_id`` uniqueness (HyperLogLog + exact groupby), referential integrity
  of ``media_ref`` against an asset table (broadcast Bloom + hash semi-join
  fallback) and distribution drift (KLL sketches) — live in
  :mod:`mdvalidate_ray.stages`;
* large-scale training-data operators (dedup family, similarity search,
  text analysis, multimodal plumbing) live in
  :mod:`mdvalidate_ray.functions`.

Nothing in this package calls ``ray.init`` / ``ray.shutdown``; sessions are
owned by the caller (tests' conftest fixture, bench.py, or the driver).
"""

from mdvalidate_ray.schema.compiler import compile_schema
from mdvalidate_ray.schema.spec import CompiledSchema, SchemaError
from mdvalidate_ray.evaluate.evaluator import evaluate_spans

__all__ = [
    "compile_schema",
    "CompiledSchema",
    "SchemaError",
    "evaluate_spans",
]
