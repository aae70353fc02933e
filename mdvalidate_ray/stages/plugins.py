"""User-extension surface: Python constraint plug-ins (SURVEY.md §2.7).

The reference's extension points are documented-but-unimplemented matcher
hooks (execution validation, html/XSD — reference docs/.../04-code.mdx,
06-html.mdx, all TODO).  Our engine's extension surface is concrete: a
registered class with ``compile(spec) -> state`` (driver-side, once) and
``evaluate(batch: pa.Table, state) -> violations table`` (per batch,
vectorize inside), driven by a task ``map_batches`` stage like the
built-in constraints, which compiles the requested plugins once per worker
process.
"""

from __future__ import annotations

import pyarrow as pa

from mdvalidate_ray.stages.validate import VIOLATIONS_SCHEMA

_REGISTRY: dict[str, type] = {}


def register_constraint(name: str):
    """Class decorator: ``@register_constraint("my_check")``."""
    def deco(cls):
        if not (hasattr(cls, "compile") and hasattr(cls, "evaluate")):
            raise TypeError(f"{cls.__name__} must define compile(spec) and "
                            "evaluate(batch, state)")
        _REGISTRY[name] = cls
        return cls

    return deco


def get_constraint(name: str) -> type:
    return _REGISTRY[name]


def registered_constraints() -> list[str]:
    return sorted(_REGISTRY)


_COMPILED: dict = {}


def _plugin_batch(batch: pa.Table, *, plugins_ref) -> pa.Table:
    """Every requested plugin's violations for one batch; the plugins
    (shipped once via ``ray.put``) compile once per worker process."""
    import ray

    from mdvalidate_ray.state.proc_cache import get_or_build

    def build():
        compiled = []
        for name, spec in ray.get(plugins_ref):
            plugin = get_constraint(name)()
            compiled.append((plugin, plugin.compile(spec)))
        return compiled

    outs = []
    for plugin, state in get_or_build(_COMPILED, plugins_ref.hex(), build):
        out = plugin.evaluate(batch, state)
        if len(out):
            outs.append(out.cast(VIOLATIONS_SCHEMA))
    if not outs:
        return VIOLATIONS_SCHEMA.empty_table()
    return pa.concat_tables(outs)


def apply_plugins(ds, plugins: list[tuple[str, dict]], *,
                  batch_size: int = 1024):
    """documents Dataset → violations Dataset from the named plugins."""
    import ray

    return ds.map_batches(
        _plugin_batch, fn_kwargs={"plugins_ref": ray.put(plugins)},
        batch_size=batch_size, batch_format="pyarrow", zero_copy_batch=True)


# --- a built-in example plugin: span-count bounds ---------------------------

@register_constraint("span_count_bounds")
class SpanCountBounds:
    """Flags documents whose span count is outside [min, max]."""

    def compile(self, spec: dict) -> dict:
        return {"min": int(spec.get("min", 0)),
                "max": int(spec.get("max", 1 << 31))}

    def evaluate(self, batch: pa.Table, state: dict) -> pa.Table:
        import pyarrow.compute as pc

        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        counts = pc.list_value_length(spans)
        bad = pc.or_(pc.less(counts, state["min"]),
                     pc.greater(counts, state["max"]))
        flagged = batch.filter(bad)
        flagged_counts = counts.filter(bad)
        n = len(flagged)
        return pa.Table.from_arrays(
            [flagged.column("doc_id"),
             pa.array(["span_count_bounds"] * n),
             pa.array(["span_count_out_of_bounds"] * n),
             pa.array([f"[{state['min']}, {state['max']}]"] * n),
             pa.array([str(c) for c in flagged_counts.to_pylist()]),
             pa.array([0] * n, pa.int32())],
            schema=VIOLATIONS_SCHEMA)
