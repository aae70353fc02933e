"""The one tier rule every tiered operator follows.

A wide step runs in one of three ways, chosen on the driver from the
bytes of the state it would collect or broadcast (``rows × row_bytes``):

* ``"local"`` — at or under :data:`LOCAL_BYTES` the state is small
  enough that per-round Dataset launches cost more than the work, so
  the operator collects it once and runs in the driver process.  This
  is an overhead cut-over, not a memory limit.
* ``"broadcast"`` — at or under :func:`budget` the state folds to the
  driver and ships once via ``ray.put``.
* ``"partitioned"`` — past the budget nothing state-sized reaches the
  driver: the operator co-partitions (groupby/sort exchange, cached edge
  buckets, Bloom + anti-join), or raises where it has no such tier.

Operators without an in-process form treat ``"local"`` as
``"broadcast"``.  The decision is taken on the driver only; a task that
needs it gets the chosen tier as an argument.  Tests force a tier by
monkeypatching :func:`budget` (0 sends every non-empty input past it)
and :data:`LOCAL_BYTES` (0 keeps only empty inputs local).
"""

from __future__ import annotations

# 2M edges × 16 B: the graph operators' measured in-process cut-over.
LOCAL_BYTES = 32 << 20

# Share of one node's object store that one broadcast or driver collect
# may take (see BASELINE.md "Tier cut-overs on one budget").
BUDGET_FRACTION = 1 / 8

_SESSION_BUDGET: dict = {}


def budget() -> int:
    """Bytes one broadcast or driver collect may hold: the per-node
    object store (Ray's ``object_store_memory`` over the alive nodes)
    times :data:`BUDGET_FRACTION`, derived once per Ray session."""
    import ray

    session = ray.get_runtime_context().get_node_id()
    if session not in _SESSION_BUDGET:
        nodes = sum(1 for n in ray.nodes() if n.get("Alive"))
        store = ray.cluster_resources().get("object_store_memory", 0)
        _SESSION_BUDGET.clear()
        _SESSION_BUDGET[session] = int(store / max(nodes, 1)
                                       * BUDGET_FRACTION)
    return _SESSION_BUDGET[session]


def plan_tier(rows: int, row_bytes: float) -> str:
    """``"local"``, ``"broadcast"`` or ``"partitioned"`` for ``rows`` rows
    of ``row_bytes`` bytes each."""
    need = rows * row_bytes
    if need > budget():
        return "partitioned"
    return "local" if need <= LOCAL_BYTES else "broadcast"


def plan_dataset(ds) -> str:
    """:func:`plan_tier` for an already-materialized Dataset at its mean
    row width (``size_bytes() / count()``)."""
    rows = ds.count()
    return plan_tier(rows, ds.size_bytes() / rows if rows else 0)
