import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True)
    yield ray
    ray.shutdown()


@pytest.fixture
def force_tier(monkeypatch):
    """Force the tier planner (``mdvalidate_ray.tiers``) for one block:

    ``with force_tier("partitioned"):`` sets the budget to 0 bytes, so
    every non-empty input goes past it; ``force_tier("broadcast")`` keeps
    only empty inputs on the local tier.  ``budget=`` sets the budget to
    that many bytes instead.  On leaving the block the named tier must
    have been chosen at least once; ``force_tier(None, budget=...)``
    checks nothing.  Yields the list of tiers the planner chose."""
    from contextlib import contextmanager

    from mdvalidate_ray import tiers

    plan = tiers.plan_tier

    @contextmanager
    def force(tier, *, budget=None):
        seen = []

        def spy(rows, row_bytes):
            seen.append(plan(rows, row_bytes))
            return seen[-1]

        with monkeypatch.context() as m:
            m.setattr(tiers, "plan_tier", spy)
            if tier is not None:
                m.setattr(tiers, "LOCAL_BYTES", 0)
            if tier == "partitioned" and budget is None:
                budget = 0
            if budget is not None:
                m.setattr(tiers, "budget", lambda: budget)
            yield seen
        assert tier is None or tier in seen, (
            f"forced tier {tier!r} was never chosen: {seen}")

    return force
