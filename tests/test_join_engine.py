"""One join engine: every join in the package, the job entrypoint and
``__ray_entry__.py`` is a broadcast or an ``exchange.co_partition`` with
``pa.Table.join`` (or a matcher of its own) per bucket.  Ray Data's
``Dataset.join`` runs on hash-shuffle aggregator actors, which do not
finish in a 1-CPU session.

The check is an AST walk that fails on a ``.join(`` call given ``on=``
or ``num_partitions=`` (``Dataset.join``'s keywords): ``pa.Table.join``
takes ``keys=`` and ``str.join`` takes no keywords.
"""

import ast
from pathlib import Path

from test_map_stages import _files

ROOT = Path(__file__).resolve().parents[1]
DATASET_JOIN_KWARGS = {"on", "num_partitions"}


def dataset_joins(root: Path) -> list[str]:
    """Every ``Dataset.join`` call under ``root``, as ``path:line``."""
    out = []
    for f in _files(root):
        for n in ast.walk(ast.parse(f.read_text(), str(f))):
            if (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "join"
                    and any(k.arg in DATASET_JOIN_KWARGS
                            for k in n.keywords)):
                out.append(f"{f.relative_to(root)}:{n.lineno}")
    return out


def test_no_dataset_join():
    found = dataset_joins(ROOT)
    assert not found, "Ray Dataset.join calls:\n" + "\n".join(found)


def test_guard_flags_dataset_join(tmp_path):
    """The walk sees both of ``Dataset.join``'s keywords and passes
    ``pa.Table.join`` and ``str.join``."""
    pkg = tmp_path / "mdvalidate_ray"
    pkg.mkdir()
    (tmp_path / "__ray_entry__.py").write_text("")
    (pkg / "joins.py").write_text(
        "def f(a, b, t, u):\n"
        "    a.join(b, join_type='inner', on=('k',))\n"
        "    a.join(b, 'inner', num_partitions=4)\n"
        "    t.join(u, keys='k', right_keys='k2')\n"
        "    return ', '.join(['x', 'y'])\n")
    assert dataset_joins(tmp_path) == ["mdvalidate_ray/joins.py:2",
                                       "mdvalidate_ray/joins.py:3"]
