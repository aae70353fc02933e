"""One way to run a map stage: every ``map_batches`` / ``map_groups`` call
in the package, the job entrypoint and ``__ray_entry__.py`` runs a
function on tasks.  State that costs work to build is built once per
worker process through ``state.proc_cache.get_or_build``; no stage is a
class in an actor pool.

The check is an AST walk that fails on a map call given a class (by name,
or an instance of one), or given any of ``concurrency=``, ``compute=``,
``fn_constructor_args=`` or ``fn_constructor_kwargs=``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAP_CALLS = {"map_batches", "map_groups"}
ACTOR_KWARGS = {"concurrency", "compute", "fn_constructor_args",
                "fn_constructor_kwargs"}


def _files(root: Path) -> list[Path]:
    return sorted([*root.glob("mdvalidate_ray/**/*.py"),
                   *root.glob("jobs/**/*.py"), root / "__ray_entry__.py"])


def _class_names(trees) -> set[str]:
    return {n.name for t in trees for n in ast.walk(t)
            if isinstance(n, ast.ClassDef)}


def _is_class(node, classes: set[str]) -> bool:
    """A class by name (defined in the scanned files, or CapWords by
    convention), or a call constructing one."""
    if isinstance(node, ast.Call):
        return _is_class(node.func, classes)
    name = (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)
    return name is not None and (
        name in classes or (name.lstrip("_")[:1].isupper()
                            and not name.isupper()))


def actor_stages(root: Path) -> list[str]:
    """Every map stage under ``root`` that runs a class or asks for an
    actor pool, as ``path:line: reason``."""
    trees = {f: ast.parse(f.read_text(), str(f)) for f in _files(root)}
    classes = _class_names(trees.values())
    out = []
    for f, tree in trees.items():
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in MAP_CALLS):
                continue
            fn = n.args[0] if n.args else next(
                (k.value for k in n.keywords if k.arg == "fn"), None)
            where = f"{f.relative_to(root)}:{n.lineno}"
            if fn is not None and _is_class(fn, classes):
                out.append(f"{where}: {n.func.attr} given a class")
            out += [f"{where}: {n.func.attr}({k.arg}=...)"
                    for k in n.keywords if k.arg in ACTOR_KWARGS]
    return out


def test_every_map_stage_is_a_task_function():
    found = actor_stages(ROOT)
    assert not found, "actor-pool map stages:\n" + "\n".join(found)


def test_guard_flags_actor_stages(tmp_path):
    """The walk sees each shape it forbids, and passes a function stage
    with ``fn_kwargs``."""
    pkg = tmp_path / "mdvalidate_ray"
    pkg.mkdir()
    (tmp_path / "__ray_entry__.py").write_text("")
    (pkg / "stages.py").write_text(
        "class Scorer:\n"
        "    def __call__(self, b):\n"
        "        return b\n"
        "def score(b, *, k):\n"
        "    return b\n"
        "def run(ds):\n"
        "    ds.map_batches(Scorer, concurrency=2)\n"
        "    ds.map_batches(Scorer())\n"
        "    ds.map_batches(score, fn_constructor_kwargs={})\n"
        "    ds.groupby('k').map_groups(score, compute='actors')\n"
        "    ds.map_batches(score, fn_kwargs={'k': 1})\n")
    found = actor_stages(tmp_path)
    assert found == [
        "mdvalidate_ray/stages.py:7: map_batches given a class",
        "mdvalidate_ray/stages.py:7: map_batches(concurrency=...)",
        "mdvalidate_ray/stages.py:8: map_batches given a class",
        "mdvalidate_ray/stages.py:9: map_batches(fn_constructor_kwargs=...)",
        "mdvalidate_ray/stages.py:10: map_groups(compute=...)"]
