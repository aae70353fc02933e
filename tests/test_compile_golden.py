"""The schema compiler against its golden fixture.

``tests/data/compile_golden.json`` holds schema texts (the flagship
schema, the conformance tests' strings, FIXTURES.md's group-A
constraints, edge cases, and the flattener golden's documents read as
schemas), each with the canonical dump of its compiled blocks or the
``[kind, detail]`` of the ``SchemaError`` it raises
(``python3 tools/compile_golden.py`` rewrites it).  Any change to any
compiled block or error fails this test.
"""

import dataclasses
import json
from pathlib import Path

from mdvalidate_ray.schema.compiler import compile_schema
from mdvalidate_ray.schema.spec import SchemaError

FIXTURE = Path(__file__).parent / "data" / "compile_golden.json"


def dump(obj):
    """A dataclass as ``[class name, {field: value}]``, leaving out the
    private fields (``_name``) and the derived ones (``compare=False``,
    e.g. a matcher's compiled regex); lists and tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__,
                {f.name: dump(getattr(obj, f.name))
                 for f in dataclasses.fields(obj)
                 if f.compare and not f.name.startswith("_")}]
    if isinstance(obj, (list, tuple)):
        return [dump(x) for x in obj]
    return obj


def test_compiler_matches_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert len(golden) > 400
    assert sum("error" in want for _, want in golden) > 20
    differ = []
    for text, want in golden:
        try:
            got = {"blocks": dump(compile_schema(text).blocks)}
        except SchemaError as e:
            got = {"error": [e.kind, e.detail]}
        if got != want:
            differ.append((text, got, want))
    assert not differ, (f"{len(differ)} schemas differ; first: "
                        f"{differ[0]!r}")
