"""The markdown flattener against its golden fixture.

``tests/data/flattener_golden.json`` holds seeded compositions of
construct snippets with their spans as ``[kind, text, media_ref, offset,
line]`` rows (``python3 tools/flattener_golden.py`` rewrites it).  Any
change to any span of any document fails this test.
"""

import json
from pathlib import Path

from mdvalidate_ray.sources.markdown import markdown_to_spans

FIXTURE = Path(__file__).parent / "data" / "flattener_golden.json"


def test_flattener_matches_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert len(golden) == 200
    differ = []
    for md, rows in golden:
        got = [[s["kind"], s["text"], s["media_ref"], s["offset"], s["line"]]
               for s in markdown_to_spans(md)]
        if got != rows:
            differ.append((md, got, rows))
    assert not differ, (f"{len(differ)} documents differ; first: "
                        f"{differ[0]!r}")
