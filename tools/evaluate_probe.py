"""Byte-identity and cost probe for ``stages.validate.evaluate_batch``.

Validates the cached perfbench corpus blocks of seeds 1-4, plus a
``slice()`` of the first block and a two-chunk concatenation of the
second and third, against the flagship schema, then with its list
matcher written ``(?=\\w)\\w+`` (a block the columnar plan cannot step)
and with every matcher behind ``(?=)`` (no block it can step).  It
prints one line per schema, its name and:

* the SHA-1 over every validated batch's Arrow IPC stream bytes (each
  batch hashed on its own, the per-batch digests hashed in order) --
  it must not move when the columnar plan or the walk changes;
* the number of documents;
* the in-process ``evaluate_batch`` cost in ms/doc (one timed pass
  after the hashed one);
* how many schema blocks the hashed pass handed to the walk, that is
  the sum of the block ranges passed to ``evaluate_spans`` (a
  whole-document walk counts every block), and in how many calls.

The tree under test is ``$TREE`` (default: this checkout); perfbench
and its corpus cache are read from the current directory, so run it
from the repository root:

    TREE=/path/to/other/checkout python3 tools/evaluate_probe.py
    python3 tools/evaluate_probe.py
"""

from __future__ import annotations

import glob
import hashlib
import os
import sys
import time


def main() -> int:
    sys.path.insert(0, os.environ.get("TREE", os.getcwd()))
    sys.path.append("perfbench")
    import pyarrow as pa
    import pyarrow.parquet as pq
    from inputs import ensure
    from workloads import Suite

    from mdvalidate_ray.corpus import flagship_schema_text
    from mdvalidate_ray.schema.compiler import compile_schema
    from mdvalidate_ray.stages import validate

    flagship = flagship_schema_text()
    schemas = {"flagship": flagship,
               "lookahead_list": flagship.replace("tag:/", "tag:/(?=\\w)"),
               "all_lookahead": flagship.replace(":/", ":/(?=)")}
    blocks = [pq.read_table(f) for s in (1, 2, 3, 4) for f in sorted(
        glob.glob(str(ensure("corpus", s, Suite.params)[0] / "documents"
                      / "*.parquet")))]
    blocks += [blocks[0].slice(137, 911),
               pa.concat_tables([blocks[1].slice(0, 500),
                                 blocks[2].slice(3, 700)])]
    n = sum(b.num_rows for b in blocks)
    walk = validate.evaluate_spans

    def counted(spans, schema, **kw):
        walked["blocks"] += len(kw.get("blocks", schema.blocks))
        walked["calls"] += 1
        return walk(spans, schema, **kw)

    for name, text in schemas.items():
        compiled = compile_schema(text)
        h, walked = hashlib.sha1(), {"blocks": 0, "calls": 0}
        validate.evaluate_spans = counted
        try:
            for b in blocks:
                out, sink = validate.evaluate_batch(b, compiled), \
                    pa.BufferOutputStream()
                with pa.ipc.new_stream(sink, out.schema) as w:
                    w.write_table(out)
                h.update(hashlib.sha1(sink.getvalue().to_pybytes()).digest())
        finally:
            validate.evaluate_spans = walk
        t = time.perf_counter()
        for b in blocks:
            validate.evaluate_batch(b, compiled)
        ms = 1e3 * (time.perf_counter() - t) / n
        print(name, h.hexdigest(), n, "docs", round(ms, 4), "ms/doc",
              walked["blocks"], "blocks walked in", walked["calls"],
              "calls", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
