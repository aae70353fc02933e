"""CLI — the engine's analog of the reference's ``mdv <schema> <input>
[output] [-f|--fast-fail] [-q|--quiet]`` (reference: src/main.rs:16–31).

Two modes, chosen by the input path:

* **single-document mode** (``input`` is a ``.md`` file or ``-`` for
  stdin): parse the markdown into spans, evaluate in-process (no Ray —
  same latency profile as the reference's one-doc-per-process design),
  print the captures JSON on success or pretty violation reports on
  stderr, exit 0/1 (reference src/main.rs:85–90, cmd.rs:152–178).
* **single-document STREAMING mode** (``--stream``): the analog of the
  reference's chunked stdin loop (cmd.rs:95–122) — ``BUFFER_SIZE``-byte
  reads, optimistic revalidation of the accumulated prefix, fast-fail on
  violations more input cannot cure, authoritative EOF pass
  (validator.rs:161–168); chunking never changes the verdict.
* **corpus mode** (``input`` is a parquet file/dir): read it through
  :func:`~mdvalidate_ray.sources.io.read_documents` (the file itself, or
  every ``*.parquet`` under the directory, recursively; none exits 2),
  run the one-pass fused suite (verdicts/violations parquet under
  ``output``, or a temporary directory without one), print a summary,
  exit 0/1 on global pass/fail.  ``--fast-fail`` aborts after the first
  batch that contains violations (driver-side early stop, the batch
  analog of cmd.rs:118–121).

The CLI owns its Ray session (guarded init) — the only places allowed to.
"""

from __future__ import annotations

import argparse
import json
import sys


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def print_violation_report(violations: list, quiet: bool,
                           out=None) -> None:
    """Small pretty-printer for violation samples — the batch analog of the
    reference's ariadne reports (errors.rs:543–559).  ``out`` defaults to
    the ``sys.stderr`` of the call, not of the import."""
    if quiet:
        return
    out = out or sys.stderr
    for v in violations:
        doc = f"[{v['doc_id']}] " if "doc_id" in v else ""
        print(f"{doc}{v['kind']} at span {v['span_index']} "
              f"({v['constraint_id']}): expected {v['expected']!r}, "
              f"got {v['actual']!r}", file=out)


def print_source_report(violations: list, spans: list, source: str,
                        input_path: str, out=None) -> None:
    """Source-context error report for single-document mode — the analog
    of the reference's ariadne reports (errors.rs:543–947): each violation
    points at the offending source line with a caret label.  ``out``
    defaults to the ``sys.stderr`` of the call, not of the import."""
    out = out or sys.stderr
    src_lines = source.split("\n")
    by_offset = {s["offset"]: s for s in spans}
    for v in violations:
        span = by_offset.get(v["span_index"])
        line_no = span.get("line") if span else None
        print(f"error[{v['kind']}] ({v['constraint_id']})", file=out)
        if line_no and 1 <= line_no <= len(src_lines):
            src = src_lines[line_no - 1]
            gutter = f"{line_no:>4} "
            print(f"  --> {input_path}:{line_no}", file=out)
            print(f"{gutter}| {src}", file=out)
            print(f"{' ' * len(gutter)}| {'^' * max(len(src.strip()), 1)} "
                  f"expected {v['expected']!r}, got {v['actual']!r}",
                  file=out)
        else:
            print(f"  at span {v['span_index']}: expected "
                  f"{v['expected']!r}, got {v['actual']!r}", file=out)
        print(file=out)


def run_single(schema, input_path: str, output, args) -> int:
    """Single-document mode; ``schema`` is a ``CompiledSchema`` (``main``
    hands on the one it compiled for its fail-fast check) or the schema
    text."""
    from mdvalidate_ray.evaluate.evaluator import evaluate_spans
    from mdvalidate_ray.schema.compiler import compile_schema
    from mdvalidate_ray.sources.markdown import markdown_to_spans

    if isinstance(schema, str):
        schema = compile_schema(schema)
    source = _read_text(input_path)
    spans = markdown_to_spans(source)
    result = evaluate_spans(spans, schema)
    if result.passed:
        print(result.captures_json(), file=output)
        if not args.quiet:
            print("validation passed", file=sys.stderr)
        return 0
    if not args.quiet:
        print_source_report([dict(v) for v in result.violations],
                            spans, source,
                            input_path if input_path != "-" else "<stdin>")
    return 1


def run_single_stream(schema, input_path: str, output, args) -> int:
    """Streaming single-document mode — the analog of the reference's
    chunked stdin loop (cmd.rs:95–122): ``BUFFER_SIZE``-byte reads
    (env-overridable, default 2048 — cmd.rs:11, 181–186).

    True INCREMENTAL mode (stages/stream_validate.py): the tail of the
    text is flattened only past provably-stable cut points, finalized
    schema blocks never re-walk (their violations are final — the
    fast-fail signal), and memory holds spans + the unstable tail, not
    re-walk passes — per-chunk CPU is O(tail).  The one construct whose
    meaning depends on later input (a forward link-reference
    definition) falls back to the batch whole-text walk, so the verdict
    always equals non-streaming mode (chunk-size invariance is pinned
    by test_cli_stream_chunk_size_invariance and the
    test_stream_validate equivalence sweeps).  ``schema`` is a
    ``CompiledSchema`` or the schema text; the whole text is flattened
    again only for that fallback or for a failure report."""
    import codecs
    import os

    from mdvalidate_ray.evaluate.evaluator import evaluate_spans
    from mdvalidate_ray.sources.markdown import markdown_to_spans
    from mdvalidate_ray.stages.stream_validate import (
        StreamingDocValidator,
        StreamingUnsupported,
    )

    bufsize = max(1, int(os.environ.get("BUFFER_SIZE", "2048")))
    reader = sys.stdin.buffer if input_path == "-" else \
        open(input_path, "rb")
    dec = codecs.getincrementaldecoder("utf-8")()
    text = ""                       # kept for the caret source report
    v = StreamingDocValidator(schema, fail_fast=args.fast_fail)
    streaming_ok = True
    name = input_path if input_path != "-" else "<stdin>"
    try:
        while True:
            chunk = reader.read(bufsize)
            eof = not chunk
            piece = dec.decode(chunk or b"", final=eof)
            text += piece
            if streaming_ok and piece:
                try:
                    state = v.feed(piece)
                except StreamingUnsupported:
                    streaming_ok = False   # batch EOF pass decides
                else:
                    if args.fast_fail and state["failed"]:
                        # finalized violations cannot be cured by more
                        # input — the rest of the stream is never read
                        if not args.quiet:
                            print_source_report(
                                [dict(x) for x in v.violations],
                                markdown_to_spans(text), text, name)
                        return 1
            if eof:
                break
    finally:
        if reader is not sys.stdin.buffer:
            reader.close()
    spans = result = None
    if streaming_ok:
        try:
            result = v.finish()
        except StreamingUnsupported:
            pass      # a forward definition in the last, unstable tail
    if result is None:
        # authoritative batch pass (forward-definition fallback)
        spans = markdown_to_spans(text)
        result = evaluate_spans(spans, v.schema)
    if result.passed:
        print(result.captures_json(), file=output)
        if not args.quiet:
            print("validation passed", file=sys.stderr)
        return 0
    if not args.quiet:
        print_source_report([dict(v) for v in result.violations],
                            spans if spans is not None
                            else markdown_to_spans(text), text, name)
    return 1


def run_corpus(schema_text: str, input_path: str, out_dir, args) -> int:
    import tempfile

    import ray

    from mdvalidate_ray.sources.io import CorpusInputError, read_documents

    if args.checkpoint and not out_dir:
        print("error: --checkpoint requires an OUTPUT directory",
              file=sys.stderr)
        return 2
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    try:
        if args.checkpoint:
            return _run_checkpointed_cli(schema_text, input_path, out_dir,
                                         args)
        docs = read_documents(input_path)
    except CorpusInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.text_column:
        from mdvalidate_ray.corpus import markdown_batch_to_documents

        docs = docs.map_batches(
            lambda b: markdown_batch_to_documents(
                b, text_column=args.text_column),
            batch_format="pyarrow")

    if args.fast_fail:
        import pyarrow.compute as pc

        from mdvalidate_ray.stages.validate import (
            explode_violations,
            validate_dataset,
        )

        for b in validate_dataset(docs, schema_text).iter_batches(
                batch_format="pyarrow", batch_size=1024):
            if pc.sum(b.column("n_violations")).as_py():
                sample = explode_violations(b).slice(0, 10).to_pylist()
                print_violation_report(sample, args.quiet)
                return 1
        return 0

    from mdvalidate_ray.pipelines.fused import run_fused_suite

    with tempfile.TemporaryDirectory() as tmp:
        base = out_dir or tmp
        report = run_fused_suite(docs, schema_text, f"{base}/verdicts",
                                 f"{base}/violations")
    n_viol = report["total_violations"]
    if not args.quiet:
        print(f"{report['rows']} documents validated, {n_viol} violations",
              file=sys.stderr)
    return 1 if n_viol else 0


def _run_checkpointed_cli(schema_text: str, input_path: str, out_dir: str,
                          args) -> int:
    """Checkpointed corpus validation: the input's parquet files are split
    into K partitions; finished partitions are skipped on re-run."""
    from mdvalidate_ray.pipelines.checkpoint import run_checkpointed_parquet

    report = run_checkpointed_parquet(input_path, args.partitions, out_dir,
                                      schema_text)
    if not args.quiet:
        print(json.dumps({kk: vv for kk, vv in report.items()
                          if kk != "partitions"}), file=sys.stderr)
    return 0 if report["complete"] and report["n_violations"] == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="mdv-ray",
        description="Ray-Data-native markdown-schema constraint validation")
    p.add_argument("schema", help="mdschema file ('-' = stdin)")
    p.add_argument("input", help=".md file / '-' (single-doc) or parquet "
                                 "path (corpus)")
    p.add_argument("output", nargs="?", default=None,
                   help="output file (single-doc captures JSON) or "
                        "directory (corpus verdicts/violations parquet)")
    p.add_argument("-f", "--fast-fail", action="store_true",
                   help="exit on first violation")
    p.add_argument("-q", "--quiet", action="store_true")
    p.add_argument("--print-spans", action="store_true",
                   help="dev tool: print the flattened span table of a "
                        "markdown INPUT (ignores the schema walk) — the "
                        "analog of mdvalidate-utils print-tree")
    p.add_argument("--stream", action="store_true",
                   help="single-doc mode: chunked streaming reads "
                        "(BUFFER_SIZE env, default 2048 B) with "
                        "optimistic revalidation; -f exits early on "
                        "violations more input cannot cure; the EOF "
                        "pass is authoritative")
    p.add_argument("--text-column", default=None,
                   help="corpus mode: treat INPUT as raw markdown text in "
                        "this column and flatten it to spans first")
    p.add_argument("--checkpoint", action="store_true",
                   help="corpus mode: run partition-by-partition with a "
                        "resumable manifest under OUTPUT (re-running skips "
                        "finished partitions)")
    p.add_argument("--partitions", type=int, default=8,
                   help="number of checkpoint partitions (with --checkpoint)")
    args = p.parse_args(argv)

    try:
        schema_text = _read_text(args.schema)
    except OSError as e:
        print(f"error: cannot read schema {args.schema}: {e.strerror}",
              file=sys.stderr)
        return 2
    try:
        from mdvalidate_ray.schema.compiler import compile_schema

        compiled = compile_schema(schema_text)
    except Exception as e:
        print(f"error: invalid schema: {e}", file=sys.stderr)
        return 2
    if args.print_spans:
        # dev tree dump (reference utils/src/main.rs:19–29 print-tree):
        # one line per span, offset-indexed, media_ref when present
        from mdvalidate_ray.sources.markdown import markdown_to_spans

        for s in markdown_to_spans(_read_text(args.input)):
            ref = f"  -> {s['media_ref']}" if s["media_ref"] else ""
            text = s["text"].replace("\n", "\\n")
            print(f"{s['offset']:>4} {s['kind']:<20} {text!r}{ref}")
        return 0
    single = args.input == "-" or args.input.endswith((".md", ".markdown"))
    if single:
        out = sys.stdout if args.output in (None, "-") else \
            open(args.output, "w", encoding="utf-8")
        try:
            if args.stream:
                return run_single_stream(compiled, args.input, out, args)
            return run_single(compiled, args.input, out, args)
        finally:
            if out is not sys.stdout:
                out.close()
    return run_corpus(schema_text, args.input, args.output, args)


if __name__ == "__main__":
    sys.exit(main())
