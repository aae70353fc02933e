"""Text-analysis operators for large-scale training-data pipelines:
language ID, quality scoring, token counting, document fingerprinting.

All are task ``map_batches`` stages over the flat ``documents``
table (``doc_id, text, lang, source, n_chars``); no shuffles.  Where the
semantics are SQL-expressible (token counts, quality components, md5
fingerprints) the arithmetic matches the DuckDB oracle exactly — see
``oracle_sql()`` in ``__ray_entry__.py``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray import tiers

# --- token counting ---------------------------------------------------------

_WS_RE = re.compile(r"\s+")


def add_token_counts(batch: pa.Table, column: str = "text") -> pa.Table:
    """Whitespace token count + a BPE-ish subword estimate.

    ``n_tokens``: whitespace-split count (oracle:
    ``length(regexp_split_to_array(trim(text), '\\s+'))``).
    ``n_subwords``: words + one extra per 6 chars of word length beyond 6 —
    a deterministic proxy for BPE segmentation cost (rows-only check)."""
    texts = pc.cast(batch.column(column), pa.string())
    tokens = pc.split_pattern_regex(
        pc.utf8_trim(texts, characters=" "), r"\s+")
    n_tokens = pc.list_value_length(tokens)
    # subword estimate, vectorized: sum over words of ceil(len(word)/6)
    flat = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
    word_lens = pc.utf8_length(flat.flatten() if hasattr(flat, "flatten") else flat)
    parents = pc.list_parent_indices(flat)
    sub_per_word = pc.cast(
        pc.ceil(pc.divide(pc.cast(word_lens, pa.float64()), 6.0)), pa.int64())
    subs = np.zeros(len(batch), dtype=np.int64)
    np.add.at(subs, parents.to_numpy(zero_copy_only=False),
              sub_per_word.to_numpy(zero_copy_only=False))
    return batch.append_column("n_tokens", pc.cast(n_tokens, pa.int64())) \
                .append_column("n_subwords", pa.array(subs))


# --- quality scoring --------------------------------------------------------

def add_quality(batch: pa.Table, column: str = "text") -> pa.Table:
    """Heuristic quality components (all reproducible in SQL):

    * ``punct_ratio``   — fraction of [.,!?;:] characters
    * ``digit_ratio``   — fraction of digits
    * ``upper_ratio``   — fraction of uppercase letters
    * ``mean_word_len`` — sum(word lens) / word count
    * ``quality_score`` — 1 − clipped penalty mix (deterministic formula)
    """
    texts = pc.cast(batch.column(column), pa.string())
    total = pc.cast(pc.utf8_length(texts), pa.float64())
    total_safe = pc.max_element_wise(total, 1.0)

    def ratio(pattern: str):
        # pattern removes every char NOT in the class, so what remains IS
        # the class count
        kept_only = pc.replace_substring_regex(texts, pattern, "")
        return pc.divide(
            pc.cast(pc.utf8_length(kept_only), pa.float64()), total_safe)

    punct = ratio(r"[^.,!?;:]")
    digit = ratio(r"[^0-9]")
    upper = ratio(r"[^A-Z]")
    tokens = pc.split_pattern_regex(
        pc.utf8_trim(texts, characters=" "), r"\s+")
    n_words = pc.max_element_wise(
        pc.cast(pc.list_value_length(tokens), pa.float64()), 1.0)
    # total non-space chars / words
    nonspace = pc.cast(pc.utf8_length(
        pc.replace_substring_regex(texts, r"\s+", "")), pa.float64())
    mean_word = pc.divide(nonspace, n_words)
    # stopword ratio (fluency signal): fraction of words that are English
    # stopwords — fully Arrow: flatten the token lists, is_in against the
    # broadcast stopword set, scatter-add per document
    flat_tok = tokens.combine_chunks() if isinstance(
        tokens, pa.ChunkedArray) else tokens
    words_flat = pc.utf8_lower(flat_tok.flatten())
    is_stop = pc.is_in(words_flat, value_set=_EN_STOPWORDS_ARR)
    parents = pc.list_parent_indices(flat_tok)
    stops = np.zeros(len(batch), dtype=np.int64)
    np.add.at(stops, parents.to_numpy(zero_copy_only=False),
              pc.cast(is_stop, pa.int8()).to_numpy(zero_copy_only=False))
    stop_ratio = pc.divide(pa.array(stops.astype("float64")), n_words)
    penalty = pc.add(pc.add(pc.multiply(punct, 2.0), digit),
                     pc.multiply(upper, 0.5))
    score = pc.max_element_wise(
        pc.subtract(pa.scalar(1.0), pc.min_element_wise(penalty, 1.0)), 0.0)
    for name, arr in [("punct_ratio", punct), ("digit_ratio", digit),
                      ("upper_ratio", upper), ("mean_word_len", mean_word),
                      ("stopword_ratio", stop_ratio),
                      ("quality_score", score)]:
        batch = batch.append_column(name, pc.cast(arr, pa.float64()))
    return batch


# --- language identification ------------------------------------------------

_EN_STOPWORDS_ARR = pa.array(sorted(
    {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for",
     "on", "with", "as", "was", "at", "by", "an", "be", "this", "are"}))

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "se", "por"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "du", "est"},
    "de": {"der", "die", "und", "das", "ist", "von", "den", "mit", "ein", "zu"},
}


_LANGS = list(_STOPWORDS)
_LANG_VALUE_SETS = [pa.array(sorted(_STOPWORDS[lang])) for lang in _LANGS]


def language_id(batch: pa.Table) -> pa.Table:
    """Append ``pred_lang``, fully vectorized: tokenization + the
    head-100 cut + per-language hit counts all run as Arrow kernels /
    numpy segment ops (``pc.is_in`` hash probes against the module's
    stopword value sets + ``np.bincount`` folds — no per-token Python
    loop).  Semantics (identical to the SQL oracle): CJK share of the
    first 200 codepoints > 0.2 → zh; else the language whose stopword
    table hits most of the first 100 words wins, ties to the earlier
    language in (en, es, fr, de), ≥1 hit required."""
    n = batch.num_rows
    if n == 0:
        return batch.append_column("pred_lang", pa.array([], pa.string()))
    texts = pc.fill_null(pc.cast(batch.column("text"), pa.string()), "")
    head200 = pc.utf8_slice_codeunits(texts, 0, 200)
    cjk = pc.count_substring_regex(head200, "[一-鿿]").to_numpy(
        zero_copy_only=False).astype(np.int64)
    len200 = pc.utf8_length(head200).to_numpy(
        zero_copy_only=False).astype(np.int64)

    tokens = pc.split_pattern_regex(pc.utf8_lower(texts), r"\s+")
    flat = (tokens.combine_chunks()
            if isinstance(tokens, pa.ChunkedArray) else tokens)
    words = flat.flatten()
    parents = np.asarray(pc.list_parent_indices(flat)).astype(np.int64)
    keep = np.asarray(pc.not_equal(words, ""))
    words = words.filter(pa.array(keep))
    parents = parents[keep]
    # head-100 cut: rank of each word within its doc (parents are
    # sorted) — vectorized run-relative index
    if len(parents):
        starts = np.flatnonzero(
            np.concatenate(([True], parents[1:] != parents[:-1])))
        run_start = np.repeat(starts, np.diff(
            np.append(starts, len(parents))))
        rank = np.arange(len(parents)) - run_start
        in_head = rank < 100
        words = words.filter(pa.array(in_head))
        parents = parents[in_head]
    hits = np.zeros((n, len(_LANGS)), dtype=np.int64)
    for j, vs in enumerate(_LANG_VALUE_SETS):
        m = np.asarray(pc.is_in(words, value_set=vs))
        if m.any():
            hits[:, j] = np.bincount(parents[m], minlength=n)
    best = hits.argmax(axis=1)            # first max wins (dict order)
    best_hits = hits[np.arange(n), best]
    langs_arr = np.asarray(_LANGS, dtype=object)[best]
    langs_arr = np.where(best_hits >= 1, langs_arr, "unknown")
    langs_arr = np.where(cjk > 0.2 * len200, "zh", langs_arr)
    return batch.append_column(
        "pred_lang", pa.array(langs_arr.astype(object), pa.string()))


# --- fingerprinting ---------------------------------------------------------

_ROLL_P = np.uint64(1099511628211)
_roll_powers = np.ones(1, dtype=np.uint64)


def _rolling_hashes(norms: list[bytes]) -> np.ndarray:
    """64-bit polynomial rolling hash per byte string, fully vectorized:
    h = Σ (b_i + 1) · P^(n-1-i)  (mod 2^64).  The +1 keeps trailing NUL
    bytes significant; wrap-around uint64 arithmetic is the modulus.  One
    numpy expression hashes the whole batch — no per-byte Python loop."""
    global _roll_powers

    n_docs = len(norms)
    lens = np.fromiter((len(b) for b in norms), dtype=np.int64,
                       count=n_docs)
    out = np.zeros(n_docs, dtype=np.uint64)
    total = int(lens.sum())
    if total == 0:
        return out
    maxlen = int(lens.max())
    if maxlen > len(_roll_powers):            # grow the shared power table
        powers = np.empty(maxlen, dtype=np.uint64)
        p = np.uint64(1)
        with np.errstate(over="ignore"):
            for k in range(maxlen):
                powers[k] = p
                p = p * _ROLL_P
        _roll_powers = powers
    buf = np.frombuffer(b"".join(norms), dtype=np.uint8).astype(np.uint64)
    ends = np.cumsum(lens)
    starts = ends - lens
    doc_of = np.repeat(np.arange(n_docs), lens)
    expo = ends[doc_of] - 1 - np.arange(total)
    nonempty = lens > 0
    with np.errstate(over="ignore"):
        terms = (buf + np.uint64(1)) * _roll_powers[expo]
        # reduceat over non-empty segments only (an empty segment would
        # alias the next segment's first element)
        sums = np.add.reduceat(terms, starts[nonempty])
    out[nonempty] = sums
    return out


def add_fingerprints(batch: pa.Table, column: str = "text") -> pa.Table:
    """Two fingerprints per doc:

    * ``fp_md5`` — md5 of whitespace-normalized lowercase text (exact-dup
      key; oracle: ``md5(lower(regexp_replace(text, '\\s+', ' ', 'g')))``)
    * ``fp_roll`` — 64-bit polynomial rolling hash of the same
      normalization (cheap engine-side key; rows-only check), vectorized
      across the batch via :func:`_rolling_hashes`
    """
    texts = batch.column(column).to_pylist()
    md5s, norms = [], []
    for t in texts:
        norm = _WS_RE.sub(" ", (t or "").lower()).encode()
        norms.append(norm)
        md5s.append(hashlib.md5(norm).hexdigest())
    return batch.append_column("fp_md5", pa.array(md5s, pa.string())) \
                .append_column("fp_roll", pa.array(_rolling_hashes(norms)))


# --- deterministic dataset splitting ----------------------------------------

def add_split(batch: pa.Table, key: str = "doc_id",
              train_bp: int = 9000, salt: str = "split") -> pa.Table:
    """Deterministic train/test assignment: md5-lower-64 of
    ``salt || key`` modulo 10000 < ``train_bp`` → 'train', else 'test'.

    Properties a training-data pipeline needs: stable under repartition/
    re-run (pure function of the key), cluster-order independent, and
    SQL-reproducible (DuckDB: ``md5_number_lower(salt || key) % 10000``)
    so the split is auditable outside the engine."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    keys = [salt + str(v) for v in batch.column(key).to_pylist()]
    h = _md5_token_hashes(keys) % np.uint64(10000)
    is_train = h < np.uint64(train_bp)
    split = np.where(is_train, "train", "test")
    return batch.append_column("split", pa.array(split.astype(object),
                                                 pa.string()))


def train_test_split(ds, key: str = "doc_id", train_bp: int = 9000,
                     salt: str = "split"):
    """(train Dataset, test Dataset) — two lazy filtered views over ONE
    split-tagged stream; no shuffle, no materialization."""
    tagged = ds.map_batches(
        lambda b: add_split(b, key=key, train_bp=train_bp, salt=salt),
        batch_format="pyarrow", zero_copy_batch=True)
    return (tagged.filter(expr="split == 'train'"),
            tagged.filter(expr="split == 'test'"))


def sample_deterministic(ds, key: str = "doc_id", rate_bp: int = 1000,
                         salt: str = "sample"):
    """Deterministic ``rate_bp``/10000 sample: keep rows where
    md5-lower-64 of ``salt || key`` mod 10000 < ``rate_bp``.

    The workhorse of corpus curation at scale — a pure streaming filter
    (no shuffle, no RNG state, no driver coordination) whose membership
    is stable under re-runs, repartitioning and cluster size, and
    reproducible outside the engine (DuckDB:
    ``md5_number_lower(salt || key) % 10000 < rate_bp``).  Stratify by
    running it unchanged within any grouping — membership depends only
    on the key."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    def keep(batch: pa.Table) -> pa.Table:
        keys = [salt + str(v) for v in batch.column(key).to_pylist()]
        if not keys:
            return batch
        h = _md5_token_hashes(keys) % np.uint64(10000)
        return batch.filter(pa.array(h < np.uint64(rate_bp)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def redact(batch: pa.Table, column: str = "text",
           pattern: str = r"[0-9]+", replacement: str = "#",
           out_col: str | None = None, count_col: str | None = "n_hits"):
    """Vectorized regex redaction/scrubbing (PII patterns, markup strip,
    normalization): pure ``pyarrow.compute`` kernels, zero Python per-row
    work.  Appends the redacted column and (optionally) a per-row match
    count — the audit trail a scrubbing pipeline needs."""
    col = batch.column(column)
    red = pc.replace_substring_regex(col, pattern=pattern,
                                     replacement=replacement)
    out = batch.append_column(out_col or f"{column}_redacted", red)
    if count_col:
        out = out.append_column(
            count_col, pc.count_substring_regex(col, pattern=pattern))
    return out


def weighted_mixture(ds, *, group_col: str, key: str,
                     rates_bp: dict, default_bp: int = 0,
                     salt: str = "mix"):
    """Per-group deterministic sampling rates — the corpus-mixing
    primitive (e.g. keep 100% of wiki, 25% of web, 5% of logs).
    Membership is a pure function of (salt, key): stable under re-runs
    and repartitioning, nested across rates, SQL-auditable.  The rate
    table is a tiny dict captured in the task closure (broadcast by Ray
    with the function, not re-shipped per batch)."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    def keep(batch: pa.Table) -> pa.Table:
        keys = [salt + str(v) for v in batch.column(key).to_pylist()]
        if not keys:
            return batch
        h = _md5_token_hashes(keys) % np.uint64(10000)
        groups = batch.column(group_col).to_pylist()
        thresh = np.fromiter(
            (rates_bp.get(g, default_bp) for g in groups),
            dtype=np.uint64, count=len(groups))
        return batch.filter(pa.array(h < thresh))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def add_repetition_stats(batch: pa.Table, column: str = "text") -> pa.Table:
    """Intra-document repetition signal (the C4/Gopher-style quality
    gate): per row, total word count and DISTINCT word count under an
    exact single-space split (oracle: ``string_split(text, ' ')`` +
    ``count`` / ``count(DISTINCT w)``), both int64 so the compare is
    float-free.  High ``n_words / n_distinct`` flags boilerplate and
    degenerate generations.

    Fully vectorized: one Arrow split, then token-id factorization and a
    single ``np.unique`` over packed (row, token-id) int64 pairs — no
    per-row Python loop."""
    texts = pc.cast(batch.column(column), pa.string())
    texts = pc.coalesce(texts, pa.scalar("", pa.string()))
    toks = pc.split_pattern(texts, " ")
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    n_words = pc.cast(pc.list_value_length(toks), pa.int64())
    flat = toks.flatten()
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    # factorize words → small ints, then count unique (row, word) pairs
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    packed = parents.astype(np.int64) * (codes.max() + 1 if len(codes) else 1) \
        + codes
    uniq_rows = np.unique(packed) // (codes.max() + 1 if len(codes) else 1)
    n_distinct = np.zeros(batch.num_rows, dtype=np.int64)
    np.add.at(n_distinct, uniq_rows, 1)
    return batch.append_column("n_words", n_words) \
                .append_column("n_distinct", pa.array(n_distinct))


def chunk_documents(ds, *, chunk_size: int = 50, stride: int = 40,
                    column: str = "text", key: str = "doc_id"):
    """Fixed-size token-window chunking with overlap — the
    context-window prep step (doc → ``ceil(max(n,1)/stride)`` chunks of
    ``chunk_size`` single-space-split tokens, consecutive chunks sharing
    ``chunk_size - stride`` tokens).

    Chunk starts are ``range(0, max(n_tokens, 1), stride)`` restricted
    to ``s == 0 or s < n_tokens`` — every doc (including empty text)
    emits at least one chunk, and the formula is reproducible in SQL
    (``string_split`` + ``range`` + array slicing), so the fan-out is
    exactly oracle-checkable.  Tokenization is ``split(' ')`` to match
    ``string_split(text, ' ')`` byte-for-byte (consecutive spaces yield
    empty tokens in both engines).

    Pure map fan-out — no shuffle; output order within a doc is
    (key, chunk_id)."""
    assert 0 < stride <= chunk_size

    def fan_out(b: pa.Table) -> pa.Table:
        keys_out, chunk_ids, chunks = [], [], []
        keys = b.column(key).to_pylist()
        texts = b.column(column).to_pylist()
        for kid, text in zip(keys, texts):
            toks = (text or "").split(" ")
            n = len(toks)
            for ci, s in enumerate(range(0, max(n, 1), stride)):
                if s and s >= n:
                    break
                keys_out.append(kid)
                chunk_ids.append(ci)
                chunks.append(" ".join(toks[s:s + chunk_size]))
        return pa.Table.from_arrays(
            [pa.array(keys_out, b.schema.field(key).type),
             pa.array(chunk_ids, pa.int64()),
             pa.array(chunks, pa.string())],
            names=[key, "chunk_id", "chunk"])

    return ds.map_batches(fan_out, batch_format="pyarrow",
                          zero_copy_batch=True)


def add_normalized(batch: pa.Table, column: str = "text") -> pa.Table:
    """Canonical text normalization — NFC unicode form, lowercase,
    whitespace runs collapsed to single spaces, edge spaces trimmed —
    emitted as ``text_norm`` with its length ``norm_len``.  Pure Arrow
    kernels (utf8proc + RE2), and every step has an exact SQL twin
    (``nfc_normalize``/``lower``/``regexp_replace``/``trim``), so
    normalized bytes are oracle-comparable."""
    import unicodedata

    col = pc.cast(batch.column(column), pa.string())
    col = pc.fill_null(col, "")
    # NFC via CPython's unicodedata (C code, utf8proc-equivalent):
    # this pyarrow build's utf8_normalize DECOMPOSES for every `form`
    # value (16.1.0, verified — 'é' → 'e\\u0301' even with form="NFC"),
    # so it cannot be trusted for composition.  Skip the Python pass
    # entirely for all-ASCII batches (the common case — NFC is identity
    # on ASCII).
    if not pc.all(pc.string_is_ascii(col)).as_py():
        x = pa.array([unicodedata.normalize("NFC", s)
                      for s in col.to_pylist()], pa.string())
    else:
        x = col
    x = pc.utf8_lower(x)
    x = pc.replace_substring_regex(x, r"\s+", " ")
    # ASCII-space trim, mirroring SQL trim() exactly (utf8_trim_whitespace
    # would also strip unicode spaces the oracle's trim leaves alone)
    x = pc.utf8_trim(x, characters=" ")
    return batch.append_column("text_norm", x) \
                .append_column("norm_len",
                               pc.utf8_length(x).cast(pa.int64()))


def add_compressibility(batch: pa.Table, column: str = "text",
                        level: int = 6) -> pa.Table:
    """zlib compression-ratio quality signal (the CCNet/RefinedWeb
    heuristic: highly compressible text ⇒ repetitive/boilerplate; nearly
    incompressible ⇒ noise/binary junk).  Appends ``raw_len``,
    ``comp_len`` and ``ratio_bp`` (= comp/raw basis points, int64).

    The per-doc loop calls C-speed ``zlib.compress`` only — no Python
    work per row beyond the call; a fixed level pins determinism within
    one zlib build (cross-engine exactness is impossible, so this is a
    rows-only operator pinned by a direct-zlib differential test)."""
    import zlib

    texts = batch.column(column).to_pylist()
    raw = np.zeros(len(texts), dtype=np.int64)
    comp = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        bb = (t or "").encode()
        raw[i] = len(bb)
        comp[i] = len(zlib.compress(bb, level))
    ratio = np.floor(
        np.where(raw > 0, comp * 10000.0 / np.maximum(raw, 1), 0.0)
        + 0.5).astype(np.int64)
    return batch.append_column("raw_len", pa.array(raw)) \
                .append_column("comp_len", pa.array(comp)) \
                .append_column("ratio_bp", pa.array(ratio))


def weighted_sample_k(ds, *, key: str = "doc_id",
                      weight_col: str = "n_chars", k: int = 100,
                      salt: str = "wsamp"):
    """Deterministic weighted sampling WITHOUT replacement — priority
    sampling / weighted bottom-k (Duffield-Lund-Thorup; Efraimidis-
    Spirakis) in integer form: each row's priority is
    ``md5_lower64(salt || key) // max(weight, 1)`` and the ``k``
    smallest priorities win, so doubling a row's weight halves its
    expected priority and inclusion probability scales with weight.

    Properties a training-data mixer needs: a pure function of
    ``(salt, key, weight)`` — stable under repartition / re-run /
    cluster order — and SQL-auditable (DuckDB ``md5_number_lower(...)
    // greatest(w,1)`` reproduces the identical sample).  The plan is
    :func:`~mdvalidate_ray.functions.relational.topk_table`: per-batch
    local bottom-k, driver merges #batches × k survivor rows — no full
    sort, no corpus-sized driver collect.

    Returns a pa.Table of ``(key, w, priority)`` rows, the sample in
    (priority, key) order."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import topk_table

    def pri(b: pa.Table) -> pa.Table:
        ks = [salt + str(v) for v in b.column(key).to_pylist()]
        h = (_md5_token_hashes(ks) if ks
             else np.zeros(0, dtype=np.uint64))
        w = np.maximum(b.column(weight_col).to_numpy(
            zero_copy_only=False).astype(np.int64), 1)
        return pa.Table.from_arrays(
            [b.column(key), pa.array(w),
             pa.array(h // w.astype(np.uint64))],
            names=[key, "w", "priority"])

    scored = ds.select_columns([key, weight_col]).map_batches(
        pri, batch_format="pyarrow", zero_copy_batch=True)
    return topk_table(scored, k, [("priority", "ascending"),
                                  (key, "ascending")])


def jaccard_search(ds, query_text: str, *, key: str = "doc_id",
                   text_col: str = "text", k: int = 20):
    """Token-set Jaccard TOP-K SEARCH — rank the corpus against one
    query document (the retrieval sibling of the pairwise near-dup
    families: there the threshold is fixed and both sides stream; here
    one side is a constant and we want the best ``k``).

    Plan: the query's distinct token hashes (md5-lower-64, the corpus
    hashing contract) are a tiny sorted constant captured in the task
    closure; each batch computes per-doc distinct token hashes once,
    membership via ``np.searchsorted``, per-doc intersection sizes with
    one ``np.add.at``, and the integer-exact score ``10^6 · |∩| //
    |∪|``; docs sharing no token drop in-batch, and
    :func:`~mdvalidate_ray.functions.relational.topk_table` merges
    per-batch top-k survivors — no shuffle, no corpus-sized collect.

    Returns a pa.Table (doc_id, inter, uni, score) of the k best in
    (score DESC, doc_id ASC) order."""
    import pandas as pd

    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import topk_table

    q_tokens = sorted({t for t in query_text.lower().split() if t})
    q_hashes = np.sort(_md5_token_hashes(q_tokens)) if q_tokens else \
        np.zeros(0, dtype=np.uint64)
    nq = len(q_hashes)
    out_schema = pa.schema([(key, pa.int64()), ("inter", pa.int64()),
                            ("uni", pa.int64()), ("score", pa.int64())])

    def score(b: pa.Table) -> pa.Table:
        # RE2 '\s+' on a space-only trim — byte-identical to the
        # oracle's string_split_regex tokenization on ALL inputs
        arr = pc.split_pattern_regex(pc.utf8_trim(
            pc.utf8_lower(pc.cast(b.column(text_col), pa.string())),
            characters=" "), r"\s+")
        arr = arr.combine_chunks() if isinstance(
            arr, pa.ChunkedArray) else arr
        words = np.asarray(arr.values.to_pylist(), dtype=object)
        offs = np.asarray(arr.offsets)
        n_words = np.diff(offs)
        if len(words) == 0 or nq == 0:
            return out_schema.empty_table()
        doc_idx = np.repeat(np.arange(len(n_words), dtype=np.int64),
                            n_words)
        keep = words != ""
        h = _md5_token_hashes(list(words[keep]))
        dd = pd.DataFrame({"d": doc_idx[keep], "h": h}).drop_duplicates()
        d_arr = dd["d"].to_numpy()
        h_arr = dd["h"].to_numpy(np.uint64)
        n_distinct = np.zeros(len(n_words), dtype=np.int64)
        np.add.at(n_distinct, d_arr, 1)
        pos = np.searchsorted(q_hashes, h_arr)
        hit = (pos < nq) & (q_hashes[np.minimum(pos, nq - 1)] == h_arr)
        inter = np.zeros(len(n_words), dtype=np.int64)
        np.add.at(inter, d_arr[hit], 1)
        nz = inter > 0
        if not nz.any():
            return out_schema.empty_table()
        ids = b.column(key).to_numpy(zero_copy_only=False)[nz]
        i, nd = inter[nz], n_distinct[nz]
        uni = nd + nq - i
        return pa.Table.from_arrays(
            [pa.array(ids.astype(np.int64)), pa.array(i),
             pa.array(uni), pa.array(10**6 * i // uni)],
            names=out_schema.names)

    scored = ds.select_columns([key, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True)
    return topk_table(scored, k, [("score", "descending"),
                                  (key, "ascending")])


def bm25_search(ds, query_text: str, *, key: str = "doc_id",
                text_col: str = "text", k: int = 20):
    """BM25 TOP-K retrieval against one query (Robertson et al., TREC-3;
    k1=1.2, b=0.75) — the tf/length-normalized upgrade of
    :func:`jaccard_search`, and the standard lexical-retrieval primitive
    a curation pipeline uses to mine topic-relevant documents.

    Scoring is INTEGER-EXACT so the DuckDB oracle hash-matches: with
    ``N`` docs, ``W`` total tokens, ``A = (100*W)//N`` (average doclen
    in centiwords), per query term ``t`` with document frequency ``df``
    and in-doc frequency ``tf`` in a doc of length ``dl``::

        idf6    = (10^6 * (2N - 2*df + 1)) // (2*df + 1)      # 10^6-scaled
        contrib = (idf6 * 22000 * tf)
                  // (10000*tf + 3000 + (900000 * dl) // A)

    which is the classic formula with k1=6/5, b=3/4 cleared to one
    rational (22/10 = k1+1, 3000/10^4 = k1*(1-b), 9000/10^4 = k1*b) and
    floored at two documented points.  Contract: ``idf6 * 22000 * tf``
    must fit int64 — holds to ~10^9 docs with tf ≤ 10^4; past that,
    switch the score to float and drop the hash-level oracle.

    Plan (two passes, NO shuffle): pass 1 folds the tiny per-batch
    partials ``(N, W, df[per query slot])`` — df needs only the QUERY's
    terms, never a vocabulary exchange; the resulting constants ride the
    task closure.  Pass 2 computes per-doc tf of the query slots with
    one ``np.add.at`` over (doc, slot), scores, drops zero-overlap docs
    in-batch, and merges per-batch top-k via
    :func:`~mdvalidate_ray.functions.relational.topk_table`.

    Returns a pa.Table (key, score) of the k best in (score DESC, key
    ASC) order.  Reference analog: the capture/report surface of
    /root/reference/src/mdschema/validation (retrieval is engine-new)."""
    import pandas as pd

    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import topk_table

    q_terms = sorted({t for t in query_text.lower().split() if t})
    q_hashes = np.sort(_md5_token_hashes(q_terms)) if q_terms else \
        np.zeros(0, dtype=np.uint64)
    nq = len(q_hashes)
    out_schema = pa.schema([(key, pa.int64()), ("score", pa.int64())])
    if nq == 0:
        return out_schema.empty_table()

    def _doc_words(b: pa.Table):
        """(words flat object array, per-doc counts) for a batch."""
        # RE2 '\s+' on a space-only trim — byte-identical to the
        # oracle's string_split_regex tokenization on ALL inputs
        arr = pc.split_pattern_regex(pc.utf8_trim(
            pc.utf8_lower(pc.cast(b.column(text_col), pa.string())),
            characters=" "), r"\s+")
        arr = arr.combine_chunks() if isinstance(
            arr, pa.ChunkedArray) else arr
        words = np.asarray(arr.values.to_pylist(), dtype=object)
        n_words = np.diff(np.asarray(arr.offsets))
        return words, n_words

    # ---- pass 1: (n_docs, n_tokens, df per query slot) partials ----
    def stats_partial(b: pa.Table) -> pa.Table:
        words, n_words = _doc_words(b)
        keep = words != ""
        doc_idx = np.repeat(np.arange(len(n_words), dtype=np.int64),
                            n_words)[keep]
        h = _md5_token_hashes(list(words[keep]))
        pos = np.searchsorted(q_hashes, h)
        hit = (pos < nq) & (q_hashes[np.minimum(pos, nq - 1)] == h)
        df_p = np.zeros(nq, dtype=np.int64)
        if hit.any():
            dd = pd.DataFrame({"d": doc_idx[hit],
                               "s": pos[hit]}).drop_duplicates()
            np.add.at(df_p, dd["s"].to_numpy(), 1)
        slots = np.arange(-1, nq, dtype=np.int64)
        vals = np.concatenate([[b.num_rows], df_p]).astype(np.int64)
        toks = np.concatenate([[int(keep.sum())],
                               np.zeros(nq, dtype=np.int64)])
        return pa.Table.from_arrays(
            [pa.array(slots), pa.array(vals), pa.array(toks)],
            names=["slot", "v", "w"])

    n_docs, n_tokens = 0, 0
    df = np.zeros(nq, dtype=np.int64)
    for blk in ds.select_columns([key, text_col]).map_batches(
            stats_partial, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        s = np.asarray(blk.column("slot").combine_chunks())
        v = np.asarray(blk.column("v").combine_chunks())
        w = np.asarray(blk.column("w").combine_chunks())
        head = s == -1
        n_docs += int(v[head].sum())
        n_tokens += int(w[head].sum())
        np.add.at(df, s[~head], v[~head])
    if n_docs == 0 or n_tokens == 0:
        return out_schema.empty_table()
    avg_c = (100 * n_tokens) // n_docs          # centiword avg doclen
    idf6 = (10**6 * (2 * n_docs - 2 * df + 1)) // (2 * df + 1)

    # ---- pass 2: score + in-batch top-k, tiny merge ----
    def score(b: pa.Table) -> pa.Table:
        words, n_words = _doc_words(b)
        if len(n_words) == 0:
            return out_schema.empty_table()
        keep = words != ""
        doc_idx = np.repeat(np.arange(len(n_words), dtype=np.int64),
                            n_words)[keep]
        h = _md5_token_hashes(list(words[keep]))
        pos = np.searchsorted(q_hashes, h)
        hit = (pos < nq) & (q_hashes[np.minimum(pos, nq - 1)] == h)
        tf = np.zeros((len(n_words), nq), dtype=np.int64)
        np.add.at(tf, (doc_idx[hit], pos[hit]), 1)
        dl = np.zeros(len(n_words), dtype=np.int64)
        np.add.at(dl, doc_idx, 1)
        denom = (10000 * tf + 3000
                 + ((900000 * dl) // avg_c)[:, None])
        contrib = (idf6[None, :] * 22000 * tf) // denom
        total = np.where(tf > 0, contrib, 0).sum(axis=1)
        nz = total > 0
        if not nz.any():
            return out_schema.empty_table()
        ids = b.column(key).to_numpy(zero_copy_only=False)[nz]
        return pa.Table.from_arrays(
            [pa.array(ids.astype(np.int64)), pa.array(total[nz])],
            names=out_schema.names)

    scored = ds.select_columns([key, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True)
    return topk_table(scored, k, [("score", "descending"),
                                  (key, "ascending")])


def pmi_collocations(ds, *, text_col: str = "text", min_count: int = 5,
                     k: int = 30):
    """Collocation mining: top-k word bigrams by INTEGER-EXACT pointwise
    mutual information — the idiom/phrase detector (Church & Hanks 1990)
    a tokenizer- or phrase-vocabulary-building pipeline runs corpus-wide.

    The PMI *ratio* ``p(ab)/(p(a)p(b)) = c_ab·N_uni² / (N_bi·c_a·c_b)``
    is rank-equivalent to PMI (log is monotone), so the score is the
    exact integer ``(10^6·c_ab·N_uni²) // (N_bi·c_a·c_b)`` computed with
    Python bigints — no float, no log, SQL-reproducible via HUGEINT.

    Plan: two skew-proof count folds (per-batch vectorized
    ``value_counts`` combiner → one coarse bucketed group-sum — a hot
    gram is ONE row per batch in each exchange) for bigrams and
    unigrams, each also folding its corpus total through a reserved
    ``\\x00total`` key.  Only bigrams with ``c_ab >= min_count`` reach
    the driver (the idiom set — bounded; choose ``min_count`` to keep
    it so), and unigram counts are fetched ONLY for the words those
    candidates mention via a broadcast sorted-membership probe — the
    full vocabulary never leaves the workers.

    Returns a pa.Table (bigram, c_ab, score_e6), (score DESC, bigram
    ASC), ties exact."""
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    TOTAL = "\x00total"
    docs = ds.select_columns([text_col])

    def words_of(b: pa.Table):
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column(text_col), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        parents = pc.list_parent_indices(flat)
        keep = pc.not_equal(words, "")
        words = words.filter(keep)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        parents = np.asarray(parents.filter(keep)).astype(np.int64)
        return words, parents

    empty = pa.schema([("g", pa.string()), ("cnt", pa.int64())])

    def uni_part(b: pa.Table) -> pa.Table:
        words, _ = words_of(b)
        if len(words) == 0:
            return empty.empty_table()
        vc = words.value_counts()
        return pa.Table.from_arrays(
            [pa.concat_arrays([vc.field("values"),
                               pa.array([TOTAL], pa.string())]),
             pa.concat_arrays([vc.field("counts").cast(pa.int64()),
                               pa.array([len(words)], pa.int64())])],
            names=["g", "cnt"])

    def bi_part(b: pa.Table) -> pa.Table:
        words, parents = words_of(b)
        if len(words) < 2:
            return empty.empty_table()
        same = parents[1:] == parents[:-1]
        left = words.slice(0, len(words) - 1).filter(pa.array(same))
        right = words.slice(1).filter(pa.array(same))
        if len(left) == 0:
            return empty.empty_table()
        vc = pc.binary_join_element_wise(left, right, " ").value_counts()
        return pa.Table.from_arrays(
            [pa.concat_arrays([vc.field("values"),
                               pa.array([TOTAL], pa.string())]),
             pa.concat_arrays([vc.field("counts").cast(pa.int64()),
                               pa.array([len(left)], pa.int64())])],
            names=["g", "cnt"])

    uni = bucketed_group_sum(
        docs.map_batches(uni_part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="g", sum_cols=["cnt"]).materialize()
    bi = bucketed_group_sum(
        docs.map_batches(bi_part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="g", sum_cols=["cnt"])

    cands: list[tuple[str, int]] = []
    n_bi = 0
    for blk in bi.iter_batches(batch_format="pyarrow"):
        gs = blk.column("g").to_pylist()
        cs = blk.column("cnt").to_pylist()
        for g, c in zip(gs, cs):
            if g == TOTAL:
                n_bi += int(c)
            elif c >= min_count:
                cands.append((g, int(c)))
    out_schema = pa.schema([("bigram", pa.string()),
                            ("c_ab", pa.int64()),
                            ("score_e6", pa.int64())])
    if not cands or n_bi == 0:
        return out_schema.empty_table()

    need = sorted({w for g, _ in cands for w in g.split(" ")})
    need_arr = np.asarray(need, dtype=object)
    need_ref = ray.put(need_arr)

    def probe(b: pa.Table) -> pa.Table:
        nd = ray.get(need_ref)
        gs = np.asarray(b.column("g").to_pylist(), dtype=object)
        pos = np.searchsorted(nd, gs)
        hit = (pos < len(nd)) & (nd[np.minimum(pos, len(nd) - 1)] == gs)
        hit |= gs == TOTAL
        return b.filter(pa.array(hit))

    n_uni = 0
    ucnt: dict[str, int] = {}
    for blk in uni.map_batches(probe, batch_format="pyarrow",
                               zero_copy_batch=True).iter_batches(
                                   batch_format="pyarrow"):
        for g, c in zip(blk.column("g").to_pylist(),
                        blk.column("cnt").to_pylist()):
            if g == TOTAL:
                n_uni += int(c)
            else:
                ucnt[g] = int(c)

    scored = []
    for g, c_ab in cands:
        a, bword = g.split(" ", 1)
        score = (10**6 * c_ab * n_uni * n_uni) // (
            n_bi * ucnt[a] * ucnt[bword])
        scored.append((score, g, c_ab))
    scored.sort(key=lambda t: (-t[0], t[1]))
    top = scored[:k]
    return pa.table({
        "bigram": pa.array([g for _, g, _ in top], pa.string()),
        "c_ab": pa.array([c for _, _, c in top], pa.int64()),
        "score_e6": pa.array([s for s, _, _ in top], pa.int64())})


def bpe_learn(ds, *, text_col: str = "text", n_merges: int = 50,
              min_word_count: int = 1) -> list[dict]:
    """Byte-Pair-Encoding MERGE LEARNING (Sennrich et al. 2016) — the
    tokenizer-training primitive: learn the ``n_merges`` most frequent
    symbol merges over the corpus.

    The distributed part is the classic one: a skew-proof WORD-COUNT
    fold (per-batch ``value_counts`` combiner → coarse bucketed
    group-sum — a hot word is one row per batch in the exchange); BPE
    itself then runs on the (word, count) table, which is
    VOCABULARY-sized, not corpus-sized — the same contract real
    tokenizer trainers use (HF/GPT-2 train from word frequencies).  The
    driver loop is incremental: an inverted pair→words index means each
    merge touches only the words containing the winning pair.
    :func:`~mdvalidate_ray.tiers.plan_tier` on the rows collected so far
    (at the fold's mean row width) guards the driver collect: past the
    budget it raises and names :func:`bpe_learn_sharded`.

    Deterministic: the winning pair each round is max by
    ``(count, -lexicographic pair)`` — ties break toward the smaller
    pair, independent of dict order.

    Returns ``[{"rank", "left", "right", "count"}, ...]``."""
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    empty = pa.schema([("w", pa.string()), ("cnt", pa.int64())])

    def wc(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column(text_col), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        words = words.filter(pc.not_equal(words, ""))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        if len(words) == 0:
            return empty.empty_table()
        vc = words.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["w", "cnt"])

    folded = bucketed_group_sum(
        ds.select_columns([text_col]).map_batches(
            wc, batch_format="pyarrow", zero_copy_batch=True),
        key="w", sum_cols=["cnt"])

    words: list[list[str]] = []
    counts: list[int] = []
    n_rows = n_bytes = 0
    for blk in folded.iter_batches(batch_format="pyarrow"):
        n_rows += blk.num_rows
        n_bytes += blk.nbytes
        if tiers.plan_tier(n_rows, n_bytes / max(n_rows, 1)) \
                == "partitioned":
            raise ValueError(
                f"word-count table exceeds the broadcast budget "
                f"({tiers.budget()} B); use bpe_learn_sharded (the "
                "word-hash-sharded trainer — bit-identical merges, "
                "vocabulary never reaches the driver)")
        for w, c in zip(blk.column("w").to_pylist(),
                        blk.column("cnt").to_pylist()):
            if c >= min_word_count:
                words.append(list(w))
                counts.append(int(c))

    # pair counts + inverted pair -> word-index occurrence index
    pair_cnt: dict = {}
    pair_words: dict = {}
    for wi, syms in enumerate(words):
        c = counts[wi]
        for a, b in zip(syms, syms[1:]):
            pair_cnt[(a, b)] = pair_cnt.get((a, b), 0) + c
            pair_words.setdefault((a, b), set()).add(wi)

    merges = []
    for rank in range(n_merges):
        best = None
        for p, c in pair_cnt.items():
            if c <= 0:
                continue
            if best is None or c > best[0] or (c == best[0]
                                               and p < best[1]):
                best = (c, p)
        if best is None:
            break
        c_best, (a, b) = best
        merges.append({"rank": rank, "left": a, "right": b,
                       "count": int(c_best)})
        ab = a + b
        for wi in list(pair_words.get((a, b), ())):
            syms, c = words[wi], counts[wi]
            out = []
            i = 0
            while i < len(syms):
                if (i < len(syms) - 1 and syms[i] == a
                        and syms[i + 1] == b):
                    out.append(ab)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            # retract old adjacencies, add new ones
            for pr in zip(syms, syms[1:]):
                pair_cnt[pr] -= c
                if pair_cnt[pr] <= 0:
                    pair_words.get(pr, set()).discard(wi)
            for pr in zip(out, out[1:]):
                pair_cnt[pr] = pair_cnt.get(pr, 0) + c
                pair_words.setdefault(pr, set()).add(wi)
            words[wi] = out
        pair_cnt.pop((a, b), None)
        pair_words.pop((a, b), None)
    return merges


class BPEShard:
    """One shard of :func:`bpe_learn_sharded`'s vocabulary (run as a Ray
    actor): its words, their counts and the local inverted pair→words
    index.  ``add`` is idempotent per word — the folded (word, count)
    rows are unique by word, so a word already held can only come from
    a retried routing task and is skipped, which keeps retries from
    double-counting."""

    def __init__(self):
        self.words: list[list[str]] = []
        self.counts: list[int] = []
        self.held: set = set()
        self.pair_cnt: dict = {}
        self.pair_words: dict = {}

    def add(self, ws: list[str], cs: list[int]) -> int:
        for w, c in zip(ws, cs):
            if w in self.held:
                continue
            self.held.add(w)
            wi = len(self.words)
            syms = list(w)
            self.words.append(syms)
            self.counts.append(int(c))
            for pr in zip(syms, syms[1:]):
                self.pair_cnt[pr] = self.pair_cnt.get(pr, 0) + c
                self.pair_words.setdefault(pr, set()).add(wi)
        return len(self.words)

    def initial_counts(self) -> list:
        return [(a, b, c) for (a, b), c in self.pair_cnt.items()]

    def apply(self, a: str, b: str) -> list:
        """Rewrite every local word containing (a, b); return pair-count
        deltas."""
        delta: dict = {}
        ab = a + b
        for wi in list(self.pair_words.get((a, b), ())):
            syms, c = self.words[wi], self.counts[wi]
            out, i = [], 0
            while i < len(syms):
                if (i < len(syms) - 1 and syms[i] == a
                        and syms[i + 1] == b):
                    out.append(ab)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            for pr in zip(syms, syms[1:]):
                self.pair_cnt[pr] -= c
                delta[pr] = delta.get(pr, 0) - c
                if self.pair_cnt[pr] <= 0:
                    self.pair_words.get(pr, set()).discard(wi)
            for pr in zip(out, out[1:]):
                self.pair_cnt[pr] = self.pair_cnt.get(pr, 0) + c
                delta[pr] = delta.get(pr, 0) + c
                self.pair_words.setdefault(pr, set()).add(wi)
            self.words[wi] = out
        self.pair_cnt.pop((a, b), None)
        self.pair_words.pop((a, b), None)
        return [(x, y, d) for (x, y), d in delta.items() if d]


def bpe_learn_sharded(ds, *, text_col: str = "text",
                      n_merges: int = 50, min_word_count: int = 1,
                      n_shards: int = 4) -> list[dict]:
    """:func:`bpe_learn` past the driver's broadcast budget —
    the shard-by-word-hash tier its overflow error names, producing
    BIT-IDENTICAL merges (pinned by
    test_bpe_sharded_matches_driver_loop).

    The (word, count) table folds exactly as in bpe_learn, then routes
    DISTRIBUTED (each fold batch pushes its rows by the word's
    :func:`~mdvalidate_ray.exchange.key_bucket` straight to long-lived
    :class:`BPEShard` actors — the vocabulary never reaches the driver;
    a retried routing task re-sends words their shard already holds,
    which it skips).  Each actor keeps its
    words plus the local inverted pair→words index; the driver holds
    only the GLOBAL pair-count dict (distinct-symbol-pairs sized, far
    below vocabulary size).  Per merge round: driver argmax by
    ``(count, -lexicographic pair)`` → broadcast the winning pair →
    each shard applies it to its own words and returns pair-count
    DELTAS → driver folds.  Pair counts are additive, each word lives
    on exactly one shard, and the per-word merge rewrite is
    order-independent, so shard arrival order cannot change any
    count — determinism is inherited from the driver-side tie rule.

    Cost: ``n_merges`` rounds × ``n_shards`` actor calls, each touching
    only the words containing the winning pair (same incremental
    contract as the driver loop)."""
    import ray

    from mdvalidate_ray.exchange import key_bucket
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    empty = pa.schema([("w", pa.string()), ("cnt", pa.int64())])

    def wc(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column(text_col), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        flat = (tokens.combine_chunks()
                if isinstance(tokens, pa.ChunkedArray) else tokens)
        words = flat.flatten()
        words = words.filter(pc.not_equal(words, ""))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        if len(words) == 0:
            return empty.empty_table()
        vc = words.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["w", "cnt"])

    folded = bucketed_group_sum(
        ds.select_columns([text_col]).map_batches(
            wc, batch_format="pyarrow", zero_copy_batch=True),
        key="w", sum_cols=["cnt"])

    # num_cpus=0: the shards are STATE holders driven by short driver
    # rounds — reserving CPU shares would starve the word-count fold's
    # tasks on small clusters (classic actor/task deadlock)
    shard_cls = ray.remote(num_cpus=0)(BPEShard)
    shards = [shard_cls.remote() for _ in range(n_shards)]

    def route(b: pa.Table) -> pa.Table:
        """Push this fold batch's words to their hash-owned shards;
        the batch itself reduces to a one-row count."""
        ws = b.column("w").to_pylist()
        cs = b.column("cnt").to_pylist()
        keep = [(w, int(c)) for w, c in zip(ws, cs)
                if c >= min_word_count]
        pending = []
        if keep:
            sid = key_bucket(pa.array([w for w, _ in keep], pa.string()),
                             n_shards)
            for s in np.unique(sid):
                sub = [keep[i] for i in np.flatnonzero(sid == s)]
                pending.append(shards[int(s)].add.remote(
                    [w for w, _ in sub], [c for _, c in sub]))
        ray.get(pending)      # delivery barrier before the batch ends
        return pa.table({"n": pa.array([len(keep)], pa.int64())})

    folded.map_batches(route, batch_format="pyarrow").take_all()

    pair_cnt: dict = {}
    for part in ray.get([s.initial_counts.remote() for s in shards]):
        for a, b, c in part:
            pair_cnt[(a, b)] = pair_cnt.get((a, b), 0) + c

    merges = []
    for rank in range(n_merges):
        best = None
        for p, c in pair_cnt.items():
            if c <= 0:
                continue
            if best is None or c > best[0] or (c == best[0]
                                               and p < best[1]):
                best = (c, p)
        if best is None:
            break
        c_best, (a, b) = best
        merges.append({"rank": rank, "left": a, "right": b,
                       "count": int(c_best)})
        for part in ray.get([s.apply.remote(a, b) for s in shards]):
            for x, y, d in part:
                pair_cnt[(x, y)] = pair_cnt.get((x, y), 0) + d
        pair_cnt.pop((a, b), None)
    del shards
    return merges


_TEXT_STATE: dict = {}


def bpe_encode_counts(ds, merges: list[dict], *, id_col: str = "doc_id",
                      text_col: str = "text",
                      out_col: str = "n_bpe_tokens"):
    """Apply LEARNED BPE merges (from :func:`bpe_learn`) to every
    document and emit its encoded token count — the apply half of the
    tokenizer story (learn → encode), the per-doc cost estimator a
    training-data pipeline runs before packing.

    The merge table broadcasts once (``ray.put``); each worker process
    builds the pair→rank dict a single time (per-process cache) and
    encodes each DISTINCT word in a batch once (Zipf makes the distinct
    set far smaller than the token stream), with an unbounded per-word
    memo bounded by the vocabulary actually seen on that worker."""
    import ray

    from mdvalidate_ray.state.proc_cache import get_or_build

    merges_ref = ray.put([(m["left"], m["right"]) for m in merges])

    def _encode_len(word: str, ranks: dict, memo: dict) -> int:
        hit = memo.get(word)
        if hit is not None:
            return hit
        sym = list(word)
        while len(sym) > 1:
            best_rank, best_pair = None, None
            for i in range(len(sym) - 1):
                r = ranks.get((sym[i], sym[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_pair = r, (sym[i], sym[i + 1])
            if best_pair is None:
                break
            merged, i = [], 0
            while i < len(sym):
                if (i < len(sym) - 1
                        and (sym[i], sym[i + 1]) == best_pair):
                    merged.append(sym[i] + sym[i + 1])
                    i += 2
                else:
                    merged.append(sym[i])
                    i += 1
            sym = merged
        memo[word] = len(sym)
        return len(sym)

    def encode_batch(b: pa.Table) -> pa.Table:
        state = get_or_build(
            _TEXT_STATE, ("bpe", merges_ref.hex()),
            lambda: ({p: i for i, p in enumerate(ray.get(merges_ref))},
                     {}))
        ranks, memo = state
        texts = pc.utf8_lower(pc.utf8_trim(
            pc.cast(b.column(text_col), pa.string()), characters=" "))
        tokens = pc.split_pattern_regex(texts, r"\s+")
        tokens = (tokens.combine_chunks()
                  if isinstance(tokens, pa.ChunkedArray) else tokens)
        offsets = np.asarray(tokens.offsets, dtype=np.int64)
        offsets = offsets - offsets[0]
        counts = np.diff(offsets)
        words = tokens.flatten().to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(words.astype(object), return_inverse=True)
        lens = np.array([0 if w == "" else _encode_len(w, ranks, memo)
                         for w in uniq], dtype=np.int64)
        per_word = lens[inv]
        out = np.zeros(b.num_rows, dtype=np.int64)
        np.add.at(out, np.repeat(np.arange(b.num_rows), counts),
                  per_word)
        return pa.table({id_col: b.column(id_col).combine_chunks()
                         if isinstance(b.column(id_col), pa.ChunkedArray)
                         else b.column(id_col),
                         out_col: pa.array(out)})

    return ds.select_columns([id_col, text_col]).map_batches(
        encode_batch, batch_format="pyarrow", zero_copy_batch=True)


def greedy_coverage_selection(ds, *, key: str = "doc_id",
                              column: str = "text", k: int = 10,
                              n_buckets: int = 1 << 20, ngram: int = 1):
    """Greedy maximum-coverage data selection — pick ``k`` documents
    that together cover the most distinct vocabulary, the classic
    submodular-maximization curation primitive (greedy is (1−1/e)-
    optimal, Nemhauser et al. 1978; the facility-location shape of
    data-pruning work).  Deterministic: ties break to the smaller key.

    Vocabulary is tracked as a ``n_buckets``-bit set over md5-bucketed
    words (the Bloom-style collision tradeoff, documented: two words
    sharing a bucket count once — exact for vocab ≪ n_buckets).  Ray
    shape mirrors kmeans_fit's cached-iteration pattern: ONE pass
    tokenizes each doc to its sorted unique bucket array and
    materializes (doc, buckets) blocks into the object store; each of
    the k rounds broadcasts the 128 KiB covered-bitset via ``ray.put``
    and runs a task wave computing per-block (best gain, best key)
    partials — per round only #blocks tiny pairs reach the driver, and
    the winning doc's buckets are fetched once by key.  No shuffle
    anywhere; round count is k, not data-sized.

    Returns ``(rank, key, gain)`` — gain = newly covered buckets at
    selection time (first pick = its distinct-bucket count)."""
    import hashlib

    import ray

    def featurize(b: pa.Table) -> pa.Table:
        col = pc.fill_null(pc.cast(b.column(column), pa.string()), "")
        out_keys, out_feats = [], []
        for kv, txt in zip(b.column(key).to_pylist(), col.to_pylist()):
            toks = [w for w in txt.lower().split() if w]
            if ngram > 1:
                ws = {" ".join(toks[i:i + ngram])
                      for i in range(len(toks) - ngram + 1)}
            else:
                ws = set(toks)
            hs = np.unique(np.fromiter(
                (int.from_bytes(
                    hashlib.md5(w.encode()).digest()[8:16],
                    "little") % n_buckets for w in ws),
                dtype=np.int64, count=len(ws))) if ws else \
                np.zeros(0, dtype=np.int64)
            out_keys.append(int(kv))
            out_feats.append(hs)
        flat = (np.concatenate(out_feats) if out_feats
                else np.zeros(0, dtype=np.int64))
        offs = np.zeros(len(out_feats) + 1, dtype=np.int32)
        if out_feats:
            offs[1:] = np.cumsum([len(f) for f in out_feats])
        return pa.Table.from_arrays(
            [pa.array(out_keys, pa.int64()),
             pa.ListArray.from_arrays(pa.array(offs), pa.array(flat))],
            names=[key, "_feat"])

    feats = ds.select_columns([key, column]).map_batches(
        featurize, batch_format="pyarrow").materialize()
    refs = feats.to_arrow_refs()

    def block_best(tbl: pa.Table, covered_ref) -> tuple:
        if tbl.num_rows == 0:    # materialize() empties carry no schema
            return -1, -1
        cov = ray.get(covered_ref) if not isinstance(
            covered_ref, np.ndarray) else covered_ref
        keys = tbl.column(key).to_numpy(zero_copy_only=False)
        lf = tbl.column("_feat").combine_chunks()
        flat = lf.flatten().to_numpy(zero_copy_only=False)
        offs = lf.offsets.to_numpy()
        miss = (~cov[flat]).astype(np.int64)
        # exclusive-cumsum fold: exact per-block sums even when any
        # block (including the LAST) is empty — reduceat raises on an
        # index == len(flat), which a trailing empty feature list hits
        cs = np.concatenate(([0], np.cumsum(miss)))
        gains = cs[offs[1:]] - cs[offs[:-1]]
        order = np.lexsort((keys, -gains))
        i = order[0]
        return int(gains[i]), int(keys[i])

    best_task = ray.remote(num_cpus=1)(block_best)
    covered = np.zeros(n_buckets, dtype=bool)
    picks = []
    chosen: set = set()
    for _ in range(k):
        cref = ray.put(covered)
        parts = ray.get([best_task.remote(r, cref) for r in refs])
        # exclude already-chosen keys: their gain is 0 after OR-ing, so
        # they can only win at gain 0 — stop there anyway
        gain, kv = max(parts, key=lambda p: (p[0], -p[1]))
        if gain <= 0 or kv in chosen:
            break
        chosen.add(kv)
        row = feats.filter(expr=f"{key} == {kv}").take_all()
        covered[np.asarray(row[0]["_feat"], dtype=np.int64)] = True
        picks.append((len(picks) + 1, kv, gain))
    return pa.Table.from_arrays(
        [pa.array([p[0] for p in picks], pa.int64()),
         pa.array([p[1] for p in picks], pa.int64()),
         pa.array([p[2] for p in picks], pa.int64())],
        names=["rank", key, "gain"])


def winnow_fingerprint_stats(ds, *, key: str = "doc_id",
                             column: str = "text", k: int = 3,
                             w: int = 4):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS local-similarity algorithm): hash every
    word ``k``-gram, slide a window of ``w`` consecutive gram hashes,
    and select each window's minimum — rightmost position on ties —
    giving position-robust fingerprints whose density is guaranteed
    (2/(w+1)) regardless of content.  The tie rule is encoded in the
    pack ``(h % 2⁴⁰)·2²⁰ + (2²⁰−1−gi)`` (min pack = min hash, tie →
    max gram index), so the SQL twin's window MIN picks the identical
    fingerprint; md5-parity hashes make the whole thing hash-exact.

    One vectorized pass per batch — flat word buffer, grams via shifted
    flat-array concat, window minima via ``w−1`` shifted
    ``np.minimum`` folds, per-doc distinct via sort + reduceat; no
    per-row Python.  Emits ``(key, n_windows, n_fp)`` per document
    with ≥ 1 gram (n=0 rows for docs with fewer than w grams).
    Assumes gram index < 2²⁰ (docs under ~1M words)."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    H_MOD = np.uint64(1) << np.uint64(40)
    GI_SP = np.int64(1) << np.int64(20)

    def stats(b: pa.Table) -> pa.Table:
        out_schema = pa.schema([(key, pa.int64()),
                                ("n_windows", pa.int64()),
                                ("n_fp", pa.int64())])
        col = pc.fill_null(pc.cast(b.column(column), pa.string()), "")
        words = pc.split_pattern_regex(pc.utf8_lower(col), r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        offs = words.offsets.to_numpy()
        base = int(offs[0])
        flat0 = words.values.slice(base, int(offs[-1]) - base)
        n_docs = len(offs) - 1
        # drop empty split artifacts (leading/trailing whitespace) to
        # match the SQL twin's list_filter(x -> x <> '')
        doc_of0 = np.repeat(np.arange(n_docs),
                            np.diff(offs).astype(np.int64))
        keep = np.asarray(pc.not_equal(flat0, ""), dtype=bool)
        flat = flat0.filter(pa.array(keep))
        doc_of_word = doc_of0[keep]
        wc = np.bincount(doc_of_word, minlength=n_docs)
        n_words = len(flat)
        if n_words < k:
            return out_schema.empty_table()
        # grams over the flat buffer; valid only where the whole gram
        # stays inside one document
        parts = [flat.slice(i, n_words - k + 1) for i in range(k)]
        grams = pc.binary_join_element_wise(*parts, " ")
        gram_doc = doc_of_word[:n_words - k + 1]
        gram_ok = doc_of_word[k - 1:] == gram_doc
        gl = grams.to_pylist()
        h = (_md5_token_hashes(gl) % H_MOD).astype(np.int64) \
            if gl else np.zeros(0, dtype=np.int64)
        # 1-based gram index within its doc
        doc_start_word = np.concatenate(([0], np.cumsum(wc)[:-1]))
        gi = np.arange(n_words - k + 1) - doc_start_word[gram_doc] + 1
        pack = h * GI_SP + (GI_SP - 1 - gi)
        # windowed min over w consecutive grams, flat with validity mask
        m = pack.copy()
        for s in range(1, w):
            m[s:] = np.minimum(m[s:], pack[:-s])
        valid = gram_ok & (gi >= w)
        # also require the whole window in-doc: gi >= w guarantees the
        # previous w-1 grams exist in the same doc (gram_ok chains)
        sel_doc = gram_doc[valid]
        sel = m[valid]
        # per-doc counts: windows + distinct fingerprints
        order = np.lexsort((sel, sel_doc))
        sd, sv = sel_doc[order], sel[order]
        uniq_mask = np.ones(len(sd), dtype=bool)
        if len(sd) > 1:
            uniq_mask[1:] = (sd[1:] != sd[:-1]) | (sv[1:] != sv[:-1])
        n_win = np.bincount(sel_doc, minlength=n_docs)
        n_fp = np.bincount(sd[uniq_mask], minlength=n_docs)
        has_gram = np.bincount(gram_doc[gram_ok],
                               minlength=n_docs) > 0
        keys = b.column(key).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        mask = has_gram
        return pa.Table.from_arrays(
            [pa.array(keys[mask]),
             pa.array(n_win[mask].astype(np.int64)),
             pa.array(n_fp[mask].astype(np.int64))],
            names=[key, "n_windows", "n_fp"])

    return ds.select_columns([key, column]).map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True)


def _tokens_of(b: pa.Table, text_col: str):
    """Shared tokenizer (lower → trim → split ``\\s+`` → drop empties) —
    byte-identical to the oracle SQL's ``list_filter(string_split_regex(
    lower(trim(text)), '\\s+'), x -> x <> '')``.  Returns (words Arrow
    StringArray, parent row indices int64 numpy)."""
    texts = pc.utf8_lower(pc.utf8_trim(
        pc.cast(b.column(text_col), pa.string()), characters=" "))
    tokens = pc.split_pattern_regex(texts, r"\s+")
    flat = (tokens.combine_chunks()
            if isinstance(tokens, pa.ChunkedArray) else tokens)
    words = flat.flatten()
    parents = pc.list_parent_indices(flat)
    keep = pc.not_equal(words, "")
    words = words.filter(keep)
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    parents = np.asarray(parents.filter(keep)).astype(np.int64)
    return words, parents


def dsir_importance_weights(ds, *, id_col: str = "doc_id",
                            text_col: str = "text",
                            target_col: str = "lang",
                            target_value: str = "en",
                            n_buckets: int = 4096):
    """DSIR data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): per-document log
    importance weight ``log p_target(x) − log p_raw(x)`` under hashed
    bag-of-words unigram models — the published recipe for selecting
    raw web data that "looks like" a target domain (here: the rows
    whose ``target_col == target_value``).

    Exactness contract: each bucket's log-ratio is quantized to int64
    ONCE on the driver (``floor(lr·10⁶ + 0.5)``), so the per-document
    score is an ORDER-FREE integer sum — no float association anywhere
    in the distributed fold, and the DuckDB oracle reproduces it
    bit-for-bit (token hashes are md5-lower-64, DuckDB's
    ``md5_number_lower``).

    Scale shape: pass 1 is a per-batch ``bincount`` combiner over the
    FIXED n_buckets feature space (each batch ships ≤ n_buckets rows
    regardless of token count) folded by one coarse-bucket group-sum;
    the 2·n_buckets-int table reaches the driver (KBs), the quantized
    log-ratio vector is broadcast once via ``ray.put``, and pass 2
    scores each doc inside its own batch — no exchange at all.  Both
    passes hash each UNIQUE token once per batch (hashlib md5 — the
    oracle-reproducible mode; swap _md5_token_hashes for the vectorized
    SipHash family when SQL parity is not needed).

    Returns a Dataset (id_col, n_tokens, dsir_e6), one row per doc with
    ≥1 token."""
    import ray

    from mdvalidate_ray.functions.dedup import _md5_token_hashes
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    docs = ds.select_columns([id_col, text_col, target_col])
    cnt_schema = pa.schema([("bucket", pa.int64()),
                            ("c_raw", pa.int64()), ("c_tgt", pa.int64())])

    def count_part(b: pa.Table) -> pa.Table:
        words, parents = _tokens_of(b, text_col)
        if len(words) == 0:
            return cnt_schema.empty_table()
        h = _md5_token_hashes(words.to_pylist())
        buckets = (h % np.uint64(n_buckets)).astype(np.int64)
        tgt = pc.fill_null(
            pc.equal(pc.cast(b.column(target_col), pa.string()),
                     target_value), False)
        tgt_rows = np.asarray(tgt.combine_chunks()
                              if isinstance(tgt, pa.ChunkedArray) else tgt)
        c_raw = np.bincount(buckets, minlength=n_buckets)
        c_tgt = np.bincount(buckets[tgt_rows[parents]],
                            minlength=n_buckets)
        nz = np.nonzero(c_raw)[0]
        return pa.Table.from_arrays(
            [pa.array(nz, pa.int64()),
             pa.array(c_raw[nz], pa.int64()),
             pa.array(c_tgt[nz], pa.int64())],
            names=["bucket", "c_raw", "c_tgt"])

    counts = bucketed_group_sum(
        docs.map_batches(count_part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="bucket", sum_cols=["c_raw", "c_tgt"], n_parts=4)

    c_raw = np.zeros(n_buckets, dtype=np.int64)
    c_tgt = np.zeros(n_buckets, dtype=np.int64)
    for blk in counts.iter_batches(batch_format="pyarrow"):
        idx = np.asarray(blk.column("bucket"))
        c_raw[idx] += np.asarray(blk.column("c_raw"))
        c_tgt[idx] += np.asarray(blk.column("c_tgt"))
    n_raw, n_tgt = int(c_raw.sum()), int(c_tgt.sum())
    # per-bucket quantized log-ratio, smoothing add-1 over n_buckets —
    # expression order mirrors the oracle SQL exactly (each ln is one
    # libm call on a double; the subtractions are association-fixed)
    lr = ((np.log(c_tgt + 1.0) - np.log(float(n_tgt + n_buckets)))
          - (np.log(c_raw + 1.0) - np.log(float(n_raw + n_buckets))))
    lr_e6 = np.floor(lr * 1_000_000.0 + 0.5).astype(np.int64)
    lr_ref = ray.put(lr_e6)

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("dsir_e6", pa.int64())])

    def score(b: pa.Table) -> pa.Table:
        words, parents = _tokens_of(b, text_col)
        if len(words) == 0:
            return out_schema.empty_table()
        table = ray.get(lr_ref)            # zero-copy plasma read
        h = _md5_token_hashes(words.to_pylist())
        buckets = (h % np.uint64(n_buckets)).astype(np.int64)
        n_tok = np.bincount(parents, minlength=b.num_rows)
        sums = np.bincount(parents, weights=table[buckets].astype(
            np.float64), minlength=b.num_rows).astype(np.int64)
        keep = n_tok > 0
        ids = np.asarray(b.column(id_col).to_pandas(),
                         dtype=np.int64)[keep]
        return pa.Table.from_arrays(
            [pa.array(ids), pa.array(n_tok[keep].astype(np.int64)),
             pa.array(sums[keep])],
            names=[id_col, "n_tokens", "dsir_e6"])

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


def lm_bigram_nll(ds, *, id_col: str = "doc_id", text_col: str = "text",
                  head_lt_e6: int = 6_500_000,
                  tail_ge_e6: int = 7_500_000):
    """CCNet-style LM quality scoring (Wenzek et al. 2020): per-document
    negative log-likelihood under an add-1-smoothed word-BIGRAM model
    trained on the corpus itself, bucketed head/middle/tail by fixed
    avg-NLL thresholds — the perplexity filter web-scale curation runs
    to rank raw text by "how much does this look like language".

    Exactness contract: each bigram's conditional log-prob
    ``ln((c₁₂+1)/(c₁+V))`` (c₁ = occurrences of w₁ as a bigram context,
    V = distinct-unigram vocabulary) is quantized to int64 ONCE on the
    driver, so per-doc NLL is an order-free integer sum the DuckDB
    oracle reproduces bit-for-bit.  Because scoring and training use the
    same corpus, every scored bigram exists in the table (held-out
    scoring would add the unseen-bigram backoff ``1/(c₁+V)``).

    Scale shape: one bigram count fold (per-batch ``value_counts``
    combiner → coarse bucketed group-sum — a hot bigram is ONE row per
    batch in the exchange) plus one distinct-unigram count; the bigram
    vocabulary table reaches the driver and is broadcast once via
    ``ray.put`` (bounded by observed-bigram vocab ≪ corpus — hash-bucket
    the probe join instead if the vocabulary ever outgrows a broadcast,
    the tfidf df-side pattern); pass 2 scores each doc inside its own
    batch via one sorted ``searchsorted`` probe — no exchange.

    Returns a Dataset (id_col, n_bigrams, nll_e6, ppl_bucket), one row
    per doc with ≥1 bigram."""
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    docs = ds.select_columns([id_col, text_col])
    pair_schema = pa.schema([("g", pa.string()), ("cnt", pa.int64())])

    def bigrams_of(b: pa.Table):
        words, parents = _tokens_of(b, text_col)
        if len(words) < 2:
            return None, None
        same = parents[1:] == parents[:-1]
        left = words.slice(0, len(words) - 1).filter(pa.array(same))
        right = words.slice(1).filter(pa.array(same))
        if len(left) == 0:
            return None, None
        return (pc.binary_join_element_wise(left, right, " "),
                parents[:-1][same])

    def bi_part(b: pa.Table) -> pa.Table:
        grams, _ = bigrams_of(b)
        if grams is None:
            return pair_schema.empty_table()
        vc = grams.value_counts()
        return pa.Table.from_arrays(
            [vc.field("values"), vc.field("counts").cast(pa.int64())],
            names=["g", "cnt"])

    def uni_part(b: pa.Table) -> pa.Table:
        words, _ = _tokens_of(b, text_col)
        if len(words) == 0:
            return pair_schema.empty_table()
        u = words.unique()
        return pa.Table.from_arrays(
            [u, pa.array(np.ones(len(u), dtype=np.int64))],
            names=["g", "cnt"])

    vocab = bucketed_group_sum(
        docs.map_batches(uni_part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="g", sum_cols=["cnt"], n_parts=8)
    V = vocab.count()

    bi = bucketed_group_sum(
        docs.map_batches(bi_part, batch_format="pyarrow",
                         zero_copy_batch=True),
        key="g", sum_cols=["cnt"], n_parts=8)

    keys: list[str] = []
    c12s: list[int] = []
    for blk in bi.iter_batches(batch_format="pyarrow"):
        keys.extend(blk.column("g").to_pylist())
        c12s.extend(blk.column("cnt").to_pylist())
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("n_bigrams", pa.int64()),
                            ("nll_e6", pa.int64()),
                            ("ppl_bucket", pa.string())])
    if not keys:
        return docs.map_batches(
            lambda b: out_schema.empty_table(), batch_format="pyarrow")

    karr = np.asarray(keys, dtype=object)
    order = np.argsort(karr)
    karr = karr[order]
    c12 = np.asarray(c12s, dtype=np.int64)[order]
    # context counts: c1(w1) = Σ over bigrams starting with w1 — the
    # bigram vocab is already on the driver, so this is a local fold
    w1 = np.asarray([g.split(" ", 1)[0] for g in karr], dtype=object)
    uniq_w1, inv = np.unique(w1, return_inverse=True)
    c1 = np.bincount(inv, weights=c12.astype(np.float64)) \
        .astype(np.int64)[inv]
    lp = np.log(c12 + 1.0) - np.log(c1.astype(np.float64) + float(V))
    lp_e6 = np.floor(lp * 1_000_000.0 + 0.5).astype(np.int64)
    tbl_ref = ray.put((karr, lp_e6))

    def score(b: pa.Table) -> pa.Table:
        grams, gparents = bigrams_of(b)
        if grams is None:
            return out_schema.empty_table()
        kv, lpv = ray.get(tbl_ref)         # zero-copy plasma read
        gs = np.asarray(grams.to_pylist(), dtype=object)
        pos = np.searchsorted(kv, gs)      # always hits: self-scoring
        nll = np.bincount(gparents, weights=-lpv[pos].astype(np.float64),
                          minlength=b.num_rows).astype(np.int64)
        n_bi = np.bincount(gparents, minlength=b.num_rows)
        keep = n_bi > 0
        ids = np.asarray(b.column(id_col).to_pandas(),
                         dtype=np.int64)[keep]
        avg = nll[keep] // n_bi[keep]
        bucket = np.where(avg < head_lt_e6, "head",
                          np.where(avg < tail_ge_e6, "middle", "tail"))
        return pa.Table.from_arrays(
            [pa.array(ids), pa.array(n_bi[keep].astype(np.int64)),
             pa.array(nll[keep]),
             pa.array(bucket.astype(object), pa.string())],
            names=[id_col, "n_bigrams", "nll_e6", "ppl_bucket"])

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                     "with")


def gopher_quality_flags(ds, *, id_col: str = "doc_id",
                         text_col: str = "text"):
    """The Gopher quality-rule bundle (Rae et al. 2021 §A1.1, the
    heuristics RedPajama/Dolma ship as "quality signals"): per-document
    boolean flags for the seven classic repetition-free rules, plus
    their conjunction — the cheap pre-filter a web-scale pipeline runs
    before any model-based scoring.

    All rules are INTEGER comparisons (``10·n_sym ≤ n_words``, never a
    float ratio), so the DuckDB oracle reproduces the flags
    bit-for-bit:

    * ``r_wordcount`` — 50 ≤ n_words ≤ 100 000;
    * ``r_meanlen`` — 3 ≤ mean word length ≤ 10;
    * ``r_symbol`` — (# + ellipsis) ≤ 0.1·n_words;
    * ``r_bullet`` — ≤ 90% of lines start with a bullet;
    * ``r_ellipsis`` — ≤ 30% of lines end with an ellipsis;
    * ``r_alpha`` — ≥ 80% of words contain an alphabetic char;
    * ``r_stop`` — ≥ 2 distinct Gopher stop words present;
    * ``gopher_pass`` — the conjunction.

    Scale shape: one vectorized Arrow pass per batch (split / regex /
    bincount kernels), zero exchange — every doc is scored inside its
    own block."""
    return ds.select_columns([id_col, text_col]).map_batches(
        _gopher_quality_kernel(id_col, text_col),
        batch_format="pyarrow", zero_copy_batch=True)


def _gopher_quality_kernel(id_col: str, text_col: str):
    """Per-batch kernel factory behind :func:`gopher_quality_flags`,
    module-level so the fused curation scorecard can run it in the same
    scan as the other rule families."""

    def flags(b: pa.Table) -> pa.Table:
        n = b.num_rows
        texts = pc.fill_null(pc.cast(b.column(text_col), pa.string()), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()

        # words (whitespace split, empties dropped — mirrors the SQL)
        toks = pc.split_pattern_regex(
            pc.utf8_trim(texts, characters=" "), r"\s+")
        words = toks.flatten()
        wpar = np.asarray(pc.list_parent_indices(toks)).astype(np.int64)
        keep = np.asarray(pc.not_equal(words, ""))
        words = words.filter(pa.array(keep))
        wpar = wpar[keep]
        n_words = np.bincount(wpar, minlength=n)
        wlen = np.asarray(pc.utf8_length(words)).astype(np.int64)
        tot_wchars = np.bincount(wpar, weights=wlen.astype(np.float64),
                                 minlength=n).astype(np.int64)
        alpha = np.asarray(pc.match_substring_regex(words, "[a-zA-Z]"))
        n_alpha = np.bincount(wpar[alpha], minlength=n)

        # symbols over the raw text (non-overlapping counts, both sides)
        n_sym = (np.asarray(pc.count_substring(texts, "#"))
                 + np.asarray(pc.count_substring(texts, "…"))
                 + np.asarray(pc.count_substring(texts, "..."))) \
            .astype(np.int64)

        # lines
        lines = pc.split_pattern(texts, "\n")
        lflat = lines.flatten()
        lpar = np.asarray(pc.list_parent_indices(lines)).astype(np.int64)
        n_lines = np.bincount(lpar, minlength=n)
        bullet = (np.asarray(pc.starts_with(lflat, "- "))
                  | np.asarray(pc.starts_with(lflat, "* "))
                  | np.asarray(pc.starts_with(lflat, "• ")))
        ell = (np.asarray(pc.ends_with(lflat, "..."))
               | np.asarray(pc.ends_with(lflat, "…")))
        n_bullet = np.bincount(lpar[bullet], minlength=n)
        n_ell = np.bincount(lpar[ell], minlength=n)

        # distinct stop words present (8 vectorized equality sweeps)
        lower = pc.utf8_lower(words)
        n_stop = np.zeros(n, dtype=np.int64)
        for sw in _GOPHER_STOPWORDS:
            hit = np.asarray(pc.equal(lower, sw))
            n_stop += np.bincount(wpar[hit], minlength=n) > 0

        r_wordcount = (n_words >= 50) & (n_words <= 100_000)
        r_meanlen = (3 * n_words <= tot_wchars) \
            & (tot_wchars <= 10 * n_words)
        r_symbol = 10 * n_sym <= n_words
        r_bullet = 10 * n_bullet <= 9 * n_lines
        r_ellipsis = 10 * n_ell <= 3 * n_lines
        r_alpha = 5 * n_alpha >= 4 * n_words
        r_stop = n_stop >= 2
        g = (r_wordcount & r_meanlen & r_symbol & r_bullet & r_ellipsis
             & r_alpha & r_stop)
        return pa.Table.from_arrays(
            [b.column(id_col).cast(pa.int64()),
             pa.array(n_words.astype(np.int64)),
             pa.array(r_wordcount), pa.array(r_meanlen),
             pa.array(r_symbol), pa.array(r_bullet),
             pa.array(r_ellipsis), pa.array(r_alpha), pa.array(r_stop),
             pa.array(g)],
            names=[id_col, "n_words", "r_wordcount", "r_meanlen",
                   "r_symbol", "r_bullet", "r_ellipsis", "r_alpha",
                   "r_stop", "gopher_pass"])

    return flags


def gopher_repetition_flags(ds, *, id_col: str = "doc_id",
                            text_col: str = "text"):
    """The Gopher repetition-rule bundle (Rae et al. 2021 §A1.1, the
    other half of the quality heuristics in
    :func:`gopher_quality_flags`): per-document flags for duplicate
    lines and n-gram over-representation — the signals that catch
    boilerplate, SEO spam and templated pages before any model runs.

    Definitions (every quantity an integer, so the DuckDB oracle
    reproduces the flags bit-for-bit; coverage is counted over the
    single-space-normalized doc length ``norm_len`` = Σ|word| +
    (n_words−1), and an n-gram's length includes its separators):

    * ``r_dup_line`` — duplicate-line fraction
      (n_lines − n_distinct_lines)/n_lines ≤ 0.30;
    * ``r_dup_line_chars`` — chars in repeated line occurrences
      (Σ over line groups (c−1)·|line|) / total line chars ≤ 0.20;
    * ``r_top2`` / ``r_top3`` / ``r_top4`` — chars covered by the
      single heaviest word n-gram, max over grams of c·|gram|,
      ≤ 0.20 / 0.18 / 0.16 of norm_len (cover-maximizing gram, so
      count ties can't make the metric nondeterministic);
    * ``r_dup5`` / ``r_dup10`` — chars covered by ALL duplicated
      n-grams, Σ over grams with c ≥ 2 of c·|gram|, ≤ 0.15 / 0.10
      of norm_len (overlaps counted — an upper-bound signal, exactly
      as both sides define it);
    * ``repetition_pass`` — the conjunction.

    Scale shape: one vectorized pass per batch — Arrow split /
    dictionary-encode kernels, n-grams as shifted-slice
    ``binary_join_element_wise`` (no Python loop over rows or grams),
    per-(doc, gram) counts via one ``np.unique`` on packed int64
    keys. Zero exchange; every doc scores inside its own block."""
    return ds.select_columns([id_col, text_col]).map_batches(
        _gopher_repetition_kernel(id_col, text_col),
        batch_format="pyarrow", zero_copy_batch=True)


def _gopher_repetition_kernel(id_col: str, text_col: str):
    """Per-batch kernel factory behind :func:`gopher_repetition_flags`
    (module-level for the fused curation scorecard)."""

    def _group_stats(par: np.ndarray, codes: np.ndarray,
                     lens: np.ndarray, n: int):
        """Per-(doc, code) occurrence counts and the length of the
        group's item; returns (doc_of_group, count, item_len)."""
        key = (par.astype(np.int64) << np.int64(32)) | codes.astype(
            np.int64)
        uniq, first, cnt = np.unique(key, return_index=True,
                                     return_counts=True)
        return (uniq >> np.int64(32)).astype(np.int64), cnt, lens[first]

    def flags(b: pa.Table) -> pa.Table:
        n = b.num_rows
        texts = pc.fill_null(pc.cast(b.column(text_col), pa.string()), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()

        # --- words (whitespace split, empties dropped) ---
        toks = pc.split_pattern_regex(
            pc.utf8_trim(texts, characters=" "), r"\s+")
        words = toks.flatten()
        wpar = np.asarray(pc.list_parent_indices(toks)).astype(np.int64)
        keep = np.asarray(pc.not_equal(words, ""))
        words = words.filter(pa.array(keep))
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        wpar = wpar[keep]
        n_words = np.bincount(wpar, minlength=n)
        wlen = np.asarray(pc.utf8_length(words)).astype(np.int64)
        norm_len = (np.bincount(wpar, weights=wlen.astype(np.float64),
                                minlength=n).astype(np.int64)
                    + np.maximum(n_words - 1, 0))

        # --- lines: dup-line fraction + dup-line chars ---
        lines = pc.split_pattern(texts, "\n")
        lflat = lines.flatten()
        if isinstance(lflat, pa.ChunkedArray):
            lflat = lflat.combine_chunks()
        lpar = np.asarray(pc.list_parent_indices(lines)).astype(np.int64)
        llen = np.asarray(pc.utf8_length(lflat)).astype(np.int64)
        n_lines = np.bincount(lpar, minlength=n)
        tot_line_chars = np.bincount(
            lpar, weights=llen.astype(np.float64),
            minlength=n).astype(np.int64)
        lcodes = np.asarray(pc.dictionary_encode(lflat).indices)
        gdoc, gcnt, glen_ = _group_stats(lpar, lcodes, llen, n)
        n_distinct = np.bincount(gdoc, minlength=n)
        dup_line_chars = np.bincount(
            gdoc, weights=((gcnt - 1) * glen_).astype(np.float64),
            minlength=n).astype(np.int64)

        # --- word n-grams: top-cover (k=2,3,4) and dup-cover (5,10),
        # identities via PREFIX-DOUBLING over dictionary codes (a
        # k-gram's dense code combines the code of its first a-gram
        # with the code of the b-gram starting a later, a+b=k) and
        # lengths via word-length prefix sums + (k−1) separators — no
        # gram STRING is ever materialized, so the batch never pays
        # the ~k× text blowup a join kernel would ---
        wcodes = np.asarray(pc.dictionary_encode(words).indices) \
            .astype(np.int64)
        m = len(words)
        wcum = np.concatenate(([0], np.cumsum(wlen)))

        def _recode(a: np.ndarray, bcol: np.ndarray) -> np.ndarray:
            packed = (a << np.int64(32)) | bcol
            _, inv = np.unique(packed, return_inverse=True)
            return inv.astype(np.int64)

        comp = {2: (1, 1), 3: (2, 1), 4: (2, 2), 5: (4, 1), 10: (5, 5)}
        codes_k = {1: wcodes}
        top_cover = {}
        dup_cover = {}
        for k in (2, 3, 4, 5, 10):
            a, bb = comp[k]
            npos = max(m - k + 1, 0)
            if npos > 0:
                codes_k[k] = _recode(codes_k[a][:npos],
                                     codes_k[bb][a:a + npos])
            else:
                codes_k[k] = np.zeros(0, dtype=np.int64)
            out = np.zeros(n, dtype=np.int64)
            if npos > 0:
                ok = wpar[:npos] == wpar[k - 1:k - 1 + npos]
                if ok.any():
                    gl = wcum[k:k + npos] - wcum[:npos] + (k - 1)
                    d, c, L = _group_stats(wpar[:npos][ok],
                                           codes_k[k][ok], gl[ok], n)
                    if k in (2, 3, 4):
                        np.maximum.at(out, d, c * L)
                    else:
                        dup = c >= 2
                        np.add.at(out, d[dup], (c * L)[dup])
            if k in (2, 3, 4):
                top_cover[k] = out
            else:
                dup_cover[k] = out

        r_dup_line = 10 * (n_lines - n_distinct) <= 3 * n_lines
        r_dup_line_chars = 5 * dup_line_chars <= tot_line_chars
        r_top2 = 5 * top_cover[2] <= norm_len
        r_top3 = 50 * top_cover[3] <= 9 * norm_len
        r_top4 = 25 * top_cover[4] <= 4 * norm_len
        r_dup5 = 20 * dup_cover[5] <= 3 * norm_len
        r_dup10 = 10 * dup_cover[10] <= norm_len
        g = (r_dup_line & r_dup_line_chars & r_top2 & r_top3 & r_top4
             & r_dup5 & r_dup10)
        return pa.Table.from_arrays(
            [b.column(id_col).cast(pa.int64()),
             pa.array(norm_len), pa.array(top_cover[2]),
             pa.array(dup_cover[5]),
             pa.array(r_dup_line), pa.array(r_dup_line_chars),
             pa.array(r_top2), pa.array(r_top3), pa.array(r_top4),
             pa.array(r_dup5), pa.array(r_dup10), pa.array(g)],
            names=[id_col, "norm_len", "top2_cover", "dup5_cover",
                   "r_dup_line", "r_dup_line_chars", "r_top2", "r_top3",
                   "r_top4", "r_dup5", "r_dup10", "repetition_pass"])

    return flags


def c4_line_filter(ds, *, id_col: str = "doc_id",
                   text_col: str = "text"):
    """The C4 line-level cleaning rules (Raffel et al. 2020 §2.2, the
    exact heuristics the original TensorFlow pipeline applied to
    Common Crawl): keep a line iff it ends in terminal punctuation
    (``.``, ``!``, ``?``, ``"``), has ≥ 5 words, and does not mention
    "javascript"; keep a DOCUMENT iff it contains neither
    "lorem ipsum" nor a curly brace and retains ≥ 3 lines.

    Per-doc output (all integers/booleans, so the DuckDB oracle is
    bit-exact): ``n_lines``, ``n_kept_lines``, ``kept_chars`` (char
    mass of surviving lines), the three doc-level gates and
    ``doc_kept``.

    Scale shape: one vectorized Arrow pass per batch — two nested
    splits (doc→lines, line→words) as flat kernels with parent-index
    bincounts, zero exchange."""
    return ds.select_columns([id_col, text_col]).map_batches(
        _c4_line_kernel(id_col, text_col),
        batch_format="pyarrow", zero_copy_batch=True)


def _c4_line_kernel(id_col: str, text_col: str):
    """Per-batch kernel factory behind :func:`c4_line_filter`
    (module-level for the fused curation scorecard)."""

    def flags(b: pa.Table) -> pa.Table:
        n = b.num_rows
        texts = pc.fill_null(pc.cast(b.column(text_col), pa.string()), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()

        lines = pc.split_pattern(texts, "\n")
        lflat = lines.flatten()
        if isinstance(lflat, pa.ChunkedArray):
            lflat = lflat.combine_chunks()
        lpar = np.asarray(pc.list_parent_indices(lines)).astype(np.int64)
        n_lines = np.bincount(lpar, minlength=n)

        # words per line (empties dropped)
        toks = pc.split_pattern_regex(
            pc.utf8_trim(lflat, characters=" "), r"\s+")
        wpar = np.asarray(pc.list_parent_indices(toks)).astype(np.int64)
        nonempty = np.asarray(pc.not_equal(toks.flatten(), ""))
        lwords = np.bincount(wpar[nonempty], minlength=len(lflat))

        # ASCII-whitespace trim, matching the oracle's explicit
        # trim(line, ' \t\r\n\v\f') — utf8_trim_whitespace would also
        # strip unicode spaces (NBSP etc.) the SQL leaves alone, and a
        # plain SQL trim() would leave '\r' (CRLF corpora) that this
        # side strips
        trimmed = pc.utf8_trim(lflat, characters=" \t\r\n\v\f")
        terminal = np.zeros(len(lflat), dtype=bool)
        for p in (".", "!", "?", '"'):
            terminal |= np.asarray(pc.ends_with(trimmed, p))
        has_js = np.asarray(pc.match_substring(
            pc.utf8_lower(lflat), "javascript"))
        keep = terminal & (lwords >= 5) & ~has_js
        n_kept = np.bincount(lpar[keep], minlength=n)
        llen = np.asarray(pc.utf8_length(lflat)).astype(np.int64)
        kept_chars = np.bincount(
            lpar[keep], weights=llen[keep].astype(np.float64),
            minlength=n).astype(np.int64)

        has_lorem = np.asarray(pc.match_substring(
            pc.utf8_lower(texts), "lorem ipsum"))
        has_brace = np.asarray(
            pc.count_substring(texts, "{")).astype(np.int64) > 0
        doc_kept = ~has_lorem & ~has_brace & (n_kept >= 3)
        return pa.Table.from_arrays(
            [b.column(id_col).cast(pa.int64()),
             pa.array(n_lines.astype(np.int64)),
             pa.array(n_kept.astype(np.int64)), pa.array(kept_chars),
             pa.array(has_lorem), pa.array(has_brace),
             pa.array(doc_kept)],
            names=[id_col, "n_lines", "n_kept_lines", "kept_chars",
                   "has_lorem", "has_brace", "doc_kept"])

    return flags


_PII_PATTERNS = (
    ("n_email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("n_ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"),
    ("n_phone", r"\+?\d{1,3}[- ]\d{3}[- ]\d{4}\b"),
    ("n_digit_run", r"\d{6,}"),
)


def pii_scan(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """PII pre-redaction scan: per-document non-overlapping match
    counts for the four classic detector classes (email address, IPv4,
    phone-shaped number, long digit run) plus a ``has_pii`` gate over
    the first three — the audit pass a curation pipeline runs to size
    the scrubbing problem before rewriting any bytes.

    Both sides run the SAME RE2 patterns (pyarrow's
    ``count_substring_regex`` here, DuckDB's ``regexp_extract_all``
    in the oracle — both RE2, identical leftmost non-overlapping
    semantics), so counts are bit-exact.

    Scale shape: four compiled-regex Arrow kernels per batch, zero
    exchange."""
    return ds.select_columns([id_col, text_col]).map_batches(
        _pii_kernel(id_col, text_col),
        batch_format="pyarrow", zero_copy_batch=True)


def _pii_kernel(id_col: str, text_col: str):
    """Per-batch kernel factory behind :func:`pii_scan` (module-level
    for the fused curation scorecard)."""

    def scan(b: pa.Table) -> pa.Table:
        texts = pc.fill_null(pc.cast(b.column(text_col), pa.string()), "")
        cols = [b.column(id_col).cast(pa.int64())]
        counts = {}
        for name, pat in _PII_PATTERNS:
            c = pc.cast(pc.count_substring_regex(texts, pat), pa.int64())
            counts[name] = c
            cols.append(c)
        has = pc.or_(pc.or_(pc.greater(counts["n_email"], 0),
                            pc.greater(counts["n_ipv4"], 0)),
                     pc.greater(counts["n_phone"], 0))
        cols.append(has)
        return pa.Table.from_arrays(
            cols, names=[id_col] + [n for n, _ in _PII_PATTERNS]
            + ["has_pii"])

    return scan


def deterministic_shuffle(ds, *, key: str = "doc_id", salt: str = "shuf"):
    """Seeded, reproducible GLOBAL shuffle: range-partitioned SORT on
    md5-lower-64 of ``salt || key`` (+ key tiebreak) — the 100-TB way to
    randomize training order.  Unlike ``random_shuffle`` (RNG exchange,
    different order every run) the permutation is a pure function of
    (salt, key): stable under re-runs, repartitioning and cluster size,
    resumable mid-epoch (the order is recomputable), and auditable
    outside the engine (DuckDB: ``ORDER BY md5_number_lower(salt ||
    key)``).  New epoch = new salt.  The sort is Ray's range-partitioned
    exchange; the hash column is 8 bytes/row on the wire."""
    from mdvalidate_ray.functions.dedup import _md5_token_hashes

    def tag(b: pa.Table) -> pa.Table:
        keys = [salt + str(v) for v in b.column(key).to_pylist()]
        h = (_md5_token_hashes(keys) if keys
             else np.array([], dtype=np.uint64))
        return b.append_column("_shuf", pa.array(h, pa.uint64()))

    return ds.map_batches(tag, batch_format="pyarrow",
                          zero_copy_batch=True).sort(["_shuf", key]) \
        .drop_columns(["_shuf"])    # internal state must not leak into
                                    # the returned training order
