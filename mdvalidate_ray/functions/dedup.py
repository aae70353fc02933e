"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (the part that matters at 100 TB):

* **exact** — hash inside the batch (combiner collapses within-batch dups)
  → ``groupby(hash).sum`` of tiny (hash, cnt) rows; only the pre-aggregated
  keys shuffle, never the text.
* **MinHash+LSH** — signatures are computed per batch (vectorized numpy:
  one (num_perm × shingles) universal-hash matrix, cached per worker),
  banded, and only LEAN (band, bucket, doc_id) rows shuffle — the classic
  shingle→minhash→band→bucket groupby without the ~8× signature payload.
  Bucket-cohabiting pairs are candidates verified by exact n-gram jaccard
  (:func:`verify_pairs_jaccard`, tiered: driver-local over the filtered
  candidate texts, or fully distributed via two candidate-sized
  co-partitions); the legacy ``verify="signature"`` mode keeps signatures
  in the exchange and filters by estimated similarity instead.
* **SimHash** — 64-bit signatures; near-dup candidates by pigeonhole on
  4×16-bit chunks (hamming ≤ 3 ⇒ at least one chunk equal), verified by
  exact hamming distance in the bucket group.
* **n-gram Jaccard** — exact verification used on LSH candidates (and
  directly at test scale); also a standalone near-dup family via prefix
  blocking (:func:`ngram_jaccard_near_duplicates`): block on the first
  words, candidate pairs within blocks, exact jaccard verify — only
  (bucket, blk, doc_id) rows take the blocking exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mdvalidate_ray import tiers
from mdvalidate_ray.exchange import by_bucket, co_partition, key_bucket
from mdvalidate_ray.state.sketches import hash_strings

_MERSENNE = (1 << 61) - 1


# --- exact dedup ------------------------------------------------------------

def exact_duplicate_groups(ds, column: str = "text", key: str = "doc_id",
                           n_parts: int = 128):
    """Groups of byte-identical documents → Dataset (fp_md5, cnt, doc_ids).

    The shuffle payload is (hash, id); the exchange key is a coarse
    bucket of the fingerprint, so the number of Python group calls
    is bounded by ``n_parts`` (NOT by distinct documents — at corpus scale
    one ``map_groups`` call per distinct md5 would dominate).  Fine
    grouping by md5 happens vectorized inside each coarse group."""
    import hashlib

    def to_pairs(b: pa.Table) -> pa.Table:
        hashes = [hashlib.md5((t or "").encode()).hexdigest()
                  for t in b.column(column).to_pylist()]
        return pa.Table.from_arrays(
            [pa.array(hashes, pa.string()), b.column(key).cast(pa.string())],
            names=["fp_md5", key])

    pairs = ds.map_batches(to_pairs, batch_format="pyarrow",
                           zero_copy_batch=True)

    out_schema = pa.schema([("fp_md5", pa.string()), ("cnt", pa.int64()),
                            ("doc_ids", pa.list_(pa.string()))])

    def emit_groups(g: pa.Table) -> pa.Table:
        # vectorized dup detection inside the coarse partition: count per
        # md5, keep only md5s with cnt > 1, then build the (small) id lists
        counts = pa.TableGroupBy(g.select(["fp_md5"]), "fp_md5").aggregate(
            [([], "count_all")])
        dup_mask = pc.greater(counts.column("count_all"), 1)
        dup_fps = counts.filter(dup_mask).column("fp_md5")
        if len(dup_fps) == 0:
            return out_schema.empty_table()
        sus = g.filter(pc.is_in(g.column("fp_md5"), value_set=dup_fps))
        df = sus.to_pandas()
        rows = [{"fp_md5": fp, "cnt": len(ids), "doc_ids": sorted(ids)}
                for fp, ids in df.groupby("fp_md5")[key].apply(list).items()]
        rows.sort(key=lambda r: r["fp_md5"])
        return pa.Table.from_pylist(rows, schema=out_schema)

    return by_bucket(pairs, "fp_md5", emit_groups, n_parts)


# --- shingles + MinHash -----------------------------------------------------

def word_shingles(text: str, k: int = 3) -> list[str]:
    """k-word shingles (n-grams).  Word shingles discriminate much better
    than character shingles on small-vocabulary corpora: two unrelated
    docs sharing a vocabulary still share few word *sequences*."""
    words = (text or "").lower().split()
    if len(words) < k:
        return [" ".join(words)] if words else []
    return [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]


def jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = set(word_shingles(a, k)), set(word_shingles(b, k))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


class MinHasher:
    """num_perm multiplicative hashes over shingle hashes, fully vectorized.

    The permutation family is ``(a*h + b) mod 2**64`` with odd ``a`` —
    native uint64 wrap-around arithmetic, so the whole batch computes as
    one (num_perm × total_shingles) numpy op instead of per-doc object-int
    math.  Coefficients are seeded constants → identical across
    actors/processes."""

    def __init__(self, num_perm: int = 64, k: int = 3, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.a = (rng.integers(1, 1 << 62, num_perm, dtype=np.uint64)
                  | np.uint64(1))
        self.b = rng.integers(0, 1 << 62, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = k

    def signature_batch(self, texts: list) -> np.ndarray:
        """(n_docs, num_perm) signatures with ONE hash call for the whole
        batch and per-doc mins via ``np.minimum.reduceat``."""
        all_shingles: list[str] = []
        bounds = [0]
        for t in texts:
            all_shingles.extend(word_shingles(t, self.k))
            bounds.append(len(all_shingles))
        n = len(texts)
        out = np.full((n, self.num_perm), np.iinfo(np.uint64).max,
                      dtype=np.uint64)
        if not all_shingles:
            return out
        h = hash_strings(all_shingles)
        # per-permutation 1-D scalar ops, NOT a 2-D uint64 broadcast:
        # this numpy build routes (num_perm, n) uint64 broadcast
        # multiplies through a ~100x-slower generic inner loop (measured
        # 6-9 s vs 0.05 s for 64x260k elements; same pathology BASELINE.md
        # records for the simhash bit matrix)
        starts = np.asarray(bounds[:-1])
        nonempty = np.asarray([bounds[i + 1] > bounds[i] for i in range(n)])
        if nonempty.any():
            # reduceat over non-empty segments only (empty segments would
            # alias the next segment's first element); one reusable 1-D
            # buffer instead of a (num_perm, n_shingles) intermediate —
            # the 2-D version cost ~128 MB of fresh page faults per
            # worker on top of the slow broadcast
            seg_starts = starts[nonempty]
            vals = np.empty(h.size, dtype=np.uint64)
            with np.errstate(over="ignore"):
                for p in range(self.num_perm):
                    np.multiply(h, self.a[p], out=vals)
                    vals += self.b[p]
                    out[nonempty, p] = np.minimum.reduceat(vals, seg_starts)
        return out

    def signature(self, text: str) -> np.ndarray:
        return self.signature_batch([text])[0]

    @staticmethod
    def est_similarity(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float((sig_a == sig_b).mean())


class MinHashStage:
    """Actor stage: text → (band, bucket, doc_id[, signature]) rows.

    ``emit_sig=False`` drops the signature from the banded rows — the
    512-byte signature otherwise rides every one of the ``bands`` rows
    per doc, inflating the exchange ~8–16×.  Without signatures the
    bucket pairs are *candidates* to be verified by exact n-gram jaccard
    (:func:`verify_pairs_jaccard`), which is also the more precise
    filter."""

    def __init__(self, num_perm: int = 64, bands: int = 16, k: int = 3,
                 column: str = "text", key: str = "doc_id",
                 n_parts: int = 128, emit_sig: bool = True):
        assert num_perm % bands == 0
        self.mh = MinHasher(num_perm=num_perm, k=k)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.column = column
        self.key = key
        self.n_parts = n_parts
        self.emit_sig = emit_sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.column).to_pylist()
        keys = batch.column(self.key).cast(pa.string()).to_pylist()
        n = len(texts)
        sigs = self.mh.signature_batch(texts)          # (n, num_perm)
        # band buckets: FNV-style fold over each band's chunk, vectorized
        # across (docs × bands) in rows_per_band uint64 ops
        chunks = sigs.reshape(n, self.bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            bucket = np.full((n, self.bands), 1469598103934665603,
                             dtype=np.uint64)
            for j in range(self.rows_per_band):
                bucket = bucket * np.uint64(1099511628211) ^ chunks[:, :, j]
        out_key = np.repeat(np.arange(n), self.bands)
        # coarse co-partition key: shuffling on (band,bucket) directly makes
        # one Python map_groups call per fine bucket (tens of thousands);
        # hashing down to n_parts coarse groups keeps the exchange identical
        # in volume but bounds group calls, with fine grouping done
        # vectorized inside the group (same trick as referential.py)
        band_ids = np.tile(np.arange(self.bands, dtype=np.uint64), n)
        part = key_bucket([band_ids, bucket.ravel()], self.n_parts)
        arrays = [pa.array(part),
                  pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
                  pa.array(bucket.ravel()),
                  pa.array([keys[i] for i in out_key], pa.string())]
        names = ["part", "band", "bucket", "doc_id"]
        if self.emit_sig:
            sig_bytes = [sigs[i].tobytes() for i in range(n)]
            arrays.append(pa.array([sig_bytes[i] for i in out_key],
                                   pa.binary()))
            names.append("sig")
        return pa.Table.from_arrays(arrays, names=names)


# param-keyed (keys repeat across queries, unlike ObjectRef-keyed
# broadcast caches) but still bounded via the shared per-process LRU so
# a long driver session sweeping many parameterizations can't leak
# permutation tables
_STAGE_CACHE: dict = {}


def _minhash_stage_fn(batch: pa.Table, **params) -> pa.Table:
    from mdvalidate_ray.state.proc_cache import get_or_build

    key = ("mh",) + tuple(sorted(params.items()))
    return get_or_build(_STAGE_CACHE, key,
                        lambda: MinHashStage(**params), keep=4)(batch)


def _simhash_stage_fn(batch: pa.Table, **params) -> pa.Table:
    from mdvalidate_ray.state.proc_cache import get_or_build

    key = ("sh",) + tuple(sorted(params.items()))
    return get_or_build(_STAGE_CACHE, key,
                        lambda: SimHashStage(**params), keep=4)(batch)


def minhash_near_duplicates(ds, *, threshold: float = 0.8,
                            num_perm: int = 64, bands: int = 16, k: int = 3,
                            column: str = "text", key: str = "doc_id",
                            max_bucket: int = 5000, n_parts: int = 128,
                            verify: str = "signature", dedup: bool = True):
    """Near-dup pairs.

    ``verify="signature"``: today's single-stage contract — signatures ride
    the banded rows, pairs filtered by estimated jaccard ≥ threshold;
    output (doc_a, doc_b, est_jaccard).  ``verify="none"``: the lean
    exchange — no signatures shuffle (~8× smaller), every bucket-cohabiting
    pair is a candidate; output (doc_a, doc_b).  Pipe candidates through
    :func:`verify_pairs_jaccard` for the exact filter (the scale path)."""
    emit_sig = verify == "signature"
    # TASK-based banding: the stage is stateless given its seeded
    # constants (cached per worker process), so plain tasks scale to every
    # free CPU instead of capping at the actor-pool size
    import functools

    banded = ds.map_batches(
        functools.partial(_minhash_stage_fn, num_perm=num_perm,
                          bands=bands, k=k, column=column, key=key,
                          n_parts=n_parts, emit_sig=emit_sig),
        batch_format="pyarrow", zero_copy_batch=True)

    if emit_sig:
        pair_schema = pa.schema([("doc_a", pa.string()),
                                 ("doc_b", pa.string()),
                                 ("est_jaccard", pa.float64())])
    else:
        pair_schema = pa.schema([("doc_a", pa.string()),
                                 ("doc_b", pa.string())])

    def emit_pairs(part_group: pa.Table) -> pa.Table:
        """One coarse partition: sort to fine (band,bucket) runs, then
        size-class triu expansion (the cooccurrence_edges pattern) — no
        per-member Python loop, no per-pair set; in-partition pair dedup
        is a vectorized sort+mask distinct."""
        n = part_group.num_rows
        if n < 2:
            return pair_schema.empty_table()
        band = part_group.column("band").to_numpy(
            zero_copy_only=False).astype(np.int64)
        buck = part_group.column("bucket").to_numpy(
            zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((buck, band))
        band_s, buck_s = band[order], buck[order]
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = ((band_s[1:] != band_s[:-1])
                       | (buck_s[1:] != buck_s[:-1]))
        starts = np.flatnonzero(new_run)
        sizes = np.diff(np.append(starts, n))
        ids_s = np.asarray(part_group.column("doc_id").to_pylist(),
                           dtype=object)[order]
        a_parts, b_parts = [], []
        for sz in np.unique(sizes):
            if sz < 2 or sz > max_bucket:
                continue
            gsel = starts[sizes == sz]
            iu, ju = np.triu_indices(int(sz), k=1)
            a_parts.append((gsel[:, None] + iu[None, :]).ravel())
            b_parts.append((gsel[:, None] + ju[None, :]).ravel())
        if not a_parts:
            return pair_schema.empty_table()
        ai = np.concatenate(a_parts)
        bi = np.concatenate(b_parts)
        a_ids, b_ids = ids_s[ai], ids_s[bi]
        swap = a_ids > b_ids
        lo = np.where(swap, b_ids, a_ids)
        hi = np.where(swap, a_ids, b_ids)
        keep = lo != hi
        if emit_sig:
            sig_list = part_group.column("sig").to_pylist()
            raw = b"".join(sig_list[i] for i in order)
            sig_m = np.frombuffer(raw, dtype=np.uint64).reshape(n, -1)
            # chunk the (n_pairs × num_perm) gathers: a capped fine
            # bucket can still yield ~12.5M pairs, and materializing
            # both gather matrices at once would transiently cost
            # pairs×num_perm×8 B×2 (multi-GB) that the scoring never
            # needs to hold together
            est = np.empty(len(ai), dtype=np.float64)
            step = 1 << 20
            for s in range(0, len(ai), step):
                e = s + step
                est[s:e] = (sig_m[ai[s:e]] == sig_m[bi[s:e]]).mean(axis=1)
            keep &= est >= threshold
        if not keep.any():
            return pair_schema.empty_table()
        lo, hi = lo[keep], hi[keep]
        # in-partition distinct (same pair from several fine buckets):
        # lexsort + consecutive mask — est is signature-determined, so
        # duplicates carry identical est and keeping the first is exact
        p_order = np.lexsort((hi, lo))
        lo, hi = lo[p_order], hi[p_order]
        uniq = np.ones(len(lo), dtype=bool)
        uniq[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        cols = [pa.array(lo[uniq], pa.string()),
                pa.array(hi[uniq], pa.string())]
        if emit_sig:
            cols.append(pa.array(est[keep][p_order][uniq], pa.float64()))
        return pa.Table.from_arrays(cols, schema=pair_schema)

    pairs = banded.groupby("part").map_groups(emit_pairs,
                                              batch_format="pyarrow")

    if not dedup:
        # downstream verify_pairs_jaccard dedups on the driver — skip the
        # (doc_a, doc_b) exchange entirely
        return pairs

    # a pair can surface from several coarse partitions (different bands)
    # → distinct on (doc_a, doc_b).  ONE coarse exchange on the pair hash
    # + vectorized in-bucket sort+mask distinct (the similarity.py:470
    # pattern) — group calls bounded by the partition count, never one
    # Python call per distinct pair.
    def distinct_pairs(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("doc_a", "ascending"),
                                            ("doc_b", "ascending")])
        s = g.take(idx)
        a = np.asarray(s.column("doc_a").to_pylist(), dtype=object)
        c = np.asarray(s.column("doc_b").to_pylist(), dtype=object)
        uniq = np.ones(len(s), dtype=bool)
        if len(s):
            uniq[1:] = (a[1:] != a[:-1]) | (c[1:] != c[:-1])
        return s.filter(pa.array(uniq))

    return by_bucket(pairs, ["doc_a", "doc_b"], distinct_pairs, 64)


# --- SimHash ----------------------------------------------------------------

def _md5_token_hashes(tokens: list[str]) -> np.ndarray:
    """uint64 token hashes = lower 8 bytes of md5, little-endian — exactly
    DuckDB's ``md5_number_lower``, so a SQL oracle can recompute the same
    simhash.  Hashes are computed once per UNIQUE token (hashlib C code),
    then gathered — vocabulary ≪ token count in real corpora."""
    import hashlib

    uniq, inv = np.unique(np.asarray(tokens, dtype=object),
                          return_inverse=True)
    uh = np.fromiter(
        (int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
         for t in uniq),
        dtype=np.uint64, count=len(uniq))
    return uh[inv]


def simhash_batch(texts: list, hash_fn: str = "fast") -> np.ndarray:
    """(n,) uint64 simhashes — one hash call for the whole batch, per-doc
    bit-vote accumulation via ``np.add.reduceat``.

    ``hash_fn="fast"`` uses the vectorized SipHash-style family;
    ``hash_fn="md5"`` uses md5-lower-64 token hashes (slower, but
    bit-reproducible in SQL via ``md5_number_lower`` — the oracle mode)."""
    all_tokens: list[str] = []
    bounds = [0]
    for t in texts:
        all_tokens.extend((t or "").lower().split())
        bounds.append(len(all_tokens))
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if not all_tokens:
        return out
    hs = (_md5_token_hashes(all_tokens) if hash_fn == "md5"
          else hash_strings(all_tokens))
    # bit matrix via unpackbits, NOT a broadcast uint64 shift: numpy's
    # (n,64) uint64 >> broadcast takes ~30s per million tokens on this
    # build (non-SIMD inner loop); unpackbits on the little-endian byte
    # view is ~17x faster and bit-for-bit identical (column k = bit k).
    # Stay in uint8 — a ±1 int64 vote matrix costs a 64x-larger
    # allocation AND an int64 multiply (the other pathological op on
    # this build); counting set bits per segment and comparing 2*count
    # against the segment length is the same majority vote.
    bits = np.unpackbits(
        hs.view(np.uint8).reshape(-1, 8)[:, ::-1], axis=1,
        bitorder="big")[:, ::-1]              # (total_tokens, 64) uint8
    starts = np.asarray(bounds[:-1])
    seg_len = np.diff(bounds)
    nonempty = seg_len > 0
    if nonempty.any():
        ones = np.add.reduceat(bits, starts[nonempty], axis=0,
                               dtype=np.int32)
        sig_bits = (2 * ones) > seg_len[nonempty, None]
        # pack the majority bits back to uint64 (inverse of the unpack
        # above; packbits avoids the slow (n,64) uint64 weight multiply)
        packed = np.packbits(sig_bits[:, ::-1], axis=1,
                             bitorder="big")[:, ::-1]
        out[nonempty] = np.ascontiguousarray(packed).view(np.uint64)[:, 0]
    return out


class SimHashStage:
    def __init__(self, column: str = "text", key: str = "doc_id",
                 hash_fn: str = "fast"):
        self.column = column
        self.key = key
        self.hash_fn = hash_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.column).to_pylist()
        keys = batch.column(self.key).cast(pa.string()).to_pylist()
        n = len(texts)
        sims = simhash_batch(texts, self.hash_fn)      # (n,) uint64
        chunk_ids = np.tile(np.arange(4, dtype=np.int32), n)
        shifts = (chunk_ids.astype(np.uint64) * np.uint64(16))
        sims_rep = np.repeat(sims, 4)
        values = ((sims_rep >> shifts) & np.uint64(0xFFFF)).astype(np.int32)
        key_idx = np.repeat(np.arange(n), 4)
        return pa.Table.from_arrays(
            [pa.array(chunk_ids),
             pa.array(values),
             pa.array([keys[i] for i in key_idx], pa.string()),
             pa.array(sims_rep)],
            names=["chunk", "value", "doc_id", "simhash"])


def simhash_near_duplicates(ds, *, max_hamming: int = 3,
                            column: str = "text", key: str = "doc_id",
                            max_bucket: int = 5000, hash_fn: str = "fast"):
    """Pairs with hamming(simhash) ≤ max_hamming (pigeonhole banding).

    Recall is EXACT for ``max_hamming ≤ 3``: with 4×16-bit chunks, any
    pair within hamming 3 shares at least one whole chunk (pigeonhole),
    so it lands in a common bucket and exact hamming verification keeps
    it.  ``hash_fn="md5"`` makes the simhash itself reproducible in SQL."""
    import functools

    banded = ds.map_batches(
        functools.partial(_simhash_stage_fn, column=column, key=key,
                          hash_fn=hash_fn),
        batch_format="pyarrow", zero_copy_batch=True)

    pair_schema = pa.schema([("doc_a", pa.string()), ("doc_b", pa.string()),
                             ("hamming", pa.int32())])

    # ONE exchange on a coarse hash of the (chunk, value) bucket id, with
    # the per-(chunk,value) work vectorized inside: grouping by the raw
    # bucket id paid one Python map_groups call per DISTINCT 16-bit value
    # (hundreds of thousands of mostly-singleton calls at corpus scale —
    # measured as the whole query's bottleneck); here group calls are
    # bounded by n_parts and sub-bucket boundaries come from one sort +
    # shifted-array scan.  The inner pair loop touches only sub-buckets
    # with ≥2 members (actual near-dup candidates, rare by construction).
    n_parts = 16

    def emit_pairs(g: pa.Table) -> pa.Table:
        if len(g) < 2:
            return pair_schema.empty_table()
        idx = pc.sort_indices(g, sort_keys=[("chunk", "ascending"),
                                            ("value", "ascending"),
                                            ("doc_id", "ascending")])
        s = g.take(idx)
        chunk = s.column("chunk").to_numpy(zero_copy_only=False)
        val = s.column("value").to_numpy(zero_copy_only=False)
        ids = s.column("doc_id").to_pylist()
        sims = s.column("simhash").to_numpy(zero_copy_only=False)
        new = np.empty(len(s), dtype=bool)
        new[0] = True
        new[1:] = (chunk[1:] != chunk[:-1]) | (val[1:] != val[:-1])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(s))
        rows, seen = [], set()
        for st, en in zip(starts.tolist(), ends.tolist()):
            m = en - st
            if m < 2 or m > max_bucket:
                continue
            for i in range(st, en):
                for j in range(i + 1, en):
                    a, b = sorted((ids[i], ids[j]))
                    if a == b or (a, b) in seen:
                        continue
                    seen.add((a, b))
                    d = bin(int(sims[i]) ^ int(sims[j])).count("1")
                    if d <= max_hamming:
                        rows.append({"doc_a": a, "doc_b": b, "hamming": d})
        return pa.Table.from_pylist(rows, schema=pair_schema)

    pairs = by_bucket(banded, ["chunk", "value"], emit_pairs, n_parts)

    # cross-partition pair dedup (a pair can surface from ≤4 chunks →
    # up to 4 of the n_parts buckets): one more coarse exchange with a
    # vectorized in-bucket distinct, instead of a map_groups call per pair
    def distinct_pairs(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("doc_a", "ascending"),
                                            ("doc_b", "ascending")])
        s = g.take(idx)
        a = np.asarray(s.column("doc_a").to_pylist(), dtype=object)
        b = np.asarray(s.column("doc_b").to_pylist(), dtype=object)
        keep = np.empty(len(s), dtype=bool)
        if len(s):
            keep[0] = True
            keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return s.filter(pa.array(keep))

    return by_bucket(pairs, ["doc_a", "doc_b"], distinct_pairs, n_parts)


# --- n-gram Jaccard verification -------------------------------------------

def _verify_pairs_scored(pairs_ds, docs_ds, *, batch_scorer,
                         score_field: str, score_type,
                         keep_mask,
                         column: str = "text", key: str = "doc_id",
                         n_parts: int = 64):
    """Generic exact verification of candidate pairs against the corpus —
    the shared engine behind :func:`verify_pairs_jaccard` (n-gram Jaccard)
    and :func:`verify_pairs_levenshtein` (edit distance).  ``batch_scorer``
    receives two aligned lists of texts (one entry per pair) and returns a
    numpy score vector; ``keep_mask`` maps that vector to a boolean keep
    filter.  The corpus is never materialized on (or streamed through)
    the driver: a corpus-side filter (broadcast id set) selects the
    candidate texts DISTRIBUTED and materializes them once, in one corpus
    pass, and :func:`~mdvalidate_ray.tiers.plan_dataset` on that result
    picks one of two tiers:

    * within the tier budget: the candidate texts collect to the driver,
      which scores all pairs in ONE vectorized ``batch_scorer`` call —
      zero shuffles.
    * past it: fully-distributed —
      1. the candidate texts and the pair slots ((doc_id,
         pair_id, slot) — two rows per pair) meet in one
         :func:`~mdvalidate_ray.exchange.co_partition` on ``doc_id``;
         one vectorized ``index_in`` probe per coarse group attaches
         texts to slots;
      2. slot rows co-partition again on ``pair_id``; each
         pair's two slots meet and one ``batch_scorer`` call per coarse
         group (NOT per pair) scores and filters.
      Only candidate-sized data shuffles; group calls are bounded by
      ``n_parts`` per stage.

    Duplicate candidate pairs are deduped here (so upstream LSH emitters
    need not pay their own dedup exchange).

    A ``doc_id`` that occurs more than once in the corpus is scored by
    its lexicographically smallest text (a null text reads as ``""``,
    like a missing id).  The rule depends on no row or block order, so
    both tiers keep the same row without carrying an ordinal.
    """
    import ray.data

    out_schema = pa.schema([("doc_a", pa.string()), ("doc_b", pa.string()),
                            (score_field, score_type)])
    raw_rows = (pairs_ds.take_all() if hasattr(pairs_ds, "take_all")
                else pairs_ds.to_pylist())
    seen = set()
    pair_rows = []
    for r in raw_rows:
        t = (r["doc_a"], r["doc_b"])
        if t not in seen:
            seen.add(t)
            pair_rows.append(r)
    if not pair_rows:
        return out_schema.empty_table()
    wanted = frozenset(r["doc_a"] for r in pair_rows) | \
        frozenset(r["doc_b"] for r in pair_rows)

    wanted_arr = pa.array(sorted(wanted), pa.string())

    def keep(b: pa.Table) -> pa.Table:
        keys = b.column(key).cast(pa.string())
        kept = b.filter(pc.is_in(keys, value_set=wanted_arr))
        return pa.Table.from_arrays(
            [kept.column(key).cast(pa.string()),
             pc.fill_null(kept.column(column).cast(pa.string()), "")],
            names=["doc_id", "text"])

    texts = docs_ds.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
    if tiers.plan_dataset(texts) != "partitioned":
        text_of: dict = {}
        for r in texts.take_all():
            d, t = r["doc_id"], r["text"]
            if d not in text_of or t < text_of[d]:
                text_of[d] = t
        a_txt = [text_of.get(r["doc_a"], "") for r in pair_rows]
        b_txt = [text_of.get(r["doc_b"], "") for r in pair_rows]
        scores = np.asarray(batch_scorer(a_txt, b_txt))
        km = np.asarray(keep_mask(scores), dtype=bool)
        out = [{"doc_a": r["doc_a"], "doc_b": r["doc_b"],
                score_field: s.item()}
               for r, s, m in zip(pair_rows, scores, km) if m]
        out.sort(key=lambda r: (r["doc_a"], r["doc_b"]))
        return pa.Table.from_pylist(out, schema=out_schema)

    slots = pa.table({
        "doc_id": pa.array([d for r in pair_rows
                            for d in (r["doc_a"], r["doc_b"])], pa.string()),
        "pair_id": pa.array(np.repeat(np.arange(len(pair_rows)), 2)),
        "slot": pa.array(np.tile(np.array([0, 1], np.int8),
                                 len(pair_rows)))})

    def attach(texts_t: pa.Table, slots_t: pa.Table) -> pa.Table:
        # a doc's smallest text wins (index_in finds the first of the
        # sorted rows); a missing doc reads as ""
        texts_t = texts_t.sort_by("text")
        idx = pc.index_in(slots_t.column("doc_id"),
                          value_set=texts_t.column("doc_id")
                          .combine_chunks())
        return slots_t.append_column("text", pc.fill_null(
            texts_t.column("text").take(idx), ""))

    mid = co_partition(texts, ray.data.from_arrow(slots), attach, n_parts,
                       on="doc_id")

    def score(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        a_side = df[df["slot"] == 0].set_index("pair_id")
        b_side = df[df["slot"] == 1].set_index("pair_id")
        pids = sorted(set(a_side.index) | set(b_side.index))
        a_ids = [a_side["doc_id"].get(p, "") for p in pids]
        b_ids = [b_side["doc_id"].get(p, "") for p in pids]
        a_txt = [a_side["text"].get(p, "") or "" for p in pids]
        b_txt = [b_side["text"].get(p, "") or "" for p in pids]
        if not pids:
            return out_schema.empty_table()
        scores = np.asarray(batch_scorer(a_txt, b_txt))
        km = np.asarray(keep_mask(scores), dtype=bool)
        rows = [{"doc_a": ai, "doc_b": bi, score_field: s.item()}
                for ai, bi, s, m in zip(a_ids, b_ids, scores, km) if m]
        return pa.Table.from_pylist(rows, schema=out_schema)

    verified = by_bucket(mid, "pair_id", score, n_parts)
    out = verified.take_all()                  # final pairs: tiny
    out.sort(key=lambda r: (r["doc_a"], r["doc_b"]))
    return pa.Table.from_pylist(out, schema=out_schema)


def verify_pairs_jaccard(pairs_ds, docs_ds, *, k: int = 3,
                         threshold: float = 0.8,
                         column: str = "text", key: str = "doc_id",
                         n_parts: int = 64):
    """Exact n-gram Jaccard for candidate pairs — the MinHash/blocking
    verify tier.  A thin wrapper over :func:`_verify_pairs_scored` with a
    per-pair ``jaccard`` scorer (scale/tiering contract documented there).
    """
    def scorer(a_txt, b_txt):
        return np.array([jaccard(a, b, k) for a, b in zip(a_txt, b_txt)],
                        dtype=np.float64)

    return _verify_pairs_scored(
        pairs_ds, docs_ds, batch_scorer=scorer, score_field="jaccard",
        score_type=pa.float64(),
        keep_mask=lambda s: s >= threshold,
        column=column, key=key, n_parts=n_parts)


def _levenshtein_batch(a_texts, b_texts) -> np.ndarray:
    """Exact Levenshtein distances for P string pairs at once — ONE
    dynamic program vectorized across the pair axis (numpy), not a
    Python DP per pair.  Row recurrence: ``base[j] = min(prev[j]+1,
    prev[j-1]+cost)`` is elementwise; the in-row insertion dependency
    ``cur[j] = min(base[j], cur[j-1]+1)`` collapses to a prefix-min —
    ``cur[j] = j + running_min(base[k]-k)`` — so each of the ``max_len``
    DP rows is O(P×L) vectorized work with no inner Python loop.
    Unit costs over CODEPOINTS (the textbook definition); DuckDB's
    ``levenshtein()`` measures over UTF-8 bytes instead, so the two agree
    exactly on ASCII text (verified) and may differ on multibyte input.
    """
    P = len(a_texts)
    if P == 0:
        return np.zeros(0, dtype=np.int64)
    La = np.fromiter((len(t) for t in a_texts), dtype=np.int64, count=P)
    Lb = np.fromiter((len(t) for t in b_texts), dtype=np.int64, count=P)
    maxa, maxb = int(La.max()), int(Lb.max())
    res = np.full(P, -1, dtype=np.int64)
    res[La == 0] = Lb[La == 0]
    if maxa == 0:
        return res
    # pad into (P, max_len) uint32 codepoint grids; 0 = pad (never a char)
    A = np.zeros((P, maxa), dtype=np.uint32)
    B = np.zeros((P, maxb), dtype=np.uint32)
    for i, t in enumerate(a_texts):
        if t:
            A[i, :len(t)] = np.frombuffer(t.encode("utf-32-le"),
                                          dtype=np.uint32)
    for i, t in enumerate(b_texts):
        if t:
            B[i, :len(t)] = np.frombuffer(t.encode("utf-32-le"),
                                          dtype=np.uint32)
    j_idx = np.arange(maxb + 1, dtype=np.int64)
    prev = np.broadcast_to(j_idx, (P, maxb + 1)).copy()
    base = np.empty((P, maxb + 1), dtype=np.int64)
    for i in range(1, maxa + 1):
        cost = (B != A[:, i - 1:i]).astype(np.int64)
        base[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=base[:, 1:])
        m = base - j_idx
        np.minimum.accumulate(m, axis=1, out=m)
        cur = m + j_idx
        done = La == i
        if done.any():
            res[done] = cur[done, Lb[done]]
        prev, base = cur, prev
    return res


def verify_pairs_levenshtein(pairs_ds, docs_ds, *, max_dist: int = 10,
                             column: str = "text", key: str = "doc_id",
                             n_parts: int = 64):
    """Exact edit-distance verification of candidate pairs (keep
    ``levenshtein ≤ max_dist``) — same tiering contract as
    :func:`verify_pairs_jaccard`, with the pair-vectorized DP kernel
    :func:`_levenshtein_batch` as the scorer."""
    return _verify_pairs_scored(
        pairs_ds, docs_ds, batch_scorer=_levenshtein_batch,
        score_field="dist", score_type=pa.int64(),
        keep_mask=lambda s: s <= max_dist,
        column=column, key=key, n_parts=n_parts)


def _prefix_block_candidates(docs_ds, *, block_words: int = 5,
                             column: str = "text", key: str = "doc_id",
                             n_parts: int = 64, max_block: int = 1024):
    """Prefix-blocking candidate generation shared by the n-gram-Jaccard
    and edit-distance near-dup families: block on the first
    ``block_words`` lowercased words, emit every within-block (doc_a,
    doc_b) pair with ``doc_a < doc_b`` in numeric id order (matching the
    SQL oracles' ``a.doc_id < b.doc_id`` self-join).

    Scale shape: ``map_batches`` computes each doc's block key with Arrow
    kernels (trim → split_whitespace → slice → join); only tiny
    ``(blk, doc_id)`` rows take one coarse exchange on the block key, and each bucket emits its within-block
    candidate pairs via one vectorized ``np.triu_indices`` per block.
    Blocks larger than ``max_block`` docs are boilerplate-prefix hot
    keys: a 10^6-doc block would emit 10^12 pairs, so they are dropped
    (the standard blocking cap — MinHash banding is the right tool for
    that regime) and surfaced via the emitted table's metadata
    (``n_oversize_blocks``).  Returns a Dataset of candidate pairs.
    """
    pair_schema = pa.schema([("doc_a", pa.string()),
                             ("doc_b", pa.string())])

    def tag(b: pa.Table) -> pa.Table:
        txt = pc.cast(b.column(column), pa.string())
        # unicode whitespace split (offset arithmetic below needs the
        # empty-free token lists this kernel guarantees); diverges from
        # an RE2 '\s+' oracle only on NBSP-class whitespace, absent
        # from the contract corpus
        words = pc.utf8_split_whitespace(
            pc.utf8_trim_whitespace(pc.utf8_lower(txt)))
        blk = pc.binary_join(pc.list_slice(words, 0, block_words), " ")
        blk = pc.fill_null(blk, "")
        return pa.Table.from_arrays(
            [blk, pc.cast(b.column(key), pa.int64())],
            names=["blk", "doc_id"])

    def emit_pairs(g: pa.Table) -> pa.Table:
        df = g.select(["blk", "doc_id"]).to_pandas()
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        oversize = 0
        for _, grp in df.groupby("blk", sort=False):
            n = len(grp)
            if n < 2:
                continue
            if n > max_block:
                oversize += 1
                continue
            ids = np.sort(grp["doc_id"].to_numpy())
            ai, bi = np.triu_indices(n, k=1)
            out_a.append(ids[ai])
            out_b.append(ids[bi])
        if not out_a:
            return pair_schema.empty_table()
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        return pa.Table.from_arrays(
            [pc.cast(pa.array(a), pa.string()),
             pc.cast(pa.array(b), pa.string())],
            schema=pair_schema).replace_schema_metadata(
                {"n_oversize_blocks": str(oversize)})

    return by_bucket(docs_ds.map_batches(tag, batch_format="pyarrow",
                                         zero_copy_batch=True),
                     "blk", emit_pairs, n_parts)


def ngram_jaccard_near_duplicates(docs_ds, *, k: int = 3,
                                  block_words: int = 5,
                                  threshold: float = 0.6,
                                  column: str = "text", key: str = "doc_id",
                                  n_parts: int = 64,
                                  max_block: int = 1024) -> pa.Table:
    """Exact n-gram-Jaccard near-duplicate pairs under *prefix blocking* —
    the third classic near-dup family next to MinHash and SimHash:
    :func:`_prefix_block_candidates` (texts never shuffle corpus-wide)
    followed by :func:`verify_pairs_jaccard`, which attaches texts for
    CANDIDATES ONLY (broadcast id-set filter up to its driver-scoring
    cut-over, slot/text co-partition past it) and computes the exact score.
    """
    candidates = _prefix_block_candidates(
        docs_ds, block_words=block_words, column=column, key=key,
        n_parts=n_parts, max_block=max_block)
    return verify_pairs_jaccard(candidates, docs_ds, k=k,
                                threshold=threshold, column=column, key=key,
                                n_parts=n_parts)


def levenshtein_near_duplicates(docs_ds, *, block_words: int = 5,
                                max_dist: int = 10,
                                column: str = "text", key: str = "doc_id",
                                n_parts: int = 64,
                                max_block: int = 1024) -> pa.Table:
    """Edit-distance near-duplicate pairs — the fourth near-dup family:
    prefix blocking (:func:`_prefix_block_candidates`) followed by exact
    Levenshtein verification of the candidates, all pairs in a group
    scored by ONE pair-vectorized DP (:func:`_levenshtein_batch`).
    Keeps pairs with ``levenshtein(a, b) ≤ max_dist`` — the
    absolute-edit-budget criterion (DuckDB-``levenshtein()``-exact, so a
    SQL oracle can recompute the identical pair set).
    """
    candidates = _prefix_block_candidates(
        docs_ds, block_words=block_words, column=column, key=key,
        n_parts=n_parts, max_block=max_block)
    return verify_pairs_levenshtein(candidates, docs_ds, max_dist=max_dist,
                                    column=column, key=key, n_parts=n_parts)


def _word_kgram_hashes_all(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc word-k-gram md5-lower-64 hashes WITH multiplicity (one
    entry per window position), vectorized: one whitespace split
    (Arrow), one object-array join per gram position, md5 hashed once
    per UNIQUE gram string.  Returns ``(doc_idx, gram_hash)`` arrays in
    window order."""
    arr = pc.utf8_split_whitespace(
        pc.utf8_trim_whitespace(pc.utf8_lower(
            pc.cast(texts, pa.string()))))
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    flat = np.asarray(arr.values.to_pylist(), dtype=object)
    offs = np.asarray(arr.offsets)
    n_words = np.diff(offs)
    n_grams = np.maximum(n_words - (k - 1), 0)
    if int(n_grams.sum()) == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64))
    doc_idx = np.repeat(np.arange(len(n_grams), dtype=np.int64), n_grams)
    # start index of each gram in the flat word array
    starts = np.concatenate(
        [np.arange(offs[i], offs[i] + n_grams[i]) for i in
         range(len(n_grams)) if n_grams[i] > 0]).astype(np.int64)
    grams = flat[starts]
    for j in range(1, k):
        grams = grams + " "
        grams = grams + flat[starts + j]
    return doc_idx, _md5_token_hashes(list(grams))


def _word_kgram_hashes(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT word-k-gram md5-lower-64 hashes — the dedup
    view of :func:`_word_kgram_hashes_all`."""
    import pandas as pd

    doc_idx, hashes = _word_kgram_hashes_all(texts, k)
    if len(doc_idx) == 0:
        return doc_idx, hashes
    dedup = pd.DataFrame({"d": doc_idx, "h": hashes}).drop_duplicates()
    return (dedup["d"].to_numpy(), dedup["h"].to_numpy())


def ngram_decontamination(docs_ds, *, k: int = 13, key: str = "doc_id",
                          text_col: str = "text",
                          split_key: str | None = None,
                          train_bp: int = 9000, salt: str = "split"):
    """N-gram-level train/test decontamination — the GPT-3/C4 rule
    (Brown et al. 2020 report 13-gram overlap scrubbing): flag every
    TRAIN document sharing at least one word-``k``-gram with any TEST
    document, not just byte-identical texts
    (:func:`cross_split_exact_overlap`'s rule).

    Plan (broadcast tier): one pass computes each doc's deterministic
    split (same md5 rule as :func:`~mdvalidate_ray.functions.text
    .add_split`) and its DISTINCT k-gram md5-lower-64 hashes
    (:func:`_word_kgram_hashes`); the TEST side's distinct gram-hash set
    (eval sets ≪ corpus) folds to the driver as uint64 partials —
    bounded by the tier budget (:func:`~mdvalidate_ray.tiers.plan_tier`
    at 8 B per gram) — sorts once, and ships via
    ``ray.put``; a second streaming pass probes train batches with
    ``np.searchsorted`` and emits ``(doc_id, n_hits)`` for hits only.
    Train text never leaves the workers.  Past the budget it raises;
    co-partition both sides on the gram hash instead (the
    :func:`~mdvalidate_ray.functions.relational.copartition_antijoin`
    shape is the template).

    64-bit gram hashing note: matches are by md5-lower-64 equality, not
    string equality — a cross-gram collision would need ~2^32 distinct
    grams per the birthday bound; acceptable and deterministic.

    Returns a Dataset of (doc_id int64, n_hits int64) train rows.
    """
    import ray

    split_key = split_key or key
    out_schema = pa.schema([(key, pa.int64()), ("n_hits", pa.int64())])

    def test_grams(batch: pa.Table) -> pa.Table:
        sk = [salt + str(v) for v in batch.column(split_key).to_pylist()]
        is_train = (_md5_token_hashes(sk) % np.uint64(10000)
                    < np.uint64(train_bp))
        test_rows = batch.filter(pa.array(~is_train))
        _, h = _word_kgram_hashes(test_rows.column(text_col), k)
        return pa.Table.from_arrays(
            [pa.array(np.unique(h))], names=["h"])

    gram_sets = docs_ds.map_batches(test_grams, batch_format="pyarrow",
                                    zero_copy_batch=True)
    partials: list[np.ndarray] = []
    n_total = 0
    for b in gram_sets.iter_batches(batch_format="pyarrow"):
        a = np.asarray(b.column("h").combine_chunks(), dtype=np.uint64)
        n_total += len(a)
        if tiers.plan_tier(n_total, 8) == "partitioned":
            # bail while STREAMING, before the rest of the test side is
            # pulled into driver memory
            raise ValueError(
                f"test-side gram set exceeds the broadcast budget "
                f"({tiers.budget()} B); co-partition on gram_hash % "
                "n_parts for eval sets this large")
        partials.append(a)
    test_set = (np.unique(np.concatenate(partials)) if partials
                else np.zeros(0, dtype=np.uint64))
    set_ref = ray.put(test_set)

    def probe(batch: pa.Table) -> pa.Table:
        tset = ray.get(set_ref)
        sk = [salt + str(v) for v in batch.column(split_key).to_pylist()]
        is_train = (_md5_token_hashes(sk) % np.uint64(10000)
                    < np.uint64(train_bp))
        train_rows = batch.filter(pa.array(is_train))
        d, h = _word_kgram_hashes(train_rows.column(text_col), k)
        if len(tset) and len(h):
            pos = np.searchsorted(tset, h)
            pos[pos == len(tset)] = 0
            hit = tset[pos] == h
        else:
            hit = np.zeros(len(h), dtype=bool)
        ids = np.asarray(
            train_rows.column(key).cast(pa.int64()).combine_chunks(),
            dtype=np.int64)
        n_hits = np.bincount(d[hit], minlength=train_rows.num_rows) \
            .astype(np.int64)
        keep = n_hits > 0
        return pa.Table.from_arrays(
            [pa.array(ids[keep]), pa.array(n_hits[keep])],
            schema=out_schema)

    return docs_ds.map_batches(probe, batch_format="pyarrow",
                               zero_copy_batch=True)


def cross_split_exact_overlap(docs_ds, *, key: str = "doc_id",
                              text_col: str = "text",
                              split_key: str | None = None,
                              train_bp: int = 9000, salt: str = "split"):
    """Train/test contamination check: every (train_id, test_id) pair
    whose ``text_col`` is byte-identical across the split boundary —
    the decontamination primitive a training-data pipeline runs before
    every training job.

    Plan (broadcast tier): ONE pass tags each row with its deterministic
    split (md5 of ``salt || split_key``, same rule as
    :func:`~mdvalidate_ray.functions.text.add_split`) and md5 text
    fingerprint; the TEST side (the small side — eval sets are orders of
    magnitude smaller than the corpus) is collected as a fp → [test_id]
    map and broadcast via ``ray.put``; a second streaming probe emits
    matches from train-side batches.  Nothing train-side ever leaves the
    workers.  Past the tier budget (:func:`~mdvalidate_ray.tiers
    .plan_tier` at the tagged rows' mean width) it raises; co-partition
    both sides on ``fp`` instead (the
    :func:`~mdvalidate_ray.functions.relational.copartition_antijoin`
    shape is the template).

    Returns a Dataset of (train_id, test_id, fp) rows.
    """
    import hashlib

    import ray

    split_key = split_key or key
    out_schema = pa.schema([("train_id", pa.string()),
                            ("test_id", pa.string()),
                            ("fp", pa.string())])

    def tag(batch: pa.Table) -> pa.Table:
        ids = [str(v) for v in batch.column(key).to_pylist()]
        sk = [salt + str(v) for v in batch.column(split_key).to_pylist()]
        h = _md5_token_hashes(sk) % np.uint64(10000)
        fps = [hashlib.md5(t.encode() if t else b"").hexdigest()
               for t in batch.column(text_col).to_pylist()]
        return pa.Table.from_arrays(
            [pa.array(ids, pa.string()), pa.array(fps, pa.string()),
             pa.array(h < np.uint64(train_bp), pa.bool_())],
            names=[key, "fp", "is_train"])

    # materialize the tagged corpus ONCE: both the test-side collection
    # below and the returned train-side probe consume it, and an
    # un-materialized Dataset would re-execute the full md5 fingerprint
    # lineage for each consumer
    tagged = docs_ds.map_batches(tag, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    test_fp: dict = {}
    n_test = 0
    row_bytes = tagged.size_bytes() / max(tagged.count(), 1)
    for b in tagged.filter(expr="is_train == False").iter_batches(
            batch_format="pyarrow"):
        n_test += b.num_rows
        if tiers.plan_tier(n_test, row_bytes) == "partitioned":
            # bail while STREAMING, before the rest of the test side is
            # pulled into driver memory
            raise ValueError(
                f"test side exceeds the broadcast budget "
                f"({tiers.budget()} B); use a co-partitioned fp join "
                "(exchange.by_bucket on fp) for test sets this large")
        for i, f in zip(b.column(key).to_pylist(),
                        b.column("fp").to_pylist()):
            test_fp.setdefault(f, []).append(i)
    fp_ref = ray.put((test_fp, pa.array(list(test_fp), pa.string())))

    def probe(batch: pa.Table) -> pa.Table:
        lookup, fp_set = ray.get(fp_ref)
        train = batch.filter(batch.column("is_train"))
        # vectorized pre-filter: contamination is sparse, so the Python
        # pair-expansion loop must only ever see actual hits, not every
        # train row
        hits = train.filter(pc.is_in(train.column("fp"),
                                     value_set=fp_set))
        out_train, out_test, out_fp = [], [], []
        for i, f in zip(hits.column(key).to_pylist(),
                        hits.column("fp").to_pylist()):
            for t in lookup[f]:
                out_train.append(i)
                out_test.append(t)
                out_fp.append(f)
        return pa.Table.from_arrays(
            [pa.array(out_train, pa.string()),
             pa.array(out_test, pa.string()),
             pa.array(out_fp, pa.string())], schema=out_schema)

    return tagged.map_batches(probe, batch_format="pyarrow",
                              zero_copy_batch=True)


# --- connected components (cluster resolution over candidate pairs) ---------


def duplicate_group_edges(groups_ds, *, ids_col: str = "doc_ids"):
    """:func:`exact_duplicate_groups` output → star edges
    ``(src=min id, dst=member)`` per group, int64 node ids."""

    def to_edges(b: pa.Table) -> pa.Table:
        src, dst = [], []
        for ids in b.column(ids_col).to_pylist():
            nums = sorted(int(x) for x in ids)
            a = nums[0]
            for v in nums[1:]:
                src.append(a)
                dst.append(v)
        return pa.Table.from_arrays(
            [pa.array(src, pa.int64()), pa.array(dst, pa.int64())],
            names=["src", "dst"])

    return groups_ds.map_batches(to_edges, batch_format="pyarrow",
                                 zero_copy_batch=True)


_CC_G1 = np.uint64(0x9E3779B97F4A7C15)
_CC_G2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _cc_star_pass(edges, *, small: bool, n_parts: int):
    """One large-star (``small=False``) or small-star (``small=True``)
    round of the MapReduce connected-components algorithm (Kiveris et
    al., "Connected Components in MapReduce and Beyond", SoCC'14 —
    public algorithm): edge Dataset in, edge Dataset out, no node array
    anywhere.  Each pass symmetrizes, co-locates every node's full
    neighborhood with one coarse exchange on ``src``, and
    rewrites edges vectorized per bucket:

    * large-star at node u: ``m = min(Γ(u) ∪ {u})``; emit ``(v, m)`` for
      every neighbor ``v > u``;
    * small-star at node u: over the smaller neighbors ``S = {v ∈ Γ(u):
      v ≤ u}``, ``m = min(S ∪ {u})``; emit ``(v, m)`` for ``v ∈ S ∪ {u},
      v ≠ m`` (each undirected edge is processed at its larger endpoint).

    Alternating passes converge to star graphs in O(log² n) rounds with
    per-round cost linear in |E| — the shape that holds past the
    broadcast-label ceiling."""

    def sym(b: pa.Table) -> pa.Table:
        a = b.column("src").combine_chunks()
        c = b.column("dst").combine_chunks()
        return pa.Table.from_arrays(
            [pa.concat_arrays([a, c]), pa.concat_arrays([c, a])],
            names=["src", "dst"])

    out_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def per_bucket(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("src", "ascending"),
                                            ("dst", "ascending")])
        s = g.take(idx)
        src = s.column("src").to_numpy(zero_copy_only=False)
        dst = s.column("dst").to_numpy(zero_copy_only=False)
        if len(src) == 0:
            return out_schema.empty_table()
        new = np.empty(len(src), dtype=bool)
        new[0] = True
        new[1:] = src[1:] != src[:-1]
        run_id = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        if not small:
            # dst sorted ascending within each run → dst[starts] is the
            # neighborhood min; fold in u itself
            m_run = np.minimum(dst[starts], src[starts])
            mask = dst > src
            o_src = dst[mask]
            o_dst = m_run[run_id[mask]]
        else:
            mask = dst <= src
            rid_m = run_id[mask]
            dst_m = dst[mask]
            # first masked element per run = min of the ≤-neighbors
            runs_m, first = np.unique(rid_m, return_index=True)
            m_small = np.minimum(dst_m[first], src[starts][runs_m])
            # emit (v, m) for v in S, plus the (u, m) row per masked run
            m_of = np.full(run_id.max() + 1 if len(run_id) else 0, -1,
                           dtype=np.int64)
            m_of[runs_m] = m_small
            o_src = np.concatenate([dst_m, src[starts][runs_m]])
            o_dst = np.concatenate([m_of[rid_m], m_small])
        keep = o_src != o_dst
        o_src, o_dst = o_src[keep], o_dst[keep]
        if len(o_src):
            order = np.lexsort((o_dst, o_src))
            o_src, o_dst = o_src[order], o_dst[order]
            k2 = np.empty(len(o_src), dtype=bool)
            k2[0] = True
            k2[1:] = (o_src[1:] != o_src[:-1]) | (o_dst[1:] != o_dst[:-1])
            o_src, o_dst = o_src[k2], o_dst[k2]
        return pa.Table.from_arrays(
            [pa.array(o_src, pa.int64()), pa.array(o_dst, pa.int64())],
            schema=out_schema)

    return by_bucket(edges.map_batches(sym, batch_format="pyarrow",
                                       zero_copy_batch=True),
                     "src", per_bucket, n_parts)


def _cc_edge_signature(edges) -> tuple:
    """Order-independent fingerprint of an edge Dataset — (count,
    wrapping uint64 sum of per-edge hashes) folded from per-block
    partials; only two tiny numbers per block reach the driver."""

    def part(b: pa.Table) -> pa.Table:
        s = b.column("src").to_numpy(zero_copy_only=False).astype(
            np.uint64)
        d = b.column("dst").to_numpy(zero_copy_only=False).astype(
            np.uint64)
        h = (s * _CC_G1) ^ (d * _CC_G2)
        return pa.Table.from_arrays(
            [pa.array([len(s)], pa.int64()),
             pa.array([int(h.sum(dtype=np.uint64))], pa.uint64())],
            names=["cnt", "acc"])

    rows = edges.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    cnt = sum(r["cnt"] for r in rows)
    acc = sum(r["acc"] for r in rows) % (1 << 64)
    return (cnt, acc)


def _connected_components_starring(sym_edges, *, max_iter: int,
                                   n_parts: int) -> pa.Table:
    """Hash-partitioned tier of :func:`connected_components` — no
    driver-resident node/label arrays at any point during the rounds;
    the only full-size structure is the final (node, component) result,
    which is the function's return contract (at true scale, stop before
    the collect and ``write_parquet`` the star-edge Dataset instead)."""
    cur = sym_edges
    prev_sig = None
    for _ in range(max_iter):
        cur = _cc_star_pass(cur, small=False, n_parts=n_parts)
        cur = _cc_star_pass(cur, small=True,
                            n_parts=n_parts).materialize()
        sig = _cc_edge_signature(cur)
        if sig == prev_sig:
            break
        prev_sig = sig
    rows = cur.take_all()                  # star edges: (node → root)
    label = {int(r["src"]): int(r["dst"]) for r in rows}
    comp_nodes = list(label.items())
    roots = {v for v in label.values()}
    comp_nodes.extend((r, r) for r in roots if r not in label)
    # self-loop-only nodes vanish from star passes but are part of the
    # contract (they label themselves)
    selfs = sym_edges.map_batches(
        lambda b: b.filter(pc.equal(b.column("src"), b.column("dst")))
                   .select(["src"]),
        batch_format="pyarrow").take_all()
    seen = set(label) | roots
    self_nodes = {int(r["src"]) for r in selfs} - seen
    comp_nodes.extend((n, n) for n in self_nodes)
    comp_nodes.sort()
    return pa.Table.from_arrays(
        [pa.array([n for n, _ in comp_nodes], pa.int64()),
         pa.array([c for _, c in comp_nodes], pa.int64())],
        names=["node", "component"])


def connected_components(edges_ds, *, col_a: str = "src",
                         col_b: str = "dst", max_iter: int = 50,
                         n_parts: int = 64) -> pa.Table:
    """Components of the candidate-pair graph → ``(node, component)``
    table, ``component`` = smallest node id reachable — the cluster
    resolution step after pair generation (exact / MinHash / SimHash /
    embedding pairs all feed it), so a dedup pipeline can keep one
    representative per cluster even when duplicates chain A~B~C without
    A~C ever being emitted as a pair.

    Distributed min-label propagation with driver-side pointer jumping:

    * edges symmetrize once (``map_batches``) and materialize — re-read
      every round from the object store, never re-shuffled;
    * per round, current labels broadcast via ``ray.put`` as one sorted
      (nodes, labels) numpy pair; one vectorized pass over edge blocks
      emits per-block ``(dst, min label[src])`` partials; a coarse
      exchange on ``dst`` min-folds them (group calls
      bounded by ``n_parts``) so at most |nodes| rows reach the driver;
    * the driver merges (``np.minimum``) and pointer-jumps
      (``label ← label[label]``), making chain convergence O(log
      diameter) rounds instead of O(diameter);
    * stops when a round changes no label.

    Tiering (three, :func:`~mdvalidate_ray.tiers.plan_tier` on the
    symmetrized edges at 16 B each):

    * ``local`` — the whole edge set is SMALLER than one
      label broadcast would be, so per-round Dataset launches are pure
      overhead (measured: they dominate wall time on small pair sets);
      collect the (src, dst) arrays once and run the identical min-fold
      + pointer-jump rounds in-process.
    * ``broadcast`` — the distributed broadcast-label path
      above; assumes nodes APPEARING IN PAIRS — the dedup candidate
      set, not the corpus — fit in driver memory at 16 bytes each
      (~10⁸–10⁹ on a 128-GiB driver).
    * ``partitioned`` — the fully hash-partitioned large-star/small-star tier
      (:func:`_connected_components_starring`): edge-Dataset rounds,
      O(log² n) convergence, nothing node-sized on the driver until the
      final result table."""
    import ray

    def sym(b: pa.Table) -> pa.Table:
        a = b.column(col_a).cast(pa.int64())
        c = b.column(col_b).cast(pa.int64())
        return pa.Table.from_arrays(
            [pa.concat_arrays([a.combine_chunks(), c.combine_chunks()]),
             pa.concat_arrays([c.combine_chunks(), a.combine_chunks()])],
            names=["src", "dst"])

    edges = edges_ds.map_batches(sym, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    tier = tiers.plan_tier(edges.count(), 16)
    if tier == "partitioned":
        return _connected_components_starring(edges, max_iter=max_iter,
                                              n_parts=n_parts)
    if tier == "local":
        tbls = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        if not tbls:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["node", "component"])
        et = pa.concat_tables(tbls).combine_chunks()
        src = np.asarray(et.column("src"), dtype=np.int64)
        dst = np.asarray(et.column("dst"), dtype=np.int64)
        nodes = np.unique(src)
        labels = nodes.copy()
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        for _ in range(max_iter):
            new = labels.copy()
            np.minimum.at(new, di, labels[si])
            new = new[np.searchsorted(nodes, new)]
            if np.array_equal(new, labels):
                break
            labels = new
        return pa.Table.from_arrays(
            [pa.array(nodes, pa.int64()), pa.array(labels, pa.int64())],
            names=["node", "component"])

    def block_nodes(b: pa.Table) -> pa.Table:
        u = np.unique(np.asarray(b.column("src").to_pandas()))
        return pa.Table.from_arrays([pa.array(u, pa.int64())],
                                    names=["node"])

    node_parts = edges.map_batches(block_nodes, batch_format="pyarrow",
                                   zero_copy_batch=True).take_all()
    if not node_parts:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["node", "component"])
    nodes = np.unique(np.concatenate(
        [np.asarray([r["node"] for r in node_parts], dtype=np.int64)]))
    labels = nodes.copy()

    def min_fold(dst: np.ndarray, cand: np.ndarray):
        u, inv = np.unique(dst, return_inverse=True)
        m = np.full(len(u), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(m, inv, cand)
        return u, m

    out_schema = pa.schema([("dst", pa.int64()), ("cand", pa.int64())])

    for _ in range(max_iter):
        ref = ray.put((nodes, labels))

        def probe(b: pa.Table) -> pa.Table:
            nd, lb = ray.get(ref)
            src = np.asarray(b.column("src").to_pandas())
            dst = np.asarray(b.column("dst").to_pandas())
            cand = lb[np.searchsorted(nd, src)]
            u, m = min_fold(dst, cand)
            return pa.Table.from_arrays(
                [pa.array(u, pa.int64()), pa.array(m, pa.int64())],
                schema=out_schema)

        def reduce_bucket(g: pa.Table) -> pa.Table:
            u, m = min_fold(np.asarray(g.column("dst").to_pandas()),
                            np.asarray(g.column("cand").to_pandas()))
            return pa.Table.from_arrays(
                [pa.array(u, pa.int64()), pa.array(m, pa.int64())],
                schema=out_schema)

        folded = by_bucket(edges.map_batches(probe, batch_format="pyarrow",
                                             zero_copy_batch=True),
                           "dst", reduce_bucket, n_parts).take_all()
        new = labels.copy()
        if folded:
            dsts = np.asarray([r["dst"] for r in folded], dtype=np.int64)
            cands = np.asarray([r["cand"] for r in folded], dtype=np.int64)
            idx = np.searchsorted(nodes, dsts)
            np.minimum.at(new, idx, cands)
        # pointer jumping: labels are always node ids, so one gather
        # halves every chain
        new = new[np.searchsorted(nodes, new)]
        if np.array_equal(new, labels):
            break
        labels = new

    return pa.Table.from_arrays(
        [pa.array(nodes, pa.int64()), pa.array(labels, pa.int64())],
        names=["node", "component"])


def purge_exact_duplicates(ds, column: str = "text", key: str = "doc_id",
                           *, n_parts: int = 64):
    """End-to-end exact dedup: the corpus minus every non-representative
    duplicate (keep = smallest numeric ``key`` per byte-identical group).

    Scale shape, TIERED on the drop-set size
    (:func:`exact_duplicate_groups` bounds it to DUPLICATED documents
    only — a tiny fraction of any real corpus):

    * within the tier budget (:func:`~mdvalidate_ray.tiers.plan_tier`
      at 8 B per drop key) — the drop set broadcasts via
      ``ray.put`` into a streaming ``map_batches`` filter; the corpus
      is never shuffled or materialized.
    * past it (a corpus whose duplicate set alone exceeds worker
      memory) — the drop keys NEVER fold: one
      :func:`~mdvalidate_ray.functions.relational.copartition_antijoin`
      exchange filters the corpus against the drop-key Dataset.  Both
      tiers bit-equal (test_purge_forced_copartition_tier)."""
    import ray

    drops_ds = duplicate_group_edges(
        exact_duplicate_groups(ds, column, key)).map_batches(
        lambda b: pa.table({"dst": b.column("dst")}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    if tiers.plan_tier(drops_ds.count(), 8) == "partitioned":
        from mdvalidate_ray.functions.relational import (
            copartition_antijoin)

        return copartition_antijoin(ds, drops_ds, key=key,
                                    keys_col="dst", n_parts=n_parts)

    drop: list[int] = []
    for row in drops_ds.take_all():
        drop.append(int(row["dst"]))          # dst = non-min members
    drop_ref = ray.put(np.asarray(sorted(drop), dtype=np.int64))

    def keep(b: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        if len(d) == 0:
            return b
        ids = np.asarray(b.column(key).to_pandas(), dtype=np.int64)
        pos = np.searchsorted(d, ids)
        hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids)
        return b.filter(pa.array(~hit))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def trigram_posting_pairs(docs_ds, *, min_shared: int = 12,
                          max_posting: int = 64,
                          column: str = "text", key: str = "doc_id",
                          n_parts: int = 64):
    """Trigram-posting candidate join (pg_trgm-style CONTENT blocking —
    the third blocking mechanism next to prefix blocks and LSH bands):
    every doc pair sharing ≥ ``min_shared`` DISTINCT character 3-grams
    of ``lower(text)``.  Exact by construction (integer shared-gram
    counts), so a SQL oracle recomputes the identical pair set.

    Scale shape: per-batch distinct (gram, doc) posting rows co-partition
    on the gram (gram STRINGS ship — 3 chars — so parity
    is exact, no hash-collision caveat); per part, grams with posting
    lists longer than ``max_posting`` are dropped (stop-gram cap — the
    boilerplate-block guard that keeps pair fan-out O(Σ s²) bounded),
    within-gram pairs expand VECTORIZED per posting-size class (bounded
    loop over ≤ ``max_posting`` distinct sizes, one triu broadcast per
    class), per-part shared-counts pre-combine, and one fused-int
    pair-keyed exchange folds the final counts.
    """
    from mdvalidate_ray.functions.relational import bucketed_group_sum

    def postings(b: pa.Table) -> pa.Table:
        texts = [(t or "").lower()
                 for t in b.column(column).to_pylist()]
        ids = np.asarray(b.column(key).to_pandas(), dtype=np.int64)
        gs, ds_ = [], []
        for i, t in enumerate(texts):
            grams = {t[j:j + 3] for j in range(len(t) - 2)}
            gs.extend(grams)
            ds_.extend([ids[i]] * len(grams))
        return pa.Table.from_arrays(
            [pa.array(gs, pa.string()),
             pa.array(np.asarray(ds_, dtype=np.int64))],
            names=["gram", "doc"])

    _TRIU = {}

    def pair_partials(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.select(["gram", "doc"]).to_pandas()
        sizes = df.groupby("gram")["doc"].transform("size")
        df = df[sizes <= max_posting]
        if df.empty:
            return pa.Table.from_pydict(
                {"pair": pa.array([], pa.int64()),
                 "shared": pa.array([], pa.int64())})
        df = df.sort_values(["gram", "doc"], kind="stable")
        docs = df["doc"].to_numpy()
        codes, counts = np.unique(df["gram"].to_numpy(),
                                  return_counts=True)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pair_keys = []
        # bounded loop over distinct posting SIZES, vectorized per class
        for s in np.unique(counts):
            if s < 2:
                continue
            s = int(s)
            if s not in _TRIU:
                _TRIU[s] = np.triu_indices(s, k=1)
            ti, tj = _TRIU[s]
            st = starts[counts == s]                  # groups of size s
            rows = docs[st[:, None] + np.arange(s)]   # (n_groups, s)
            a = rows[:, ti].reshape(-1)
            bb = rows[:, tj].reshape(-1)
            lo = np.minimum(a, bb)
            hi = np.maximum(a, bb)
            pair_keys.append(lo * np.int64(2**32) + hi)
        if not pair_keys:
            return pa.Table.from_pydict(
                {"pair": pa.array([], pa.int64()),
                 "shared": pa.array([], pa.int64())})
        fused = np.concatenate(pair_keys)
        uk, cnt = np.unique(fused, return_counts=True)
        return pa.Table.from_pydict(
            {"pair": pa.array(uk), "shared": pa.array(
                cnt.astype(np.int64))})

    partials = by_bucket(docs_ds.map_batches(
        postings, batch_format="pyarrow", zero_copy_batch=True),
        "gram", pair_partials, n_parts).select_columns(["pair", "shared"])
    folded = bucketed_group_sum(partials, key="pair",
                                sum_cols=["shared"], n_parts=n_parts)

    def finish(b: pa.Table) -> pa.Table:
        keep = b.filter(pc.greater_equal(b.column("shared"),
                                         min_shared))
        pair = np.asarray(keep.column("pair").to_pandas(),
                          dtype=np.int64)
        return pa.Table.from_arrays(
            [pa.array(pair // np.int64(2**32)),
             pa.array(pair % np.int64(2**32)),
             keep.column("shared").cast(pa.int64())],
            names=["doc_a", "doc_b", "shared"])

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def window_dup_stats(docs_ds, *, k: int = 5, key: str = "doc_id",
                     text_col: str = "text", min_df: int = 2,
                     n_parts: int = 32):
    """Per-document duplicated-window statistics — the EXACT-substring
    dedup signal of Lee et al. 2021 ("Deduplicating Training Data Makes
    Language Models Better"): for every document, how many of its
    word-``k``-token windows also occur in at least ``min_df - 1`` OTHER
    documents.  Pipelines drop or trim documents whose ``dup_bp``
    (duplicated-window fraction, basis points) exceeds a budget — the
    finer-grained sibling of whole-document exact dedup
    (:func:`exact_duplicate_groups`) and of corpus-level gram mining
    (``queries.boilerplate_grams``), which reports hot grams rather than
    per-document exposure.

    Plan: ONE corpus pass computes per-doc per-window-hash counts
    (:func:`_word_kgram_hashes_all` + an in-batch (doc, hash) combine,
    so a window repeated inside one doc contributes one ROW with its
    multiplicity); each doc lives in exactly one batch, so the partial
    rows are globally unique per (doc, hash) and the cross-doc window
    document-frequency is an exact :func:`bucketed_group_sum` of ones
    over the hash.  Windows with ``df >= min_df`` (computed over
    DISTINCT documents) form the duplicated set; the per-doc fold then
    runs in one of two tiers:

    * **broadcast** — the duplicated-hash set folds to the driver
      (STREAMING, bailing to the co-partition tier the moment
      :func:`~mdvalidate_ray.tiers.plan_tier` at 8 B per hash says
      ``partitioned``), sorts once, ships via
      ``ray.put``, and a vectorized ``np.searchsorted`` probe over the
      partial rows emits per-doc (n_windows, n_dup) partials.
    * **copartition** — no driver set at all: the duplicated-hash
      table and the partial rows meet in one
      :func:`~mdvalidate_ray.exchange.co_partition` on the hash, and
      each bucket marks
      its partial rows against its slice of the duplicated set with one
      ``np.searchsorted`` — group calls bounded by ``n_parts``, hot
      window hashes cost nothing extra.

    Both tiers finish with one ``bucketed_group_sum`` over the doc key
    (exact, skew-proof).  Matching is by md5-lower-64 window hash —
    deterministic, and a cross-gram collision needs ~2^32 distinct
    windows per the birthday bound (same contract as
    :func:`ngram_decontamination`).

    Returns a Dataset of ``(key, n_windows, n_dup, dup_bp)`` rows, one
    per document with at least one window; ``dup_bp = 10000 * n_dup //
    n_windows``.

    Reference semantics anchor: the reference validates single
    documents (/root/reference/src/validator.rs); corpus-level
    duplicate-span detection is part of this engine's training-data
    surface (SURVEY.md §2 extensions).
    """
    import pandas as pd
    import ray

    from mdvalidate_ray.functions.relational import bucketed_group_sum

    part_schema = pa.schema([(key, pa.int64()), ("h", pa.uint64()),
                             ("cnt", pa.int64()), ("df", pa.int64())])

    def window_partial(b: pa.Table) -> pa.Table:
        ids = b.column(key).to_numpy(zero_copy_only=False)
        doc_idx, h = _word_kgram_hashes_all(b.column(text_col), k)
        if len(doc_idx) == 0:
            return part_schema.empty_table()
        g = (pd.DataFrame({"d": ids[doc_idx], "h": h})
             .groupby(["d", "h"], sort=False).size().reset_index(name="c"))
        return pa.Table.from_arrays(
            [pa.array(g["d"].to_numpy(np.int64)),
             pa.array(g["h"].to_numpy(np.uint64)),
             pa.array(g["c"].to_numpy(np.int64)),
             pa.array(np.ones(len(g), dtype=np.int64))],
            names=[key, "h", "cnt", "df"])

    partials = docs_ds.map_batches(
        window_partial, batch_format="pyarrow",
        zero_copy_batch=True).materialize()  # consumed by df fold + probe

    dup_tbl = bucketed_group_sum(
        partials.select_columns(["h", "df"]), key="h", sum_cols=["df"],
        n_parts=n_parts).filter(expr=f"df >= {min_df}")

    dup_set: np.ndarray | None = None
    chunks: list[np.ndarray] = []
    n_total = 0
    for b in dup_tbl.iter_batches(batch_format="pyarrow"):
        a = np.asarray(b.column("h").combine_chunks(), dtype=np.uint64)
        n_total += len(a)
        if tiers.plan_tier(n_total, 8) == "partitioned":
            break
        chunks.append(a)
    else:
        dup_set = (np.sort(np.concatenate(chunks)) if chunks
                   else np.zeros(0, dtype=np.uint64))

    out_schema = pa.schema([(key, pa.int64()), ("n_windows", pa.int64()),
                            ("n_dup", pa.int64())])

    if dup_set is not None:
        set_ref = ray.put(dup_set)

        def probe(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return out_schema.empty_table()
            ds_arr = ray.get(set_ref)
            h = b.column("h").to_numpy(zero_copy_only=False)
            cnt = b.column("cnt").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(ds_arr, h)
            hit = (pos < len(ds_arr)) & (ds_arr[np.minimum(
                pos, max(len(ds_arr) - 1, 0))] == h) \
                if len(ds_arr) else np.zeros(len(h), dtype=bool)
            g = (pd.DataFrame({"d": b.column(key).to_numpy(
                zero_copy_only=False), "n": cnt,
                "dup": np.where(hit, cnt, 0)})
                .groupby("d", sort=False).sum().reset_index())
            return pa.Table.from_arrays(
                [pa.array(g["d"].to_numpy(np.int64)),
                 pa.array(g["n"].to_numpy(np.int64)),
                 pa.array(g["dup"].to_numpy(np.int64))],
                names=[key, "n_windows", "n_dup"])

        marked = partials.map_batches(probe, batch_format="pyarrow",
                                      zero_copy_batch=True)
    else:
        def per_bucket(dup: pa.Table, rows: pa.Table) -> pa.Table:
            if rows.num_rows == 0:
                return out_schema.empty_table()
            dup_h = np.sort(dup.column("h").to_numpy(zero_copy_only=False))
            hr = rows.column("h").to_numpy(zero_copy_only=False)
            cnt = rows.column("cnt").to_numpy(zero_copy_only=False)
            if len(dup_h):
                pos = np.searchsorted(dup_h, hr)
                hit = (pos < len(dup_h)) & (dup_h[np.minimum(
                    pos, len(dup_h) - 1)] == hr)
            else:
                hit = np.zeros(len(hr), dtype=bool)
            gg = (pd.DataFrame({"d": rows.column(key).to_numpy(
                zero_copy_only=False), "n": cnt,
                "dup": np.where(hit, cnt, 0)})
                .groupby("d", sort=False).sum().reset_index())
            return pa.Table.from_arrays(
                [pa.array(gg["d"].to_numpy(np.int64)),
                 pa.array(gg["n"].to_numpy(np.int64)),
                 pa.array(gg["dup"].to_numpy(np.int64))],
                names=[key, "n_windows", "n_dup"])

        marked = co_partition(
            dup_tbl, partials.select_columns([key, "h", "cnt"]),
            per_bucket, n_parts, on="h",
            left_schema=pa.schema([("h", pa.uint64()), ("df", pa.int64())]))

    folded = bucketed_group_sum(marked, key=key,
                                sum_cols=["n_windows", "n_dup"],
                                n_parts=n_parts)

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_windows").to_numpy(zero_copy_only=False)
        d = b.column("n_dup").to_numpy(zero_copy_only=False)
        return b.append_column(
            "dup_bp", pa.array(10000 * d // np.maximum(n, 1)))

    return folded.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


# --- cross-corpus segment dedup (C4 / MassiveText line dedup) ---------------

def corpus_segment_dedup(ds, *, key: str = "doc_id", column: str = "text",
                         seg_words: int = 10, n_parts: int = 64,
                         gear_mod: int | None = None):
    """C4-style CROSS-CORPUS segment-level dedup with document
    reassembly: split every document into consecutive ``seg_words``-word
    segments, keep each distinct segment text only at its FIRST corpus
    occurrence (min ``(doc_id, seg_idx)``), and rebuild every surviving
    document from its kept segments in order — the "remove duplicated
    lines across the corpus" curation step (C4's three-sentence-span
    rule, MassiveText's repeated-passage filter) for single-line docs.

    Output: ``(doc_id, clean_text, n_kept)`` — docs whose every segment
    was claimed earlier disappear entirely (fully-boilerplate docs).

    Plan (two coarse exchanges, no per-segment Python):

    1. **segmentation** is one vectorized pass per batch:
       ``pc.split_pattern`` → flat word buffer + list offsets; segment
       boundaries are ``row_start + seg_words·j`` (numpy arithmetic on
       the offsets), wrapped back into a ``ListArray`` VIEW over the
       same flat buffer; one ``pc.binary_join`` emits all segment
       strings — zero Python loops, zero word copies until the join.
    2. **keep-first** is ONE exchange of (seg_text, doc, idx)
       rows on ``seg_text``; inside each bucket one
       sort by (seg_text, packed_pos) + change-point mask keeps the
       first row of every segment run (exact text compare — the hash
       only routes).
    3. **reassembly** reuses :func:`window.grouped_string_agg`'s
       change-point + ListArray + ``binary_join`` pass (one exchange on
       ``hash(doc_id)``).

    Partitioning assumptions: a bucket's segments fit one worker's heap
    (size ``n_parts ≈ total_segments / 5M``), and ``seg_idx < 2^20``
    (docs under ~10M words) so (doc, idx) packs into one int64 sort key.
    At 100 TB the exchange carries each segment's text once — the same
    payload class as the exact-dedup hash exchange, and the price of
    exact (not fingerprint) first-occurrence semantics.

    ``gear_mod`` switches segmentation from fixed-width to
    CONTENT-DEFINED (the CDC idea of LBFS, Muthitacharoen et al. SOSP
    2001, at word granularity): a segment ends after every "gear word"
    — one whose DuckDB-parity hash satisfies ``md5_lower64(word) %
    gear_mod == 0`` — so expected length is ``gear_mod`` words but
    boundary POSITIONS are functions of the text itself.  An insertion
    therefore perturbs only its own segment and resynchronizes at the
    next gear word, where fixed-width segmentation shifts every
    downstream boundary and loses all alignment — the property that
    makes CDC the storage/backup dedup standard.  Everything
    downstream (keep-first exchange, reassembly) is identical."""
    from mdvalidate_ray.functions.window import grouped_string_agg

    def segment(b: pa.Table) -> pa.Table:
        col = pc.fill_null(pc.cast(b.column(column), pa.string()), "")
        words = pc.split_pattern(col, " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        offs = words.offsets.to_numpy()
        flat = words.values
        wc = np.diff(offs)                       # ≥1 per row (''→[''])
        if gear_mod is None:
            nsegs = (wc + seg_words - 1) // seg_words
            row_of_seg = np.repeat(np.arange(len(wc)), nsegs)
            first_seg = np.cumsum(nsegs) - nsegs
            seg_idx = np.arange(int(nsegs.sum())) - first_seg[row_of_seg]
            starts = offs[row_of_seg] + seg_idx * seg_words
        else:
            n_words = int(offs[-1]) - int(offs[0])
            base = int(offs[0])
            # hash only the window offs[0]..offs[-1] so the boolean
            # masks below stay index-aligned even on a sliced child
            wh = (_md5_token_hashes(
                flat.slice(base, n_words).to_pylist())
                if n_words else np.zeros(0, dtype=np.uint64))
            gear = (wh % np.uint64(gear_mod)) == 0
            row_start = np.zeros(n_words, dtype=bool)
            row_start[offs[:-1] - base] = True
            after_gear = np.zeros(n_words, dtype=bool)
            after_gear[1:] = gear[:-1]
            starts = np.flatnonzero(row_start | after_gear) + base
            row_of_seg = np.searchsorted(offs, starts, side="right") - 1
            nsegs = np.bincount(row_of_seg, minlength=len(wc))
            first_seg = np.cumsum(nsegs) - nsegs
            seg_idx = np.arange(len(starts)) - first_seg[row_of_seg]
        seg_list = pa.ListArray.from_arrays(
            pa.array(np.append(starts, offs[-1]), pa.int32()), flat)
        seg_text = pc.binary_join(seg_list, " ")
        doc = b.column(key).take(pa.array(row_of_seg)).cast(pa.int64())
        return pa.Table.from_arrays(
            [doc, pa.array(seg_idx, pa.int64()), seg_text],
            names=[key, "seg_idx", "seg_text"])

    segs = ds.map_batches(segment, batch_format="pyarrow",
                          zero_copy_batch=True)

    def keep_first(g: pa.Table) -> pa.Table:
        pos = pc.add(pc.multiply(g.column(key), 1 << 20),
                     g.column("seg_idx"))
        g = g.append_column("_pos", pos)
        s = g.take(pc.sort_indices(
            g, sort_keys=[("seg_text", "ascending"),
                          ("_pos", "ascending")]))
        txt = s.column("seg_text")
        first = np.ones(s.num_rows, dtype=bool)
        if s.num_rows > 1:
            first[1:] = ~pc.equal(txt.slice(1), txt.slice(
                0, len(txt) - 1)).to_numpy(zero_copy_only=False)
        return s.filter(pa.array(first)).drop_columns(["_pos"])

    kept = by_bucket(segs, "seg_text", keep_first, n_parts)
    out = grouped_string_agg(kept, key=key, value_col="seg_text",
                             sep=" ", order_cols=["seg_idx"],
                             n_parts=n_parts // 2 or 1)
    return out.map_batches(
        lambda b: pa.Table.from_arrays(
            [b.column(key), b.column("agg"), b.column("n_items")],
            names=[key, "clean_text", "n_kept"]),
        batch_format="pyarrow")
