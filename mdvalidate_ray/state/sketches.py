"""Mergeable sketches for the wide constraints (north-star stages with no
reference analog — the reference is a single-document engine, SURVEY.md §2.4).

All three sketches are:

* **vectorized** — numpy over batch-sized arrays, hashes from
  ``pandas.util.hash_array`` (SipHash with a fixed key: deterministic across
  processes and machines, which plain ``hash()`` is not);
* **mergeable** — associative+commutative merge, so per-batch partials can be
  combined in any order (driver fold or tree-reduce) without affecting the
  result;
* **compact** — KiB-scale serialized state, cheap to ship through the object
  store from every batch.

Public fns: HyperLogLog (doc_id uniqueness pre-check), BloomFilter
(referential-integrity broadcast probe), KLLSketch (distribution-drift
quantiles).
"""

from __future__ import annotations

import numpy as np
from pandas.util import hash_array


def hash_strings(values, key: str = "0123456789123456") -> np.ndarray:
    """Stable uint64 hashes of a string array (vectorized, cross-process)."""
    arr = np.asarray(values, dtype=object)
    return hash_array(arr, hash_key=key, categorize=False)


def _clz64(w: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros for uint64 (0 → 64)."""
    n = np.full(w.shape, 64, dtype=np.int64)
    cur = w.copy()
    shift = np.int64(32)
    acc = np.zeros(w.shape, dtype=np.int64)
    while shift > 0:
        high = cur >> np.uint64(shift)
        has_high = high != 0
        cur = np.where(has_high, high, cur & ((np.uint64(1) << np.uint64(shift)) - np.uint64(1)))
        acc = np.where(has_high, acc + shift, acc)
        shift //= 2
    nz = w != 0
    n[nz] = 63 - acc[nz]
    return n


class HyperLogLog:
    """Classic HLL with 2**p registers (p=14 → ~0.8% relative error, 16 KiB).

    Engine use (SURVEY.md §2.5): per-batch partials estimate
    |distinct doc_id|; only when the estimate differs from the row count
    beyond the error bound does the exact groupby-count shuffle run.
    """

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (registers if registers is not None
                          else np.zeros(self.m, dtype=np.uint8))

    def add(self, values) -> "HyperLogLog":
        if len(values) == 0:
            return self
        h = hash_strings(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h << np.uint64(self.p)  # low 64-p bits shifted up
        rank = np.minimum(_clz64(w) + 1, 64 - self.p + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.ldexp(1.0, -self.registers.astype(np.int64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * np.log(m / zeros)
        return float(e)

    @property
    def rel_error(self) -> float:
        return float(1.04 / np.sqrt(self.m))

    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        p = b[0]
        return cls(p=p, registers=np.frombuffer(b[1:], dtype=np.uint8).copy())


class BloomFilter:
    """Standard k-hash Bloom filter over a packed bit array.

    Semantics for referential integrity: ``might_contain == False`` is a
    *certain* miss (definitely dangling); ``True`` is "maybe present" and is
    verified exactly by the hash semi-join fallback
    (:mod:`mdvalidate_ray.stages.referential`)."""

    def __init__(self, n_items: int, fp_rate: float = 0.01,
                 bits: np.ndarray | None = None):
        self.n_items = max(int(n_items), 1)
        self.fp_rate = fp_rate
        m = int(-self.n_items * np.log(fp_rate) / (np.log(2) ** 2))
        self.m = max(64, (m + 63) // 64 * 64)
        self.k = max(1, int(round(self.m / self.n_items * np.log(2))))
        self.bits = bits if bits is not None else np.zeros(self.m // 8,
                                                           dtype=np.uint8)

    def _positions(self, values) -> np.ndarray:
        h1 = hash_strings(values)
        h2 = hash_strings(values, key="fedcba9876543210")
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        return ((h1[None, :] + ks * h2[None, :]) % np.uint64(self.m))

    def add(self, values) -> "BloomFilter":
        if len(values) == 0:
            return self
        pos = self._positions(values).ravel()
        np.bitwise_or.at(self.bits, (pos // 8).astype(np.int64),
                         (1 << (pos % 8)).astype(np.uint8))
        return self

    def might_contain(self, values) -> np.ndarray:
        if len(values) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(values)
        byte = self.bits[(pos // 8).astype(np.int64)]
        bit = (byte >> (pos % 8).astype(np.uint8)) & 1
        return bit.all(axis=0)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.m == other.m and self.k == other.k
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self

    def to_bytes(self) -> bytes:
        head = np.array([self.n_items, self.m, self.k],
                        dtype=np.int64).tobytes()
        return head + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "BloomFilter":
        n_items, m, k = np.frombuffer(b[:24], dtype=np.int64)
        bf = cls.__new__(cls)
        bf.n_items, bf.m, bf.k = int(n_items), int(m), int(k)
        bf.fp_rate = 0.01
        bf.bits = np.frombuffer(b[24:], dtype=np.uint8).copy()
        return bf


class KLLSketch:
    """KLL quantile sketch (Karnin–Lang–Liberty 2016, arXiv:1603.05346),
    deterministic variant: the compaction offset alternates instead of coin
    flips, which keeps the sketch reproducible across runs at a small bias
    cost — acceptable for drift *detection* and required for our
    golden-output tests.
    """

    def __init__(self, k: int = 200):
        self.k = k
        self.compactors: list[list[float]] = [[]]
        self.size = 0
        self._flip = 0

    def _capacity(self, level: int) -> int:
        h = len(self.compactors)
        return max(2, int(np.ceil(self.k * (2.0 / 3.0) ** (h - level - 1))))

    def _total_capacity(self) -> int:
        return sum(self._capacity(l) for l in range(len(self.compactors)))

    def update(self, values) -> "KLLSketch":
        vals = np.asarray(values, dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            return self
        self.compactors[0].extend(vals.tolist())
        self.size += vals.size
        self._compress()
        return self

    def _compress(self) -> None:
        while self.size > self._total_capacity():
            for level in range(len(self.compactors)):
                if len(self.compactors[level]) > self._capacity(level):
                    if level + 1 == len(self.compactors):
                        self.compactors.append([])
                    c = sorted(self.compactors[level])
                    self._flip ^= 1
                    promoted = c[self._flip::2]
                    self.compactors[level] = []
                    self.compactors[level + 1].extend(promoted)
                    self.size -= len(c) - len(promoted)
                    break
            else:
                break

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        while len(self.compactors) < len(other.compactors):
            self.compactors.append([])
        for level, items in enumerate(other.compactors):
            self.compactors[level].extend(items)
        self.size += other.size
        self._compress()
        return self

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals, weights = [], []
        for level, items in enumerate(self.compactors):
            vals.extend(items)
            weights.extend([1 << level] * len(items))
        if not vals:
            return np.zeros(0), np.zeros(0)
        v = np.asarray(vals)
        w = np.asarray(weights, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q: float) -> float:
        v, w = self._weighted()
        if v.size == 0:
            return float("nan")
        cum = np.cumsum(w)
        target = q * cum[-1]
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(v[min(idx, v.size - 1)])

    def quantiles(self, qs) -> list[float]:
        return [self.quantile(q) for q in qs]

    def cdf(self, x: float) -> float:
        v, w = self._weighted()
        if v.size == 0:
            return float("nan")
        cum = np.cumsum(w)
        idx = int(np.searchsorted(v, x, side="right"))
        return float(cum[idx - 1] / cum[-1]) if idx > 0 else 0.0

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps((self.k, self.size, self._flip, self.compactors),
                            protocol=4)

    @classmethod
    def from_bytes(cls, b: bytes) -> "KLLSketch":
        import pickle

        k, size, flip, compactors = pickle.loads(b)
        s = cls(k=k)
        s.size, s._flip, s.compactors = size, flip, compactors
        return s


def max_quantile_drift(a: KLLSketch, b: KLLSketch,
                       qs=(0.1, 0.25, 0.5, 0.75, 0.9)) -> float:
    """Drift statistic: max CDF gap between two sketches at reference
    quantile points (a KS-style distance on sketch resolution)."""
    drift = 0.0
    for q in qs:
        x = a.quantile(q)
        drift = max(drift, abs(b.cdf(x) - q))
    return drift


class TDigest:
    """Mergeable t-digest (Dunning's merging-digest variant) — the second
    quantile-sketch family named by the north star ("streaming KLL /
    t-digest sketches merged in a tree-reduce").

    Centroids (mean, weight) are kept sorted by mean and compressed with
    the scale function k(q) = δ/(2π)·asin(2q−1), which bounds centroid
    weight near the median while keeping the tails at near-unit weight —
    so extreme quantiles stay accurate where KLL's uniform guarantee is
    looser.  Deterministic: updates buffer then compress in sorted order,
    and merges should be folded in canonical sorted-bytes order like
    KLL partials.
    """

    def __init__(self, delta: int = 100):
        self.delta = delta
        self.means = np.zeros(0, dtype=np.float64)
        self.weights = np.zeros(0, dtype=np.float64)

    # scale function and its inverse limit per-centroid weight by the
    # local quantile density
    def _k(self, q: float) -> float:
        import math

        return self.delta / (2 * math.pi) * math.asin(
            2 * min(max(q, 0.0), 1.0) - 1)

    def _k_inv(self, y: float) -> float:
        import math

        return (math.sin(2 * math.pi * y / self.delta) + 1) / 2

    def update(self, values) -> "TDigest":
        vals = np.asarray(values, dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if len(vals) == 0:
            return self
        self.means = np.concatenate([self.means, vals])
        self.weights = np.concatenate(
            [self.weights, np.ones(len(vals), dtype=np.float64)])
        self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self._compress()
        return self

    def _compress(self) -> None:
        """Merging-digest compression (Dunning): accumulate sorted
        centroids up to the q-limit given by k⁻¹(k(q₀)+1) — scalar math
        only, one asin/sin pair per OUTPUT centroid (~δ/2 of them), no
        per-input array allocation."""
        if len(self.means) == 0:
            return
        order = np.argsort(self.means, kind="stable")
        means = self.means[order].tolist()
        weights = self.weights[order].tolist()
        total = sum(weights)
        k_top = self._k(1.0)
        out_means: list[float] = []
        out_weights: list[float] = []
        acc_m, acc_w = means[0], weights[0]
        w_emitted = 0.0
        y = self._k(0.0) + 1.0
        q_limit = 1.0 if y >= k_top else self._k_inv(y)
        for m, w in zip(means[1:], weights[1:]):
            if (w_emitted + acc_w + w) / total <= q_limit:
                acc_m = (acc_m * acc_w + m * w) / (acc_w + w)
                acc_w += w
            else:
                out_means.append(acc_m)
                out_weights.append(acc_w)
                w_emitted += acc_w
                y = self._k(w_emitted / total) + 1.0
                q_limit = 1.0 if y >= k_top else self._k_inv(y)
                acc_m, acc_w = m, w
        out_means.append(acc_m)
        out_weights.append(acc_w)
        self.means = np.asarray(out_means, dtype=np.float64)
        self.weights = np.asarray(out_weights, dtype=np.float64)

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        total = self.weights.sum()
        target = q * total
        cum = np.cumsum(self.weights) - self.weights / 2.0
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        i = int(np.searchsorted(cum, target) - 1)
        frac = (target - cum[i]) / (cum[i + 1] - cum[i])
        return float(self.means[i] + frac * (self.means[i + 1]
                                             - self.means[i]))

    def quantiles(self, qs) -> list[float]:
        return [self.quantile(q) for q in qs]

    def cdf(self, x: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        total = self.weights.sum()
        cum = np.cumsum(self.weights) - self.weights / 2.0
        if x <= self.means[0]:
            return 0.0
        if x >= self.means[-1]:
            return 1.0
        i = int(np.searchsorted(self.means, x) - 1)
        frac = (x - self.means[i]) / max(self.means[i + 1]
                                         - self.means[i], 1e-300)
        return float((cum[i] + frac * (cum[i + 1] - cum[i])) / total)

    def to_bytes(self) -> bytes:
        import struct

        head = struct.pack("<id", self.delta, 0.0)
        return head + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        import struct

        delta, _ = struct.unpack_from("<id", b, 0)
        body = b[12:]
        n = len(body) // 16
        td = cls(delta=delta)
        td.means = np.frombuffer(body[:8 * n], dtype=np.float64).copy()
        td.weights = np.frombuffer(body[8 * n:], dtype=np.float64).copy()
        return td


def max_quantile_drift_td(reference: "TDigest", live: "TDigest",
                          qs=None) -> float:
    """Max |CDF gap| between two t-digests at fixed quantile probes —
    the same KS-style statistic used for KLL drift."""
    if qs is None:
        qs = [i / 20 for i in range(1, 20)]
    gaps = [abs(live.cdf(reference.quantile(q)) - q) for q in qs]
    return float(max(gaps))


class MisraGries:
    """Misra–Gries / space-saving heavy-hitters summary (Misra & Gries
    1982; mergeable form per Agarwal et al., "Mergeable Summaries",
    PODS'12): at most ``capacity`` counters, built vectorized from exact
    per-batch value counts and merged by count addition + one decrement
    step.

    Guarantees (the properties the exact-recount verify relies on):

    * underestimate: ``est(x) ≤ true(x)`` for every key;
    * bounded error: ``true(x) − est(x) ≤ err`` where ``err`` is the
      accumulated decrement total;
    * coverage: any key with ``true(x) > err`` is present in the summary.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.keys = np.zeros(0, dtype=object)
        self.counts = np.zeros(0, dtype=np.int64)
        self.err = 0

    @classmethod
    def from_counts(cls, keys, counts, capacity: int) -> "MisraGries":
        """Build from EXACT (key, count) pairs (e.g. one batch's
        ``value_counts``) — a valid summary with err=0 — then shrink to
        ``capacity``."""
        mg = cls(capacity)
        mg.keys = np.asarray(keys, dtype=object)
        mg.counts = np.asarray(counts, dtype=np.int64)
        mg._shrink()
        return mg

    def _shrink(self) -> None:
        if len(self.keys) <= self.capacity:
            return
        order = np.argsort(self.counts)[::-1]
        d = int(self.counts[order[self.capacity]])
        keep = order[:self.capacity]
        cnts = self.counts[keep] - d
        pos = cnts > 0
        self.keys = self.keys[keep][pos]
        self.counts = cnts[pos]
        self.err += d

    def merge(self, other: "MisraGries") -> "MisraGries":
        """Associative+commutative: concatenate, sum per key, shrink."""
        allk = np.concatenate([self.keys, other.keys])
        allc = np.concatenate([self.counts, other.counts])
        uniq, inv = np.unique(allk, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, allc)
        out = MisraGries(self.capacity)
        out.keys = uniq
        out.counts = sums
        out.err = self.err + other.err
        out._shrink()
        return out

    def to_table(self):
        """Serialize as an Arrow-friendly (key, cnt) pair list plus the
        sentinel error row (key=None) — survives any exchange."""
        import pyarrow as pa

        return pa.Table.from_arrays(
            [pa.array(list(self.keys) + [None], pa.string()),
             pa.array(list(self.counts) + [self.err], pa.int64())],
            names=["key", "cnt"])

    @classmethod
    def from_table(cls, tbl, capacity: int) -> "MisraGries":
        """Rebuild from one or many concatenated ``to_table`` partials:
        duplicate keys sum (count addition IS the merge), sentinel error
        rows sum, then one shrink — equivalent to pairwise ``merge``."""
        ks = tbl.column("key").to_pylist()
        cs = np.asarray(tbl.column("cnt").to_pylist(), dtype=np.int64)
        mg = cls(capacity)
        null = np.array([k is None for k in ks], dtype=bool)
        mg.err = int(cs[null].sum())
        keys = np.asarray([k for k in ks if k is not None], dtype=object)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, cs[~null])
        mg.keys = uniq
        mg.counts = sums
        mg._shrink()
        return mg


class CountMinSketch:
    """Count-Min sketch (Cormode & Muthukrishnan 2005): a d×w counter
    grid; point-frequency estimates overcount by at most εN with
    probability 1−δ where w = ⌈e/ε⌉ and d = ⌈ln 1/δ⌉.  Merge is
    element-wise addition, so per-batch partials tree-reduce exactly
    like the HLL/KLL partials (SURVEY.md §2.5) — the approximate
    point-lookup companion to the MisraGries top-k sketch: MG answers
    "which keys are heavy", CMS answers "how often did THIS key occur"
    without holding any keys at all.

    Rows are derived from one 64-bit hash per value (Kirsch-Mitzenmauer
    double hashing: h_i = h_lo + i·h_hi), so adding a million-element
    Arrow column costs d vectorized scatter-adds.
    """

    def __init__(self, width: int = 2048, depth: int = 5,
                 table: np.ndarray | None = None):
        self.width = width
        self.depth = depth
        self.table = (table if table is not None
                      else np.zeros((depth, width), dtype=np.int64))
        self.n = int(self.table.sum() // max(depth, 1))

    def add(self, values, counts=None) -> "CountMinSketch":
        if len(values) == 0:
            return self
        h = hash_strings(values)
        lo = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        hi = (h >> np.uint64(32)).astype(np.uint64) | np.uint64(1)
        c = (np.asarray(counts, dtype=np.int64) if counts is not None
             else np.ones(len(h), dtype=np.int64))
        for i in range(self.depth):
            idx = ((lo + np.uint64(i) * hi)
                   % np.uint64(self.width)).astype(np.int64)
            np.add.at(self.table[i], idx, c)
        self.n += int(c.sum())
        return self

    def estimate(self, values) -> np.ndarray:
        """Upper-biased point estimates (min over rows)."""
        if len(values) == 0:
            return np.zeros(0, dtype=np.int64)
        h = hash_strings(values)
        lo = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        hi = (h >> np.uint64(32)).astype(np.uint64) | np.uint64(1)
        est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
        for i in range(self.depth):
            idx = ((lo + np.uint64(i) * hi)
                   % np.uint64(self.width)).astype(np.int64)
            np.minimum(est, self.table[i][idx], out=est)
        return est

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        assert (self.width, self.depth) == (other.width, other.depth)
        self.table += other.table
        self.n += other.n
        return self

    @property
    def eps(self) -> float:
        """Additive error bound: estimate ≤ true + eps·N w.p. 1−δ."""
        return float(np.e / self.width)

    def to_bytes(self) -> bytes:
        import struct

        return struct.pack("<II", self.width, self.depth) \
            + self.table.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMinSketch":
        import struct

        w, d = struct.unpack("<II", b[:8])
        tbl = np.frombuffer(b[8:], dtype=np.int64).reshape(d, w).copy()
        return cls(width=w, depth=d, table=tbl)
