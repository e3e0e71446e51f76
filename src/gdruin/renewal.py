"""Online solver for the renewal equation behind the Cbar coefficients.

The coefficient tables of the package, the NBM series in `nbm`, its mixed
Poisson grid limit in `mixed_poisson` and the ladder form of E in
`recursion`, solve

    x_0 = c0,    x_k = c0 ( sum_{i=1}^{min(k, W)} f_i x_{k-i} + Fbar(k) ),   k >= 1,

for the law f_i = w_{i-1} / total of raw survival weights w_0..w_{W-1}, with
Fbar(k) = sum_{l>=k} w_l / total.  ``total`` is the sum of every weight,
taken once in extended precision, and includes the certified sum of the
weights past the stored array, so Fbar never carries a rounding remainder.
The direct loop costs O(K min(K, W)) for K terms, in K Python-level calls.
`RenewalSolver` costs O(K log^2 K) in O(K / B) numpy calls and extends its
table in place:

* lags below the block size B = 512 are dense nonnegative products, each
  one `np.correlate` over a zero-padded buffer the solver keeps: per block
  of B terms, one against f_{B-1}..f_1 for the lags that reach back into the
  previous block, then one against the reversed inverse-Toeplitz head tau
  for the block itself.  tau is the first B terms of c0 / (1 - c0 F(z)),
  built in 9 doublings of two convolutions.  No B x B matrix exists, so the
  kernels stay in cache, where a B x B gemv would stream 2 MB per product;
* lags in [s, 2s), for each level s = B 2^m <= W, form one FFT product of the
  finished source block x[e-s, e) with f_s..f_{2s-1}.  It is made when block
  e starts (e a multiple of s) and added to the pending terms x[e, e+2s-1),
  which the buffer holds beyond the finished prefix, so the working memory
  beyond the table is the overhang of the largest pending product.

FFT rounding error is absolute, while x falls by hundreds of decades, so each
far product is tilted locally: source terms by e^{t (j-e)}, lags by e^{t i}
and outputs by e^{-t (k-e)}, with t at or just above the root of
c0 sum_{i<2s} f_i e^{t i} = 1 over the level's own lags: Newton steps from
above, from the tilt of the level below (the root falls as lags are added),
stop once that sum is at most e^0.01, typically after 0 to 4 steps.  So the
tilted lags sum to at most e^0.01 / c0, and where x decays geometrically the
tilted source block is about level, so the error stays relative to each
term.  A single tilt e^{t k} over the whole table would overflow once x
stops decaying, as it does when Fbar stays positive past W.

Block size, tilts and FFT lengths depend on the law alone, never on how far
the table has been grown, so every prefix is bit-identical whatever the
order of the requests.  Each level's tilted lag spectrum, output powers,
last lag and tilt are built the first time the level fires and kept on the
solver: 32 s bytes for level s, 4 to 6.4 times the table's bytes over all levels
when every level up to half the table fires, beside 28 KB of dense kernels
and buffer.  The solver reads the weights through `Weights`, so the support
may be unbounded, like a heavy-tailed mixing grid: the table reads single
weights only up to about twice its length, and beyond that only tail sums
from block boundaries.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["CoefficientSeq", "RenewalSolver", "TableCache", "Weights"]

# Block size of the dense near-lag products; a power of two.
_B = 512
# Keys a `TableCache` keeps, the most recently requested ones.
_KEEP = 8
# A level's tilt stops where its tilted lags sum to at most e^_TILT_EXCESS / c0.
_TILT_EXCESS = 1e-2


class Weights:
    """The weights w_0..w_{size-1} a solver reads, held in one array.

    ``read(lo, hi)`` is w[lo:hi], and ``tail(l)``, for l a multiple of the
    block size, is sum_{j >= l} w_j in extended precision: a cumulative sum
    of per-block sums, plus ``beyond``, the sum of whatever the sequence
    holds past the array.  An unbounded sequence, such as a heavy-tailed
    mixing grid, extends this class with ``size = math.inf`` and answers
    ``read`` and ``tail`` past the array itself.
    """

    def __init__(self, w: np.ndarray, beyond: float = 0.0):
        self._w = np.asarray(w, dtype=float)
        self.size = self._w.size
        ld = self._w.astype(np.longdouble)
        if ld.size % _B:
            ld = np.pad(ld, (0, -ld.size % _B))  # whole blocks reshape without this copy
        blocks = ld.reshape(-1, _B).sum(axis=1)
        sums = np.append(blocks, np.longdouble(beyond))
        self._tails = np.cumsum(sums[::-1])[::-1]

    def read(self, lo: int, hi: int) -> np.ndarray:
        return self._w[lo:hi]

    def tail(self, l: int) -> np.longdouble:
        return self._tails[l // _B]


class RenewalSolver:
    """Terms x_0, x_1, ... of the renewal equation above, grown on request.

    ``weights`` holds the raw w: f_i = w_{i-1} / total and Fbar(k) =
    sum_{l>=k} w_l / total, with total = ``weights.tail(0)``; past a finite
    array Fbar is ``beyond / total``.  The weights are kept by reference and
    must not change.  ``extend`` is not thread-safe; ``lags`` and
    ``survival`` only read the weights, so they may run beside it.
    """

    def __init__(self, c0: float, weights: Weights):
        self._weights = weights
        self.c0 = float(c0)
        self._width = weights.size
        self._total = weights.tail(0)
        self.total = float(self._total)
        self._past = 0.0  # Fbar(k) for k >= W
        if self._width < math.inf:
            self._past = float(weights.tail(-(-self._width // _B) * _B) / self._total)
        self._near_f = self.lags(0, _B)
        self._tau = self.c0 * _inverse_head(self.c0 * self._near_f)
        # reversed copies, so that np.correlate's dot products run forward through BLAS
        self._tau_rev = self._tau[::-1].copy()
        self._near_rev = self._near_f[:0:-1].copy()  # f_{B-1}..f_1
        self._pad = np.zeros(3 * _B - 2)
        self._levels: dict[int, tuple] = {}  # s -> (spectrum, powers, last lag)
        self._x = np.zeros(0)
        self._done = 0

    def lags(self, lo: int, hi: int) -> np.ndarray:
        """f_i for i in [lo, hi); f_0 and lags beyond the support are 0."""
        out = np.zeros(hi - lo)
        a, b = max(lo, 1), min(hi, self._width + 1)
        if b > a:
            out[a - lo : b - lo] = self._weights.read(a - 1, b - 1) / self._total
        return out

    def survival(self, lo: int, hi: int) -> np.ndarray:
        """Fbar(k) for k in [lo, hi)."""
        out = np.full(hi - lo, self._past)
        top = min(hi, self._width)
        if top > lo:
            m = -(-top // _B) * _B  # first block boundary at or after top
            seg = self._weights.read(lo, min(m, self._width)).astype(np.longdouble)
            suffix = np.cumsum(seg[::-1])[::-1] + self._weights.tail(m)
            out[: top - lo] = suffix[: top - lo] / self._total
        return out

    def extend(self, n: int) -> np.ndarray:
        """Read-only view of x_0..x_{n-1}, computing the missing blocks in place."""
        end = -(-n // _B) * _B
        if end > self._done:
            self._reserve(end)
            try:
                for pos in range(self._done, end, _B):
                    self._step(pos)
                    self._done = pos + _B
            except BaseException:
                # a step may stop with its pending terms half added
                self._x, self._done = np.zeros(0), 0
                raise
        view = self._x[:n]
        view.flags.writeable = False
        return view

    def _reserve(self, end: int) -> None:
        # the buffer must hold every pending term the steps up to end create:
        # the largest level s = B 2^m <= W fired at pos reaches pos + 2s - 1
        need = end
        for pos in range(max(self._done, _B), end, _B):
            s = pos & -pos
            while s > self._width:
                s //= 2
            if s >= _B:
                need = max(need, pos + min(2 * s - 1, self._width))
        if need > self._x.size:
            grown = np.zeros(need)
            grown[: self._x.size] = self._x
            self._x = grown

    def _step(self, pos: int) -> None:
        # pad is zero outside [B - 1, 2B - 1): it holds the previous block's terms
        # 1..B-1 for the lags that reach back into it, then the right-hand side
        x, pad = self._x, self._pad
        rhs = self.survival(pos, pos + _B)
        if pos:
            s = _B
            while s <= self._width and pos % s == 0:
                self._fire(pos, s)
                s *= 2
            pad[_B : 2 * _B - 1] = x[pos - _B + 1 : pos]
            rhs += np.correlate(pad[_B:], self._near_rev, "valid")
            rhs += x[pos : pos + _B]
        else:
            rhs[0] = 1.0  # Fbar(0), so that x_0 = tau_0 = c0 exactly
        pad[_B - 1 : 2 * _B - 1] = rhs
        x[pos : pos + _B] = np.correlate(pad[: 2 * _B - 1], self._tau_rev, "valid")

    def _fire(self, e: int, s: int) -> None:
        # lags [s, 2s) from the source block x[e-s, e), tilted by e^t
        level = self._levels.get(s)
        if level is None:
            level = self._levels[s] = self._level(s)
        spectrum, powers, size, _ = level
        x = self._x
        src = x[e - s : e] * powers[s:0:-1]
        spec = np.fft.rfft(src, 2 * s)
        spec *= spectrum
        out = np.fft.irfft(spec, 2 * s)[:size]
        out *= powers[:size]
        x[e : e + size] += out

    def _level(self, s: int) -> tuple[np.ndarray, np.ndarray, int, float]:
        top = min(2 * s - 1, self._width)  # last lag of the level
        f = self.lags(1, top + 1)
        # the level below fired first, and its tilt bounds this one's from above
        below = self._levels.get(s // 2)
        t = _tilt(self.c0, f, None if below is None else below[3])
        with np.errstate(divide="ignore"):
            tilted = np.exp(np.log(f[s - 1 :]) + t * np.arange(s, top + 1))
        return np.fft.rfft(tilted, 2 * s), np.exp(-t * np.arange(2 * s)), top, t


def _inverse_head(g: np.ndarray) -> np.ndarray:
    """The first B terms of 1 / (1 - G(z)), G(z) = sum_{i >= 1} g_i z^i with g_0 = 0, by
    doubling: with the first h terms H known, the next h are H times the part of G H
    that H's own terms reach there, two nonnegative products."""
    inv = np.empty(_B)
    inv[0], h = 1.0, 1
    while h < _B:
        reach = np.convolve(g[1 : 2 * h], inv[:h])[h - 1 : 2 * h - 1]
        inv[h : 2 * h] = np.convolve(inv[:h], reach)[:h]
        h *= 2
    return inv


def _tilt(c0: float, f: np.ndarray, start: float | None = None) -> float:
    """t >= 0 at or above the root of c0 sum_i f_i e^{t i} = 1 (f[i-1] = f_i), with
    c0 sum_i f_i e^{t i} <= e^{0.01}: Newton from above, from ``start``, an upper
    bound on the root such as the tilt over fewer lags, or else from where one
    term alone reaches 1."""
    live = f > 0.0
    if not live.any():
        return 0.0
    i = np.flatnonzero(live) + 1.0
    logs = np.log(c0 * f[live])
    t = float(np.min(-logs / i)) if start is None else start
    w = np.empty_like(i)
    for _ in range(100):
        np.multiply(i, t, out=w)
        w += logs
        top = float(w.max())
        w -= top
        np.exp(w, out=w)
        mass = float(w.sum())
        excess = top + math.log(mass)
        if excess <= _TILT_EXCESS:
            break
        w *= i
        t -= excess * mass / float(w.sum())
    return max(t, 0.0)


@dataclass(frozen=True, eq=False)
class CoefficientSeq:
    """One cached table: ``cbar_n``, a read-only view of all of it, ``cbar_n[0]`` = c0
    exactly; ``grid_points``, the count of the law's weights (J, or 2^16 for a grid
    that runs on); ``renewal``, the solver, whose ``lags``, ``survival`` and ``total``
    are the law's f_i, Fbar(k) and weight sum."""

    cbar_n: np.ndarray
    grid_points: int
    renewal: RenewalSolver = field(repr=False)


class _Entry:
    __slots__ = ("lock", "seq")

    def __init__(self):
        self.lock = threading.Lock()
        self.seq = None  # the latest record, replaced as one; its table is empty until extended


class TableCache:
    """Coefficient tables keyed by law, each grown in place under its own lock.

    The cache lock guards only the lookup and insert of a key's entry, so
    growing one law's table never blocks a read of another's.  A table has
    the smallest size q 2^e >= k_max + 1 with q in {4, 5, 6, 7}, and at
    least 64: at most 1.25 (k_max + 1) terms.  The cache keeps the entries
    of its 8 most recently requested keys and drops the oldest one's
    reference; a request that holds a dropped entry still finishes, and a
    later request for its key rebuilds the same table bit for bit.  A
    request refused by the net profit condition, or whose table fails to
    start, holds no entry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, k_max: int, c0: float, start) -> CoefficientSeq:
        """The record of ``key``'s table, covering index ``k_max``.

        ``c0``, the law's mean claim, must meet the net profit condition
        0 < c0 < 1.  ``start()`` runs once per kept key, under the key's lock,
        and returns ``(weights, grid_points)``: the table is RenewalSolver(c0,
        weights)'s.  A request within the table returns the same record.  If
        the start raises, the next request runs it again.
        """
        if not 0.0 < c0 < 1.0:
            raise ValueError(f"net profit condition requires a mean claim c0 in (0, 1), got c0 = {c0}")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry()
                if len(self._entries) > _KEEP:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
        seq = entry.seq
        if seq is not None and seq.cbar_n.size > k_max:
            return seq
        with entry.lock:
            if entry.seq is None:
                try:
                    weights, points = start()
                    solver = RenewalSolver(c0, weights)
                except BaseException:
                    with self._lock:
                        if self._entries.get(key) is entry:
                            del self._entries[key]
                    raise
                entry.seq = CoefficientSeq(np.zeros(0), points, solver)
            if entry.seq.cbar_n.size <= k_max:
                entry.seq = replace(entry.seq, cbar_n=entry.seq.renewal.extend(_table_size(k_max)))
            return entry.seq


# The one cache of the package's coefficient tables: NBM specs and (mixing law, n) grids.
_tables = TableCache()


def _table_size(k_max: int) -> int:
    """The smallest q 2^e >= max(k_max + 1, 64) with q in {4, 5, 6, 7}."""
    need = max(k_max + 1, 64)
    e = need.bit_length() - 3  # 4 * 2^e <= need < 8 * 2^e
    return -(-need >> e) << e
