"""Cauchy-circle stencils of one point as one sample table, and the value
cache the tables read and fill.

Every derivative a point needs is a full- and a half-radius stencil of
direction circles (see ``_directions``).  A SampleTable builds all of
them as blocks of rows of one array, merges rows equal in bits, sends the
rows not cached yet to ``phi.batch`` in one call, and takes each circle
sum on the gathered values.  Its products and its left-to-right sums are
rounded as a sample-by-sample loop rounds them, so every derivative is
bit-identical to that loop; lookups count hits and misses as the loop
would.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from .analytic_paths import EvaluationError
from .scenario import EvalSettings

__all__ = ["DerivativeCache", "SampleTable"]

# trapezoid nodes on every Cauchy circle
_DIFF_NODES = 16


class DerivativeCache:
    """Memo for function values and finished derivatives.

    Function values are keyed by the bytes of the exact evaluation point,
    so stencils that revisit a point (different derivative orders on the
    same circles, repeated verify runs at the same seed) share work.  An
    EvaluationError is remembered like a value and raised again on every
    later lookup, so a failing point (an unconverged period is the
    costliest evaluation there is) is evaluated once.  ``table`` is the
    sample table of the point verify is at; its rows not cached yet were
    sent to ``phi.batch`` in one call (``prefetch`` does the same for any
    list of points).  A key's first lookup counts as the miss, whether or
    not a batch evaluated it earlier, so hits and misses do not depend on
    batching.  One cache serves one function only.
    """

    def __init__(self):
        self.values: dict = {}
        self.derivs: dict = {}
        self.table: SampleTable | None = None
        self.hits = 0
        self.misses = 0
        # keys evaluated by a batch and not looked up yet
        self._fresh: set = set()

    def prefetch(self, phi, points) -> None:
        """Evaluate the points not cached yet in one phi.batch call.

        A phi without ``batch`` is left to value(), point by point.
        """
        first: dict = {}
        for point in points:
            first.setdefault(point.tobytes(), point)
        self._evaluate(phi, list(first), np.array(list(first.values())))

    def _evaluate(self, phi, keys: list, rows) -> list:
        """Cached entry of each keyed row (keys distinct), None if unknown.

        With ``phi.batch`` the rows not cached yet are evaluated first, in
        one call, and stay fresh until their first lookup.
        """
        got = [self.values.get(key) for key in keys]
        batch = getattr(phi, "batch", None)
        missing = [u for u, v in enumerate(got) if v is None]
        if batch is None or not missing:
            return got
        for u, v in zip(missing, batch(rows[missing])):
            got[u] = self.values[keys[u]] = (
                v if isinstance(v, EvaluationError) else complex(v)
            )
        self._fresh.update(keys[u] for u in missing)
        return got

    def value(self, phi, point: np.ndarray) -> complex:
        key = point.tobytes()
        if key in self._fresh:
            self._fresh.discard(key)
            self.misses += 1
            v = self.values[key]
        elif key in self.values:
            self.hits += 1
            v = self.values[key]
        else:
            self.misses += 1
            try:
                v = complex(phi(point))
            except EvaluationError as exc:
                v = exc
            self.values[key] = v
        if isinstance(v, EvaluationError):
            raise v.with_traceback(None)
        return v


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y on complex arrays, rounded as a scalar complex product is
    (numpy's vector loop may fuse the products and round differently)."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


@cache
def _directions(multi: tuple):
    """The part of the circles for d^multi that does not depend on a.

    The derivative is pref * sum_k phase[k] * phi(a + step_k), summed in
    sample order.  The first support coordinate s0 moves by its radius;
    every other support coordinate i moves by its radius times an m_i-th
    root of unity, m_i the smallest power of two above max(u_i, q - u_i).
    On each direction h the trapezoid circle gives the q-th derivative of
    t -> phi(a + t h), a sum of (q!/alpha!) h^alpha d^alpha phi over
    |alpha| = q; the discrete Fourier average over the directions keeps
    alpha = multi alone.  That average is unitary, so it amplifies rounding
    no more than a tensor grid does.  Powers of two make a lower order's
    directions a subset of a higher order's, so their samples are shared
    through the cache.  With a single coordinate there is one direction:
    the plain coordinate circle.

    Returns the support, the m_v (circle nodes for s0), every sample's
    phase, and per sample and support coordinate, sample-major: the
    sample, the coordinate, the unit step (1 for s0) and the circle node.
    """
    order = sum(multi)
    support = tuple(v for v, q in enumerate(multi) if q > 0)
    sizes = (_DIFF_NODES,) + tuple(
        1 << max(multi[i], order - multi[i]).bit_length() for i in support[1:]
    )
    theta = 2.0 * math.pi * np.arange(_DIFF_NODES) / _DIFF_NODES
    rot = np.exp(1j * theta)
    node_phases = np.array([np.exp(-1j * order * t) for t in theta])
    units, coefs = [], []
    for turns in itertools.product(*(range(m) for m in sizes[1:])):
        unit = [1.0 + 0.0j]
        coef = 1.0 + 0.0j
        for i, j, m in zip(support[1:], turns, sizes[1:]):
            # j/m is exact in binary, so equal directions of different
            # orders produce bit-identical sample points
            unit.append(np.exp(2j * math.pi * (j / m)))
            coef *= np.exp(-2j * math.pi * (j * multi[i] % m / m))
        units.append(unit)
        coefs.append(coef)
    samples = len(units) * _DIFF_NODES
    arrays = (
        _mul(np.array(coefs)[:, None], node_phases).ravel(),
        np.repeat(np.arange(samples), len(support)),
        np.tile(support, samples),
        np.repeat(units, _DIFF_NODES, axis=0).ravel(),
        np.repeat(np.tile(rot, len(units)), len(support)),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return support, sizes, *arrays


class SampleTable:
    """Every circle sample of some derivatives at one point, as arrays.

    Derivative j (``slots[multi]``) owns stencils 2j (full radius) and
    2j + 1 (half radius), consecutive blocks of sample rows after the
    point itself if ``centre``.  Rows equal in bits are merged into
    ``rows``, first occurrences first; ``index[t, k]`` is the row of
    stencil t's sample k, padded with ``len(rows)`` past ``lengths[t]``.
    The rows not cached yet go to ``phi.batch`` in one call; a phi without
    ``batch`` is evaluated lazily by ``circle_sums``.
    """

    def __init__(self, phi, a: np.ndarray, multis: list, settings: EvalSettings,
                 cache: DerivativeCache, centre: bool = False):
        n = a.size
        self.point = (a.tobytes(), settings.radius_factor)
        self.radii = [settings.radius_factor * max(1.0, abs(x)) for x in a]
        halved = [r / 2.0 for r in self.radii]
        self.slots = {multi: j for j, multi in enumerate(multis)}
        dirs = [_directions(multi) for multi in multis for _ in range(2)]
        prefs = []
        for t, (support, sizes, *_) in enumerate(dirs):
            multi, radii = multis[t // 2], (self.radii, halved)[t % 2]
            pref = 1.0 + 0.0j
            for v, m in zip(support, sizes):
                pref *= math.factorial(multi[v]) / (m * radii[v] ** multi[v])
            prefs.append(pref)
        self.prefs = np.array(prefs)
        self.lengths = np.array([len(d[2]) for d in dirs])
        self.starts = int(centre) + np.cumsum(self.lengths) - self.lengths

        phase, sample, column, unit, node = map(
            np.concatenate, zip(*(d[2:] for d in dirs)))
        entries = [len(d[3]) for d in dirs]
        sample = sample + np.repeat(self.starts, entries)
        halves = np.repeat(np.arange(len(dirs)) % 2, entries)
        radius = np.array(self.radii + halved, dtype=complex)[column + n * halves]
        flat = np.empty((int(centre) + self.lengths.sum(), n), dtype=complex)
        flat[:] = a
        step = _mul(_mul(radius, unit), node)
        flat.reshape(-1)[sample * n + column] = a[column] + step
        self.rows, self.sample_rows = _merge_rows(flat)

        width = self.lengths.max()
        into = np.arange(int(centre), len(flat)) + np.repeat(
            np.arange(len(dirs)) * width - self.starts, self.lengths)
        self.index = np.full(len(dirs) * width, len(self.rows))
        self.index[into] = self.sample_rows[int(centre):]
        self.index = self.index.reshape(-1, width)
        self.phases = np.zeros(len(dirs) * width, dtype=complex)
        self.phases[into] = phase
        self.phases = self.phases.reshape(-1, width)

        buf, size = self.rows.tobytes(), self.rows.itemsize * n
        self.keys = [buf[i:i + size] for i in range(0, len(buf), size)]
        # per row, and for the padding slot last: known, failed, value
        got = cache._evaluate(phi, self.keys, self.rows) + [0j]
        self.known = np.array([v is not None for v in got])
        self.failed = np.array([isinstance(v, EvaluationError) for v in got])
        self.values = np.array([v if v.__class__ is complex else 0j for v in got])
        # a row's first lookup is its miss; the padding slot is never looked up
        fresh = cache._fresh
        self.looked = self.known[:-1] & np.array([k not in fresh for k in self.keys])
        self.sums = self._circle_sums(slice(None)) if self.known.all() else None

    def _circle_sums(self, stencils) -> list:
        """Each stencil's pref * sum of value * phase, added left to right."""
        ends = self.lengths[stencils]
        terms = np.zeros((len(ends), self.index.shape[1] + 1), dtype=complex)
        terms[:, 1:] = _mul(self.values[self.index[stencils]], self.phases[stencils])
        # the running sum from 0 of a sample-by-sample loop, not np.sum's pairs
        sums = np.cumsum(terms, axis=1)[np.arange(len(ends)), ends]
        return _mul(self.prefs[stencils], sums).tolist()

    def circle_sums(self, phi, multi: tuple, cache: DerivativeCache):
        """The full- and half-radius circle sums of d^multi.

        Samples are looked up in summation order, full radius first, each
        counting a hit or a miss.  A phi without ``batch`` is evaluated at
        rows not known yet; the first failing sample ends the lookups and
        its error is raised.
        """
        j = self.slots[multi]
        begin = self.starts[2 * j]
        order = self.sample_rows[begin:begin + 2 * self.lengths[2 * j]]
        for u in order[self.failed[order] | ~self.known[order]].tolist():
            if not self.known[u]:
                try:
                    v = self.values[u] = complex(phi(self.rows[u].copy()))
                except EvaluationError as exc:
                    v = exc
                    self.failed[u] = True
                cache.values[self.keys[u]] = v
                self.known[u] = True
            if self.failed[u]:
                break
        failing = self.failed[order]
        if failing.any():
            order = order[:failing.argmax() + 1]
        before = self.looked.copy()
        self.looked[order] = True
        new = np.flatnonzero(self.looked & ~before).tolist()
        cache.misses += len(new)
        cache.hits += len(order) - len(new)
        cache._fresh.difference_update(self.keys[u] for u in new)
        if failing.any():
            raise cache.values[self.keys[order[-1]]].with_traceback(None)
        if self.sums is None:
            return self._circle_sums(slice(2 * j, 2 * j + 2))
        return self.sums[2 * j:2 * j + 2]


def _merge_rows(flat: np.ndarray):
    """The distinct rows (in bits) in order of first occurrence, and each
    row's position among them.  One lexsort and no np.unique, which
    imports numpy.ma, nor a second sort, whose SIMD code adds to RSS."""
    bits = flat.view(np.uint64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    starts = np.ones(len(flat), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    # lexsort is stable: each run of equal rows starts at its first occurrence
    first = np.zeros(len(flat), dtype=bool)
    first[order[starts]] = True
    rank = np.cumsum(first) - 1
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = rank[order[starts]][np.cumsum(starts) - 1]
    return flat[first], inverse
