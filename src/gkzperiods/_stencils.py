"""Cauchy-circle stencils of one point as one sample table, and the cache
of the derivatives made from them.

Every derivative a point needs is a full- and a half-radius stencil of
direction circles (see ``_directions``).  A SampleTable builds all of
them as blocks of rows of one array after the point itself, merges rows
equal in bits, and takes every circle sum on the rows' values with the
products and left-to-right additions of a sample-by-sample loop, so each
sum is bit-identical to that loop.  The table is the one place rows are
deduplicated: ``DerivativeCache.evaluate`` sends the rows it is given to
phi in one batch call and keeps none of them, and ``batch_of`` makes a
plain callable a row loop that returns each row's error as its entry.
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


def batch_of(phi):
    """phi's batch call: ``phi.batch``, or for a plain callable a loop over
    the rows that returns each row's value or its EvaluationError."""
    batch = getattr(phi, "batch", None)
    if batch is not None:
        return batch

    def rows_of(rows) -> list:
        out = []
        for row in rows:
            try:
                out.append(phi(row))
            except EvaluationError as exc:
                out.append(exc)
        return out

    return rows_of


class DerivativeCache:
    """Memo for finished derivatives and phi at their points.

    ``derivs`` maps (point bytes, multi-index, radius factor) to a finished
    derivative or the error it raised.  ``values`` maps the bytes of each
    point whose derivatives or value were asked for to phi's value there
    or the EvaluationError it raised, so a failing point (an unconverged
    period is the costliest evaluation there is) is evaluated once and its
    error is raised again on every later lookup.  ``misses`` counts the
    rows phi was evaluated at and ``batches`` the calls they went in;
    ``hits`` counts the requests answered without evaluating phi: a
    derivative found in ``derivs`` or a value found in ``values``.  One
    cache serves one function only.
    """

    def __init__(self):
        self.values: dict = {}
        self.derivs: dict = {}
        self.hits = 0
        self.misses = 0
        self.batches = 0

    def evaluate(self, phi, rows: np.ndarray) -> list:
        """phi's entry at each row of an (N, n) array, from one
        batch_of(phi) call: a value or the row's EvaluationError."""
        got = list(batch_of(phi)(rows))
        if len(got) != len(rows):
            raise ValueError(
                f"phi.batch returned {len(got)} entries for {len(rows)} rows"
            )
        self.misses += len(rows)
        self.batches += 1
        return got

    def value(self, phi, point: np.ndarray) -> complex:
        """phi at one point; raises the point's EvaluationError."""
        key = point.tobytes()
        if key in self.values:
            self.hits += 1
        else:
            v, = self.evaluate(phi, point[None])
            self.values[key] = v if isinstance(v, EvaluationError) else complex(v)
        v = self.values[key]
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
    in one sample table.  With a single coordinate there is one direction:
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

    Derivative j of ``multis`` owns stencils 2j (full radius) and 2j + 1
    (half radius), consecutive blocks of sample rows after the point
    itself.  Rows equal in bits are merged into ``rows``, first occurrences
    first, so the point is row 0; ``index[t, k]`` is the row of stencil t's
    sample k, padded with row 0 past ``lengths[t]``.
    """

    def __init__(self, a: np.ndarray, multis: list, settings: EvalSettings):
        n = a.size
        self.radii = [settings.radius_factor * max(1.0, abs(x)) for x in a]
        halved = [r / 2.0 for r in self.radii]
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
        starts = 1 + np.cumsum(self.lengths) - self.lengths

        phase, sample, column, unit, node = map(
            np.concatenate, zip(*(d[2:] for d in dirs)))
        entries = [len(d[3]) for d in dirs]
        sample = sample + np.repeat(starts, entries)
        halves = np.repeat(np.arange(len(dirs)) % 2, entries)
        radius = np.array(self.radii + halved, dtype=complex)[column + n * halves]
        flat = np.empty((1 + self.lengths.sum(), n), dtype=complex)
        flat[:] = a
        step = _mul(_mul(radius, unit), node)
        flat.reshape(-1)[sample * n + column] = a[column] + step
        self.rows, sample_rows = _merge_rows(flat)

        width = self.lengths.max()
        into = np.arange(1, len(flat)) + np.repeat(
            np.arange(len(dirs)) * width - starts, self.lengths)
        self.index = np.zeros(len(dirs) * width, dtype=np.intp)
        self.index[into] = sample_rows[1:]
        self.index = self.index.reshape(-1, width)
        self.phases = np.zeros(len(dirs) * width, dtype=complex)
        self.phases[into] = phase
        self.phases = self.phases.reshape(-1, width)

    def circle_sums(self, values: np.ndarray) -> list:
        """Each stencil's pref * sum of value * phase, added left to right,
        from the value of every row."""
        terms = np.zeros((len(self.lengths), self.index.shape[1] + 1), dtype=complex)
        terms[:, 1:] = _mul(values[self.index], self.phases)
        # the running sum from 0 of a sample-by-sample loop, not np.sum's pairs
        sums = np.cumsum(terms, axis=1)[np.arange(len(self.lengths)), self.lengths]
        return _mul(self.prefs, sums).tolist()


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
