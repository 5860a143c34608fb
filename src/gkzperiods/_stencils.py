"""Cauchy-circle stencils of a run's points as one stacked sample table,
and the cache of the derivatives made from them.

Every derivative a point needs is a full- and a half-radius stencil of
direction circles (see ``_directions``) on a direction set that isolates
it: its own, or for a first derivative the set of a mixed derivative
asked for with it (``_direction_sets``), so a derivative's samples, and
its value to rounding, depend on the derivatives asked for with it.
Which coordinates each sample moves, by which radius, unit step and
circle node, which samples merge into one row, and each stencil's row
index and phases do not depend on the point: ``_template`` builds them
once per tuple of multi-indices, in one dict keyed by each sample's
radius, node and units, and caches them.  A SampleTable writes the rows
of P points on that template with one scatter and takes every circle
sum of every point with the products and left-to-right additions of a
sample-by-sample loop, so each sum is bit-identical to that loop.
Samples merge by structure, never by the bits of their rows, so given
its direction set no value depends on which other samples a table
holds.  The table is the one place rows are deduplicated:
``DerivativeCache.evaluate`` sends the rows it is given to phi in one
batch call and keeps none of them, and ``batch_of`` makes a plain
callable a row loop that returns each row's error as its entry.
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
    real = x.real * y.real - x.imag * y.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _own_set(multi: tuple) -> tuple:
    """The support of multi and its direction set's circle counts: 16 for
    the first support coordinate s0, and for every other one i the
    smallest power of two m_i above max(u_i, q - u_i)."""
    order = sum(multi)
    support = tuple(v for v, q in enumerate(multi) if q > 0)
    return support, (_DIFF_NODES,) + tuple(
        1 << max(multi[i], order - multi[i]).bit_length() for i in support[1:]
    )


def _direction_sets(multis: tuple) -> dict:
    """The direction set (support, circle counts) each of multis is read
    off.  Each keeps its own, except a first-order d_v whose coordinate
    circle no higher pure power of v samples: it reads the mixed set over
    v that has the fewest samples (ties by support, then by counts).  A
    set over v isolates d_v: its counts are at least 2 > max(u_i, 1 - u_i)
    (see _directions)."""
    own = {multi: _own_set(multi) for multi in multis}
    mixed = sorted({s for s in own.values() if len(s[0]) > 1},
                   key=lambda s: (math.prod(s[1]), s))
    sets = {}
    for multi, (support, sizes) in own.items():
        if sum(multi) == 1 and not any(
                s[0] == support for m, s in own.items() if m != multi):
            sets[multi] = next((s for s in mixed if support[0] in s[0]),
                               (support, sizes))
        else:
            sets[multi] = support, sizes
    return sets


@cache
def _directions(multi: tuple, support: tuple, sizes: tuple):
    """The part of the circles for d^multi that does not depend on a, on
    the direction set over ``support`` with circle counts ``sizes``.

    The derivative is pref * sum_k phase[k] * phi(a + step_k), summed in
    sample order.  The first support coordinate s0 moves by its radius;
    every other support coordinate i moves by its radius times an m_i-th
    root of unity.  On each direction h the trapezoid circle gives the
    q-th derivative of t -> phi(a + t h), a sum of (q!/alpha!) h^alpha
    d^alpha phi over |alpha| = q; the discrete Fourier average over the
    directions keeps the alpha with alpha_i = u_i mod m_i for every i but
    s0, that is alpha = multi alone when the support holds multi's and
    m_i > max(u_i, q - u_i) (u_i = 0 off multi's support).  Its own set,
    ``_own_set(multi)``, is the smallest such; a set sampled for another
    derivative serves as well (see ``_direction_sets``).  That average is
    unitary, so it amplifies rounding no more than a tensor grid does.
    Powers of two make a lower order's directions a subset of a higher
    order's, so their samples are shared in one sample table.  With a
    single coordinate there is one direction: the plain coordinate circle.

    Returns the support, the m_i (16 for s0), every sample's phase, and
    per sample and support coordinate, sample-major: the coordinate, the
    unit step (1 for s0) and the circle node.
    """
    order = sum(multi)
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
        np.tile(support, samples),
        np.repeat(units, _DIFF_NODES, axis=0).ravel(),
        np.repeat(np.tile(rot, len(units)), len(support)),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return support, sizes, *arrays


class _Template:
    """The part of a sample table that does not depend on the point.

    Derivative j of ``multis`` owns stencils 2j (full radius) and 2j + 1
    (half radius), the same samples at two radii.  One dict keys every
    sample by its radius, circle node and the (coordinate, unit step) of
    each coordinate it moves; a new key takes the next row after the
    point's own row 0, so rows come in order of first occurrence:
    derivative j's new samples at full radius, then the same at half
    radius.  Equal keys give bit-equal rows at any point, and equal key
    values are equal bits: every node and unit is exp(2 pi i x) at an
    exact binary fraction x (k/16 or j/m), and no part is -0.0.  A
    coincidental bit equality of different keys costs one more evaluation.

    ``index[t, k]`` is the row of stencil t's sample k, padded with row 0
    past ``lengths[t]``, and ``phases`` its phase.  The rows are written
    by scattering ``point[col] + radius[slot] * unit * node`` to ``pos``
    in a point's flattened block of ``block`` rows, where ``slot`` picks
    a radius from the point's full radii followed by its half radii.
    ``prefactors`` holds what each stencil's prefactor takes of it.
    ``probe`` holds, per coordinate and radius, the 16 positions that
    ``SampleTable.frozen`` reads, and ``probe_of`` which of them each
    derivative's stencils sample.  Each derivative reads the samples of
    the direction set ``_direction_sets(among)`` gives it, so its samples
    depend on the derivatives ``among`` holds, but not on which of them
    ``multis`` holds: a warm cache does not move a derivative.
    """

    def __init__(self, multis: tuple, among: tuple):
        n = len(multis[0])
        sets = _direction_sets(among)
        dirs = [_directions(multi, *sets[multi]) for multi in multis]
        self.lengths = np.array([len(d[2]) for d in dirs]).repeat(2)
        self.index = np.zeros((len(self.lengths), self.lengths.max()), dtype=np.intp)
        self.phases = np.zeros(self.index.shape, dtype=complex)
        rows = {}
        for j, (support, _, phase, column, unit, node) in enumerate(dirs):
            s = len(support)
            moves = list(zip(column.tolist(), unit.tolist()))
            nodes = node.tolist()
            for half in (0, 1):
                index = [rows.setdefault((half, nodes[e], *moves[e:e + s]), len(rows) + 1)
                         for e in range(0, len(moves), s)]
                self.index[2 * j + half, :len(index)] = index
                self.phases[2 * j + half, :len(index)] = phase
        self.block = 1 + len(rows)
        # every row's moved coordinates, full-radius rows first
        halves, at, self.col, self.unit, self.node = map(np.array, zip(*sorted(
            ((half, row, v, u, node) for (half, node, *moves), row in rows.items()
             for v, u in moves), key=lambda entry: entry[0])))
        self.slot = self.col + n * halves
        self.pos = at * n + self.col

        # each stencil's multi, support, circle counts and radius offset
        self.prefactors = [(multi, d[0], d[1], half)
                           for multi, d in zip(multis, dirs) for half in (0, n)]
        # in a point's flattened block, each sampled coordinate at each
        # radius in the rows of a first direction that moves it: every
        # stencil moving the coordinate gives it the same 16 values there
        probes = {}
        for t in range(len(self.index)):
            for v in dirs[t // 2][0]:
                probes.setdefault((v, t % 2), self.index[t, :_DIFF_NODES] * n + v)
        self.probe = np.array(list(probes.values()))
        self.probe_col = np.array([v for v, _ in probes])
        self.probe_of = np.array([[v in d[0] for v, _ in probes] for d in dirs])
        # every table of these multis shares them
        for arr in (self.index, self.phases, self.lengths):
            arr.setflags(write=False)


_template = cache(_Template)


class SampleTable:
    """Every circle sample of some derivatives at P points, as arrays.

    ``rows`` is (P, R, n): each point's block is the point (row 0) and its
    merged sample rows, in the order of the cached ``_template(multis,
    among)`` (``among`` is the run's derivatives, multis by default),
    whose ``index``, ``phases`` and ``lengths`` the table shares; they are
    the same at every point.  ``prefs`` (P, stencils) is each stencil's
    prefactor and ``amps`` (P, multis) each derivative's prod q!/rho^q at
    half radius.  The radii and their powers are taken one coordinate at
    a time, as C's hypot and pow give them: numpy's vector abs and power
    round differently.
    """

    def __init__(self, points: np.ndarray, multis, settings: EvalSettings,
                 among=None):
        tpl = _template(tuple(multis), tuple(multis if among is None else among))
        self.index, self.phases, self.lengths = tpl.index, tpl.phases, tpl.lengths
        self.tpl = tpl
        self.prefs = np.empty((len(points), len(tpl.prefactors)), dtype=complex)
        self.amps = np.empty((len(points), len(multis)))
        with np.errstate(all="ignore"):
            mags = np.array([[abs(x) for x in a] for a in points])
            radii = settings.radius_factor * np.maximum(1.0, mags)
            radii = np.concatenate([radii, radii / 2.0], axis=1)
            for p, rho in enumerate(radii):
                for t, (multi, support, counts, half) in enumerate(tpl.prefactors):
                    pref, amp = 1.0 + 0.0j, 1.0
                    for v, m in zip(support, counts):
                        power = rho[v + half] ** multi[v]
                        pref *= math.factorial(multi[v]) / (m * power)
                        amp *= math.factorial(multi[v]) / power
                    self.prefs[p, t] = pref
                    # the half-radius stencil comes second: its amp stays
                    self.amps[p, t // 2] = amp
            self.rows = np.empty((len(points), tpl.block, points.shape[1]),
                                 dtype=complex)
            self.rows[:] = points[:, None]
            step = _mul(_mul(radii[:, tpl.slot].astype(complex), tpl.unit),
                        tpl.node)
            self.rows.reshape(len(points), -1)[:, tpl.pos] = (
                points[:, tpl.col] + step)

    def circle_sums(self, values: np.ndarray) -> np.ndarray:
        """(P, stencils): each stencil's pref * sum of value * phase, added
        left to right, from the (P, R) values of every row."""
        count, width = self.index.shape
        terms = np.zeros((len(values), count, width + 1), dtype=complex)
        with np.errstate(all="ignore"):
            terms[:, :, 1:] = _mul(values[:, self.index], self.phases)
            # the running sum from 0 of a sample-by-sample loop, not np.sum's pairs
            sums = np.cumsum(terms, axis=2)[:, np.arange(count), self.lengths]
            return _mul(self.prefs, sums)

    def frozen(self) -> np.ndarray:
        """(P, multis): whether a stencil of the derivative leaves the real
        or imaginary part of a coordinate it samples where the point has
        it, in all the rows of its first direction, as a radius below the
        part's ulp does; the stencil then samples no circle.  Those rows
        move each coordinate of the direction set by its radius times
        every 16th root of unity, steps of +-rho in both parts; a part
        they leave in place stays there under every other step of the
        stencil, whose parts are no longer."""
        tpl = self.tpl
        flat = self.rows.reshape(len(self.rows), -1)
        rows, at = flat[:, tpl.probe], self.rows[:, 0, tpl.probe_col, None]
        moved = ((rows.real != at.real).any(axis=2)
                 & (rows.imag != at.imag).any(axis=2))
        return (tpl.probe_of & ~moved[:, None]).any(axis=2)

