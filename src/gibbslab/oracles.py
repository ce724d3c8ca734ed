"""Independent ground truth: quadrature and Monte-Carlo estimators.

Nothing here reuses the bound formulas it is meant to check. Every
quadrature rule is composed of one declared 16-point Gauss-Legendre panel
rule, so the quadrature oracles load no scipy subpackage. Quadrature
is restricted to d ≤ 3. The tensor grid's time grows as n^d for n nodes
per dimension, but it streams the grid in blocks of about 32k nodes, so
its memory does not; its region masses converge spectrally only in d = 1.
Nodes where the Gibbs density is exactly 0.0 in double precision are
dropped before exp, so integrands and regions are read only where the
density is nonzero.
A separable potential gets the product rule instead, whose region masses
and complements are nested 1-d rules that converge spectrally in d = 2
and 3 as well. Monte-Carlo estimators return normal-approximation 95%
intervals and assertions on stochastic quantities should use 3σ margins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ArgumentError, ContractError, ResolutionError
from .landscapes import (
    DataModel,
    EllipsoidSpec,
    Landscape,
    MinimumDescriptor,
    _rowdot,
    empirical_landscape,
)
from .samplers import ChainBatch, chain_seed

__all__ = [
    "QuadratureGrid",
    "QuadratureMeasure",
    "tensor_gauss_legendre",
    "quadrature_measure",
    "product_measure",
    "Estimate",
    "empirical_excess_risk",
    "empirical_generalization_gap",
    "irm_objective",
    "DerivativeCheckReport",
    "derivative_check",
]

# The 16-point Gauss-Legendre rule on [-1, 1], declared rather than computed
# (scipy.special.roots_legendre would load scipy.linalg for its eigen-solve,
# about 7 MB of resident memory in every quadrature process): the positive
# nodes in ascending order and their weights, as round-trip decimals. The
# rule is symmetric, so the mirrored arrays hold roots_legendre(16) bit for bit.
_HALF_NODES = (
    0.09501250983763745, 0.2816035507792589, 0.4580167776572274, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_HALF_WEIGHTS = (
    0.1894506104550681, 0.18260341504492328, 0.16915651939500212, 0.14959598881657638,
    0.12462897125553363, 0.09515851168249231, 0.06225352393864763, 0.027152459411756466,
)
_RULE_NODES = np.array([-x for x in _HALF_NODES[::-1]] + list(_HALF_NODES))
_RULE_WEIGHTS = np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS)
_PANEL_ORDER = _RULE_NODES.size
# nodes per block of a streamed tensor grid (whole rows of the leading axis)
_QUAD_BLOCK = 32768
# (trials × examples) per sample block of the generalization gap
_GAP_BLOCK = 32768
# np.exp(x) is exactly 0.0 for every x at or below this cut (it underflows
# below −745.1332), so a node whose exponent −γ(f − f_min) is there carries
# no density; the subnormal band above it is computed
_EXP_ZERO = -746.0


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensorized composite Gauss-Legendre rule over a box, d ≤ 3.

    ``edges`` holds each dimension's panel edges and ``breakpoints`` each
    dimension's coordinates forced onto them, as given to
    ``tensor_gauss_legendre``. ``axes``, each dimension's 1-d rule as
    (nodes, weights), and the tensor ``nodes`` (N, d) and ``weights``
    (N,), in C order with the last axis fastest, are built on first
    access; ``blocks()`` yields the same nodes and weights in slices
    without building the tensor. Weights are positive and sum to the box
    volume to relative 1e-12.
    """

    edges: tuple[np.ndarray, ...]
    domain_box: np.ndarray
    breakpoints: tuple[tuple[float, ...], ...]

    @property
    def dimension(self) -> int:
        return int(self.domain_box.shape[0])

    @property
    def nodes_per_dim(self) -> tuple[int, ...]:
        return tuple(_PANEL_ORDER * (len(e) - 1) for e in self.edges)

    @functools.cached_property
    def axes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(_gl_on_edges(e) for e in self.edges)

    @property
    def nodes(self) -> np.ndarray:
        return self._tensor[0]

    @property
    def weights(self) -> np.ndarray:
        return self._tensor[1]

    @functools.cached_property
    def _tensor(self) -> tuple[np.ndarray, np.ndarray]:
        return self._rows(slice(None))

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (nodes, weights) over whole rows of the leading axis, about
        _QUAD_BLOCK nodes at a time (one row if a row holds more); their
        concatenation is ``nodes`` and ``weights`` exactly."""
        leading, *rest = self.nodes_per_dim
        rows = max(1, _QUAD_BLOCK // math.prod(rest))
        for start in range(0, leading, rows):
            yield self._rows(slice(start, start + rows))

    def _rows(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        (x0, w0), *rest = self.axes
        xs = [x0[rows], *[x for x, _ in rest]]
        shape = tuple(len(x) for x in xs)
        nodes = np.empty((math.prod(shape), len(xs)))
        # fill coordinate column k through the (n0, ..., n_{d-1}, d) view by
        # broadcasting axis k's nodes along the other axes: C order, last
        # axis fastest, one strided pass per column
        tensor = nodes.reshape(*shape, len(xs))
        for k, x in enumerate(xs):
            tensor[..., k] = x.reshape((-1,) + (1,) * (len(xs) - 1 - k))
        w = w0[rows]
        for _, extra in rest:
            w = np.multiply.outer(w, extra)
        return nodes, w.ravel()


@dataclass(frozen=True)
class QuadratureMeasure:
    """One Gibbs measure on a box, read off for a tuple of regions.

    ``masses[i]`` is the probability of region i. ``complement_mass[r]``
    is that of the box outside the union of the regions of radius r (the
    complement of the curvature ellipsoids at one radius).
    ``conditional[name]`` is the box expectation of an integrand and
    ``region_conditional[name][i]`` its expectation given region i (NaN for
    a region with no mass on the grid). ``nodes_per_axis`` holds the nodes
    of each axis on the coarse pass and on its doubling.
    """

    log_z: float
    masses: np.ndarray
    complement_mass: dict[float, float]
    conditional: dict[str, float]
    region_conditional: dict[str, np.ndarray]
    nodes_per_axis: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _panel_edges(lo: float, hi: float, n_nodes: int, breakpoints=()) -> np.ndarray:
    # Panel edges are forced onto the breakpoints so that interval regions
    # are unions of whole panels; masked region masses then converge
    # spectrally instead of stalling at the indicator discontinuity.
    panels = max(1, math.ceil(n_nodes / _PANEL_ORDER))
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    total = hi - lo
    edges = []
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        seg_panels = max(1, round(panels * (seg_hi - seg_lo) / total))
        edges.append(np.linspace(seg_lo, seg_hi, seg_panels + 1)[:-1])
    return np.concatenate(edges + [np.array([hi])])


def _gl_on_edges(edges: np.ndarray):
    """Nodes and weights of the _PANEL_ORDER-point rule on each panel
    [edges[j], edges[j + 1]], panel by panel."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _RULE_NODES[None, :]).ravel()
    weights = (half[:, None] * _RULE_WEIGHTS[None, :]).ravel()
    return nodes, weights


def tensor_gauss_legendre(domain_box, nodes_per_dim, breakpoints=None) -> QuadratureGrid:
    """Build a tensor-product composite Gauss-Legendre grid over a box.

    ``nodes_per_dim`` is an int or per-dimension sequence; the actual
    count is rounded up to whole 16-node panels. ``breakpoints`` is an
    optional per-dimension list of coordinates forced onto panel edges.
    Only the panel edges are laid out here; the grid's 1-d rules and its
    tensor nodes and weights are built on first access.
    """
    box = np.asarray(domain_box, dtype=float)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    d = box.shape[0]
    if d > 3:
        raise ArgumentError(f"tensor quadrature is restricted to d <= 3, got d={d}")
    if isinstance(nodes_per_dim, (int, np.integer)):
        counts = [int(nodes_per_dim)] * d
    else:
        counts = [int(n) for n in nodes_per_dim]
    if breakpoints is None:
        breakpoints = [()] * d
    breakpoints = tuple(tuple(float(b) for b in bps) for bps in breakpoints)
    edges = tuple(
        _panel_edges(lo, hi, n, bps) for (lo, hi), n, bps in zip(box, counts, breakpoints)
    )
    return QuadratureGrid(edges=edges, domain_box=box, breakpoints=breakpoints)


def _region_edges_1d(regions, box: np.ndarray) -> list[float]:
    edges = []
    for e in regions:
        rho = e.radius / math.sqrt(float(e.metric[0, 0]))
        edges.extend([float(e.center[0]) - rho, float(e.center[0]) + rho])
    return [p for p in edges if box[0, 0] < p < box[0, 1]]


def _measure_on_grid(potential, gamma, grid, regions, integrands) -> QuadratureMeasure:
    # One pass over the grid's blocks: acc holds the block sums of
    # e^(−γ(f − f_min))·weight for Z, each radius's complement, each region
    # and each integrand (whole box, then per region), relative to the
    # lowest potential f_min seen so far; a lower one rescales them. No
    # array spans the whole grid: d = 3 grids hold millions of nodes.
    radii = sorted({e.radius for e in regions})
    k, c = len(regions), len(radii)
    acc = np.zeros(1 + c + k + len(integrands) * (1 + k))
    f_min, bad = math.inf, 0
    for nodes, weights in grid.blocks():
        f = np.asarray(potential(nodes), dtype=float)
        block_min = float(f.min())  # NaN if any value is NaN, −inf if any is −inf
        if not block_min > -math.inf:
            bad += f.size - int(np.count_nonzero(f > -math.inf))
        if bad:
            continue
        if block_min == math.inf:  # no density anywhere in this block
            continue
        if block_min < f_min:
            acc *= math.exp(-gamma * (f_min - block_min))
            f_min = block_min
        expo = f - f_min
        expo *= -gamma
        # only nodes whose density is nonzero are read from here on; a
        # gather with take costs a fraction of a boolean mask's copy
        live = np.flatnonzero(expo > _EXP_ZERO)
        if not live.size:
            continue
        if live.size < expo.size:
            nodes, weights, expo = nodes.take(live, axis=0), weights.take(live), expo.take(live)
        dens = np.exp(expo, out=expo)
        dens *= weights
        masks = [np.asarray(e.contains(nodes), dtype=bool) for e in regions]
        sums = [dens.sum()]
        for r in radii:
            inside = np.logical_or.reduce([m for m, e in zip(masks, regions) if e.radius == r])
            sums.append(dens[~inside].sum())
        sums.extend(dens[mask].sum() for mask in masks)
        for g in integrands.values():
            if g is potential:  # its values at the live nodes are known
                values = f if live.size == f.size else f.take(live)
            else:
                values = np.asarray(g(nodes), dtype=float)
            weighted = dens * values
            sums.append(weighted.sum())
            sums.extend(weighted[mask].sum() for mask in masks)
        acc += sums
    if bad:
        raise ArgumentError(
            f"potential is NaN or -inf at {bad} of {math.prod(grid.nodes_per_dim)} grid nodes"
        )
    if f_min == math.inf:
        raise ArgumentError("potential is +inf at every grid node: the Gibbs density is zero")
    total = acc[0]
    region_totals = acc[1 + c : 1 + c + k]
    conditional, region_conditional = {}, {}
    for j, name in enumerate(integrands):
        base = 1 + c + k + j * (1 + k)
        conditional[name] = float(acc[base] / total)
        with np.errstate(invalid="ignore"):
            region_conditional[name] = acc[base + 1 : base + 1 + k] / region_totals
    return QuadratureMeasure(
        log_z=math.log(total) - gamma * f_min,
        masses=region_totals / total,
        complement_mass={r: float(acc[1 + i] / total) for i, r in enumerate(radii)},
        conditional=conditional,
        region_conditional=region_conditional,
    )


def _values(meas: QuadratureMeasure) -> np.ndarray:
    return np.concatenate(
        [[meas.log_z], meas.masses, list(meas.complement_mass.values()),
         list(meas.conditional.values()), *meas.region_conditional.values()]
    )


def _empty_region_conditionals(meas: QuadratureMeasure) -> np.ndarray:
    """True where ``_values`` holds the conditional of a region of zero mass."""
    head = 1 + len(meas.masses) + len(meas.complement_mass) + len(meas.conditional)
    empty = meas.masses == 0.0
    return np.concatenate([np.zeros(head, dtype=bool), *[empty] * len(meas.region_conditional)])


def quadrature_measure(
    potential: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    grid: QuadratureGrid,
    regions: Sequence[EllipsoidSpec] = (),
    integrands: dict[str, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> QuadratureMeasure:
    """The Gibbs density e^(−γ·potential) on the grid's box, read off once.

    Returns log Z, the mass of each region, for each radius among the
    regions the mass outside the union of the regions of that radius, and
    for each batched integrand g(w) its box expectation and its
    expectation given each region. In d = 1 the region boundaries join
    the grid's breakpoints as panel edges, so masked masses converge
    spectrally.

    The potential is evaluated on the grid and on one with doubled
    resolution and the same panel edges; if any returned value moves by more than 1e-6 relative,
    ResolutionError is raised with a suggested node count. The fine-grid
    values are returned. A potential that is NaN or −inf at any node, or
    +inf at every node, raises ArgumentError; +inf elsewhere is zero
    density.

    Each grid is read in one pass over blocks of about 32k nodes, so
    memory does not grow with the node count; time still grows as n^d.
    Nodes where the density e^(−γ(f − f_min)) is exactly 0.0 (exponent at
    or below −746) are dropped right after the potential, before exp:
    integrands and regions are read only where the density is nonzero, so
    a NaN or infinite integrand value at a zero-density node is never seen.
    An integrand that is the potential object itself is not called again:
    its values are the potential's at those nodes.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    regions, integrands = list(regions), integrands or {}
    breakpoints = grid.breakpoints
    if regions and grid.dimension == 1:
        # the given grid's rules are never built: only its node count is read
        breakpoints = [breakpoints[0] + tuple(_region_edges_1d(regions, grid.domain_box))]
        grid = tensor_gauss_legendre(grid.domain_box, grid.nodes_per_dim, breakpoints)
    coarse = _measure_on_grid(potential, gamma, grid, regions, integrands)
    fine_grid = tensor_gauss_legendre(
        grid.domain_box, [2 * n for n in grid.nodes_per_dim], breakpoints
    )
    fine = _measure_on_grid(potential, gamma, fine_grid, regions, integrands)
    _check_doubling(coarse, fine, grid.nodes_per_dim)
    return replace(fine, nodes_per_axis=(grid.nodes_per_dim, fine_grid.nodes_per_dim))


def _check_doubling(coarse: QuadratureMeasure, fine: QuadratureMeasure, nodes) -> None:
    """ResolutionError, suggesting 4x ``nodes``, unless every returned value
    of the doubled rule lies within 1e-6 relative of the coarse one. The
    message names one integer, the largest suggested count, as the config
    key ``oracle.nodes_per_dim`` takes it; ``suggested_nodes`` keeps the
    per-axis tuple."""
    old, new = _values(coarse), _values(fine)
    scale = np.maximum(np.maximum(np.abs(old), np.abs(new)), 1e-300)
    rel = np.abs(old - new) / scale
    # a region without mass on either grid has a NaN conditional; its mass
    # drift is checked. Any other NaN fails the check.
    skip = _empty_region_conditionals(coarse) | _empty_region_conditionals(fine)
    drift = float(np.max(rel[~(skip & np.isnan(rel))], initial=0.0))
    if not drift <= 1e-6:
        suggested = tuple(4 * n for n in nodes)
        raise ResolutionError(
            f"quadrature grid under-resolved (max relative drift {drift:.3e} "
            f"on doubling); retry with nodes_per_dim={max(suggested)}",
            suggested_nodes=suggested,
        )


def _dyadic_sums(values: np.ndarray) -> list[np.ndarray]:
    """The sums of every run of 2^k consecutive entries along the last axis,
    for each k with 2^k <= its length: entry i of the k-th array sums
    values[..., i : i + 2^k]."""
    table = [values]
    while 2 ** len(table) <= values.shape[-1]:
        half = 2 ** (len(table) - 1)
        table.append(table[-1][..., :-half] + table[-1][..., half:])
    return table


class _Axis:
    """One coordinate's normalized 1-d Gibbs density e^(−γφ(x))/Z on its box
    interval [lo, hi], with the partial moments of per-coordinate integrands.

    The density is integrated by composite Gauss-Legendre panels. The
    integral over an interval is its whole panels, summed from dyadic runs
    so that it stays accurate relative to the interval in the tails, plus
    a fresh rule on a partial panel.
    """

    def __init__(self, potential, integrands, gamma: float, lo: float, hi: float, nodes: int):
        self.potential, self.integrands, self.gamma = potential, integrands, gamma
        self.lo, self.hi = lo, hi
        self.edges = _panel_edges(lo, hi, nodes)
        x, w = _gl_on_edges(self.edges)
        self.nodes = len(x)
        f = self._potential(x)
        self.f_min = float(f.min())
        if self.f_min == math.inf:
            raise ArgumentError("potential is +inf at every grid node: the Gibbs density is zero")
        dens = np.exp(-gamma * (f - self.f_min)) * w
        total = float(dens.sum())
        self.log_total = math.log(total)
        self.log_z = self.log_total - gamma * self.f_min
        panels = np.stack([dens, *(dens * g(x) for g in integrands)]) / total
        panels = panels.reshape(len(panels), -1, _PANEL_ORDER).sum(axis=-1)
        self.means = panels[1:].sum(axis=-1)
        # cumulative[:, j]: panels before j; tail[:, j]: panels j on
        self.cumulative = np.pad(np.cumsum(panels, axis=-1), [(0, 0), (1, 0)])
        self.tail = np.pad(np.cumsum(panels[:, ::-1], axis=-1)[:, ::-1], [(0, 0), (0, 1)])
        self.runs = _dyadic_sums(panels)

    def _potential(self, x: np.ndarray) -> np.ndarray:
        f = np.asarray(self.potential(x), dtype=float)
        if not f.min(initial=math.inf) > -math.inf:  # NaN or −inf somewhere
            bad = f.size - int(np.count_nonzero(f > -math.inf))
            raise ArgumentError(f"potential is NaN or -inf at {bad} of {f.size} axis nodes")
        return f

    def density(self, x: np.ndarray) -> np.ndarray:
        """The density at points x of [lo, hi]."""
        p = self._potential(x)
        p -= self.f_min
        p *= -self.gamma
        p -= self.log_total
        return np.exp(p, out=p)

    def _rule(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """One panel rule on each [start, end] inside a panel. Rows: the
        mass, then the partial moment of each integrand."""
        half = 0.5 * (end - start)
        x = (0.5 * (end + start))[..., None] + half[..., None] * _RULE_NODES
        p = self.density(x)
        w = _RULE_WEIGHTS
        return np.stack([p @ w, *((p * g(x)) @ w for g in self.integrands)]) * half

    def _tiled(self, first: np.ndarray, stop: np.ndarray, rows) -> np.ndarray:
        """Rows ``rows`` (as in density()) of the whole panels first ..
        stop − 1, as the sum of the dyadic runs that tile the range: the
        mass is then a sum of positive terms, accurate relative to the
        range however small it is against the mass on either side, which
        no difference of prefix sums is."""
        total = 0.0
        start, left = first.copy(), stop - first
        for k in range(len(self.runs) - 1, -1, -1):
            take = (left >> k) & 1 == 1
            total = total + np.where(take, self.runs[k][rows, np.where(take, start, 0)], 0.0)
            start += take << k
        return total

    def split(self, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gaps [lo, l₀], [h₀, l₁], ..., [h_last, hi] and the chords
        [lᵢ, hᵢ] of sorted disjoint chords ``cuts`` = (l₀, h₀, l₁, h₁, ...)
        along the first axis, each clipped to [lo, hi]: the gaps' masses,
        shape (chords + 1, q), and the chords' rows as in density(), shape
        (chords, rows, q).

        One rule per cut integrates its partial panel on the gap side, so
        a gap, whose mass in the tails is the complement, is a sum of
        positive terms; a chord is its panels less those gap-side parts.
        The first and the last chord's panels are a difference of prefix or
        of suffix sums, whichever leaves out less mass, so a light well
        beside a heavy one keeps its digits; an inner chord, which may lie
        between two heavy wells, tiles its panels with dyadic runs.
        """
        x = np.clip(cuts, self.lo, self.hi)
        last = len(self.edges) - 2
        j = np.minimum(np.searchsorted(self.edges, x, side="right") - 1, last)
        low = np.arange(len(x)) % 2 == 0
        start = np.where(low[:, None], self.edges[j], x)
        end = np.where(low[:, None], x, self.edges[j + 1])
        parts = self._rule(start, end)
        to_low, from_high = parts[:, 0::2], parts[:, 1::2]
        # chord i's whole panels run from j[2i] to j[2i + 1]
        a, b = j[0::2], j[1::2] + 1
        whole = np.where(
            self.cumulative[0, a] <= self.tail[0, b],
            self.cumulative[:, b] - self.cumulative[:, a],
            self.tail[:, a] - self.tail[:, b],
        )
        if len(a) > 2:
            whole[:, 1:-1] = self._tiled(a[1:-1], b[1:-1], slice(None))
        chords = whole - to_low - from_high
        # gap i runs from high cut i − 1 (or lo) to low cut i (or hi); the
        # outer two are one-sided sums, the middle ones tile their panels
        first, stop = j[1:-1:2] + 1, j[2::2]
        gaps = np.concatenate([
            (self.cumulative[0, j[0]] + to_low[0, 0])[None],
            from_high[0, :-1] + self._tiled(first, np.maximum(first, stop), 0) + to_low[0, 1:],
            (from_high[0, -1] + self.tail[0, j[-1] + 1])[None],
        ])
        # a middle gap inside one panel gets its own rule instead
        same = first > stop
        if np.any(same):
            gaps[1:-1][same] = self._rule(x[1:-1:2][same], x[2::2][same])[0]
        return gaps, chords.swapaxes(0, 1)


# Panels of the nested rule along one ellipsoid coordinate x = c + s·sin θ,
# in the whitened coordinate u = √(γ·h)·(x − c) of a well of curvature h:
# at most _CHORD_DU wide in u while |u| < _CHORD_U, where the mass of a
# well lies; at most _CHORD_DTHETA wide in θ everywhere, for the
# complement's integrand; and halving towards θ = ±π/2 down to
# _CHORD_END / R for a chord of whitened radius R, where the density of a
# well that is not Gaussian leaves the complement's integrand a peak of
# that width at the chord ends. All three halve on the doubled pass.
_CHORD_DU = 8.0
_CHORD_U = 12.0
_CHORD_DTHETA = math.pi / 4.0
_CHORD_END = 4.0
# slices per block of the nested rule: 128k nodes, 1 MB per array, in the
# partial-panel rules of one chord per slice
_SLICE_BLOCK = 4096


def _chord_rule(whitened_radius: float, refine: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin θ, cos θ·weight) at the nodes θ < 0 of a composite rule over
    [−π/2, π/2] symmetric about 0, for ∫ f(c + s·sin θ)·s·cos θ dθ =
    ∫_{c−s}^{c+s} f dx; the node −θ carries the same weight.

    The substitution removes the square-root ends of a chord length. A
    chord of an ellipsoid of radius r whose metric is the curvature h of
    its well spans at most |u| ≤ r·√γ = ``whitened_radius``.
    """
    du, dtheta = _CHORD_DU / refine, _CHORD_DTHETA / refine
    u_top = min(whitened_radius, _CHORD_U)
    steps = math.ceil(0.5 * math.pi / dtheta)
    ends = []
    gap = 0.5 * dtheta
    while gap * whitened_radius > _CHORD_END / refine:
        ends.append(0.5 * math.pi - gap)
        gap *= 0.5
    edges = np.unique(np.concatenate([
        np.arcsin(np.arange(0.0, u_top, du) / whitened_radius),
        np.linspace(0.0, 0.5 * math.pi, steps + 1),
        ends,
    ]))
    theta, weight = _gl_on_edges(-edges[::-1])
    return np.sin(theta), np.cos(theta) * weight


def _nested(axes, k, members, t, w, wg, chord, masses, moments) -> float:
    """Σ over slices of w × the mass, along coordinates k.., outside the
    member ellipsoids; adds each member's mass and integrand moments.

    A slice fixes coordinates < k. ``t`` (one entry per slice) is the
    squared radius the members keep there, the same for all of them since
    they share their centre and curvature along coordinates < k; ``w`` is
    the slice's weight and ``wg`` (one row per integrand) its weight times
    the sum of the integrands over the fixed coordinates. Members with a
    different centre or curvature along k split into groups, whose chords
    must be disjoint. ``chord`` is the rule of ``_chord_rule`` along every
    coordinate but the last.
    """
    if len(t) > _SLICE_BLOCK:
        # blocks of slices keep the rules below them small in memory
        return sum(
            _nested(
                axes, k, members, t[i : i + _SLICE_BLOCK], w[i : i + _SLICE_BLOCK],
                wg[:, i : i + _SLICE_BLOCK], chord, masses, moments,
            )
            for i in range(0, len(t), _SLICE_BLOCK)
        )
    axis = axes[k]
    groups: dict[tuple[float, float], list[int]] = {}
    for index, center, metric in members:
        groups.setdefault((float(center[k]), float(metric[k])), []).append(index)
    keys = sorted(groups)
    spans = [np.sqrt(t / h) for _, h in keys]
    cuts = np.stack([c + sign * s for (c, _), s in zip(keys, spans) for sign in (-1.0, 1.0)])
    if np.any(cuts[2::2] < cuts[1:-1:2]):
        raise ArgumentError(
            f"the extents of regions of one radius along coordinate {k} overlap; "
            "the product rule needs them equal or disjoint"
        )
    gaps, chords = axis.split(cuts)
    outside = float(np.dot(gaps.sum(axis=0), w))
    if k == len(axes) - 1:
        for key, chord_vals in zip(keys, chords):
            for index in groups[key]:
                masses[index] += float(np.dot(chord_vals[0], w))
                moments[:, index] += (wg * chord_vals[0] + w * chord_vals[1:]).sum(axis=-1)
        return outside
    sin, cos_w = chord
    for (c, h), s in zip(keys, spans):
        offset = s[:, None] * sin
        x = np.stack([c + offset, c - offset])
        inside = (x >= axis.lo) & (x <= axis.hi)
        x = np.where(inside, x, c)
        p = np.where(inside, axis.density(x), 0.0)
        # the node pair ±θ shares the squared radius t·cos²θ left inside
        scale = s[:, None] * cos_w
        pair = p.sum(axis=0)
        child_w = (pair * scale * w[:, None]).ravel()
        child_wg = np.empty((len(wg), child_w.size))
        for j, g in enumerate(axis.integrands):
            moment = pair * wg[j][:, None] + (p * g(x)).sum(axis=0) * w[:, None]
            child_wg[j] = (moment * scale).ravel()
        outside += _nested(
            axes,
            k + 1,
            [m for m in members if m[0] in groups[(c, h)]],
            (t[:, None] * (1.0 - sin * sin)).ravel(),
            child_w,
            child_wg,
            chord,
            masses,
            moments,
        )
    return outside


def _product_pass(potentials, integrands, gamma, box, nodes, regions, refine) -> QuadratureMeasure:
    axes = [
        _Axis(potentials[k], [pieces[k] for pieces in integrands.values()], gamma, lo, hi, n)
        for k, ((lo, hi), n) in enumerate(zip(box, nodes))
    ]
    masses = np.zeros(len(regions))
    moments = np.zeros((len(integrands), len(regions)))
    complement = {}
    for r in sorted({e.radius for e in regions}):
        members = [
            (i, np.asarray(e.center, dtype=float), np.diagonal(e.metric))
            for i, e in enumerate(regions)
            if e.radius == r
        ]
        complement[r] = _nested(
            axes, 0, members, np.array([r * r]), np.ones(1), np.zeros((len(integrands), 1)),
            _chord_rule(r * math.sqrt(gamma), refine), masses, moments,
        )
    conditional, region_conditional = {}, {}
    for j, name in enumerate(integrands):
        conditional[name] = float(sum(axis.means[j] for axis in axes))
        with np.errstate(invalid="ignore"):
            region_conditional[name] = moments[j] / masses
    return QuadratureMeasure(
        log_z=float(sum(axis.log_z for axis in axes)),
        masses=masses,
        complement_mass=complement,
        conditional=conditional,
        region_conditional=region_conditional,
        nodes_per_axis=tuple(axis.nodes for axis in axes),
    )


def product_measure(
    potentials: Sequence[Callable[[np.ndarray], np.ndarray]],
    gamma: float,
    domain_box,
    nodes_per_dim: int,
    regions: Sequence[EllipsoidSpec] = (),
    integrands: dict[str, Sequence[Callable[[np.ndarray], np.ndarray]]] | None = None,
) -> QuadratureMeasure:
    """``quadrature_measure`` for a separable potential Σₖ φₖ(wₖ) on a box,
    d ≤ 3: the Gibbs density is then a product of 1-d densities.

    ``potentials[k]`` maps an array of coordinate-k values to φₖ, and each
    integrand is given the same way, as its d coordinate pieces gₖ with
    g(w) = Σₖ gₖ(wₖ). log Z and the box expectations are sums of 1-d
    composite Gauss-Legendre integrals of ``nodes_per_dim`` nodes on every
    axis (one int for all axes). Regions must be axis-aligned ellipsoids
    (diagonal metric) whose metric is the curvature of the well they cover.
    Within any slice that fixes the coordinates before k, the extents along
    k of the regions of one radius must be equal or disjoint, else
    ArgumentError: the curvature ellipsoids of the lattice of minima of a
    separable landscape at r ≤ r0 always are. A region's mass and integrand
    moments are nested 1-d rules over its coordinates, x = c + s·sin θ along
    all but the last, whose panels resolve the well width 1/√(γ·h), with
    the 1-d interval mass or partial moment innermost. The complement at
    each radius is integrated directly, as the mass of the gaps between
    chords at every level, never as 1 − Σ masses, which would lose its
    relative accuracy when it is small.

    The same doubling check as ``quadrature_measure``: every returned value
    within 1e-6 relative between the rules and their doubling (twice the
    nodes per axis, half the panel widths of the nested rules), else
    ResolutionError. A NaN or −inf potential raises ArgumentError.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    box = np.asarray(domain_box, dtype=float).reshape(-1, 2)
    d = box.shape[0]
    if d > 3 or len(potentials) != d:
        raise ArgumentError(
            f"need one potential per axis of a box with d <= 3, got {len(potentials)} for d={d}"
        )
    regions, integrands = list(regions), dict(integrands or {})
    for e in regions:
        metric = np.asarray(e.metric, dtype=float)
        if np.any(metric != np.diag(np.diagonal(metric))):
            raise ArgumentError("the product rule needs axis-aligned regions (diagonal metric)")
    coarse = _product_pass(
        potentials, integrands, gamma, box, [int(nodes_per_dim)] * d, regions, 1
    )
    doubled = [2 * n for n in coarse.nodes_per_axis]
    fine = _product_pass(potentials, integrands, gamma, box, doubled, regions, 2)
    _check_doubling(coarse, fine, coarse.nodes_per_axis)
    return replace(fine, nodes_per_axis=(coarse.nodes_per_axis, fine.nodes_per_axis))


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a normal-approximation 95% interval."""

    value: float
    halfwidth_95: float
    n: int

    @property
    def std_error(self) -> float:
        return 0.5 * self.halfwidth_95


def _mean_estimate(values: np.ndarray) -> Estimate:
    """The mean of ``values`` with its 95% half-width 2·s/√n (inf for one value)."""
    n = values.size
    return Estimate(
        value=float(values.mean()),
        halfwidth_95=float(2.0 * values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf,
        n=n,
    )


def empirical_excess_risk(
    landscape: Landscape,
    minimum: MinimumDescriptor,
    batch: ChainBatch,
    r: float,
) -> Estimate:
    """Monte-Carlo conditional excess risk E[R(w) − R(w*) | w in the ellipsoid].

    The batch must already be conditioned on the minimum's curvature
    ellipsoid of radius r: its region's centre, metric and radius are
    checked against the minimum's location, ``reg_hessian`` and r
    (ContractError otherwise).

    The 95% half-width is 2·s/√n over the batch's n draws, which treats
    them as independent. A chain's draws are not: they correlate, so the
    half-width understates the error of a chain's mean (on the section-3
    chain of ``demos/samplers_vs_density.py`` the batch-means standard
    error is 2.1× the i.i.d. one). A half-width from the effective sample
    size would account for this; this one does not.
    """
    region = batch.region
    if region is None:
        raise ContractError("batch must be conditioned on the minimum's ellipsoid")
    if (
        not np.allclose(region.center, minimum.location)
        or not np.allclose(region.metric, minimum.reg_hessian)
        or not math.isclose(region.radius, r, rel_tol=1e-12, abs_tol=1e-15)
    ):
        raise ContractError(
            "batch was conditioned on a different region than the requested ellipsoid"
        )
    risk_star = float(landscape.risk(minimum.location))
    return _mean_estimate(np.asarray(landscape.risk(batch.samples), dtype=float) - risk_star)


def empirical_generalization_gap(
    data_model: DataModel,
    gamma: float,
    ridge: float,
    m: int,
    trials: int,
    master_seed: int,
    steps: int = 2000,
) -> Estimate:
    """Cross-trial estimate of E_S E_w[R(w) − R̂_S(w)] for a data model
    declared quadratic (see ``DataModel.quadratic``); no chain runs.

    Trial t draws a fresh size-m sample from its own stream
    ``default_rng(chain_seed(master_seed, 2t))`` and averages the
    per-example gaps gᵢ(w) = R(w) − ℓ(w, zᵢ) over the examples and over w
    from the Gibbs density of its regularized empirical risk, N(c, (γH)⁻¹)
    with c its minimizer and H its Hessian. Every gᵢ is a quadratic in w,
    so Σᵢ E gᵢ(w) = Σᵢgᵢ(c) + ½⟨Σᵢ∇²gᵢ(c), (γH)⁻¹⟩ exactly. This is the
    mean of the untruncated Gaussian, which ignores the domain box.

    The trials' samples are stacked into blocks of about 32k (trial,
    example) pairs, or of one trial when m is larger, so memory does not
    grow with ``trials`` × m. Each block takes every trial's H and c (one
    Newton step from w = 0) from one ``loss_gradient`` and one
    ``loss_hessian`` call, and both terms from one ``loss`` and one
    ``loss_hessian`` call at the trials' c, differenced per example
    against the landscape's risk and Hessian there, so an
    example-independent loss gives exactly zero. The arrays that
    ``data_model.loss`` and ``loss_hessian`` return are only read (one may
    be a read-only view).

    Raises ArgumentError for γ ≤ 0, λ < 0, trials < 50, m < 1, a model not
    declared quadratic, or a trial whose H is not positive definite (the
    message names the first). ``steps`` is accepted and not read.
    """
    # steps is kept only because bench/make_reference.py passes it
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    if not ridge >= 0.0:
        raise ArgumentError(f"ridge weight must be nonnegative, got {ridge}")
    if trials < 50:
        raise ArgumentError(f"need at least 50 trials, got {trials}")
    if m < 1:
        raise ArgumentError(f"need a nonempty sample, got m={m}")
    if not data_model.quadratic:
        raise ArgumentError(f"data model {data_model.name!r} is not declared quadratic")
    land = data_model.landscape
    w0 = np.zeros(land.dimension)
    ridge_hess = 2.0 * ridge * np.eye(land.dimension)
    gaps = np.empty(trials)
    rows = max(1, _GAP_BLOCK // m)
    for first in range(0, trials, rows):
        samples = np.stack([
            data_model.sample_examples(np.random.default_rng(chain_seed(master_seed, 2 * t)), m)
            for t in range(first, min(first + rows, trials))
        ])
        grad = np.mean(data_model.loss_gradient(w0, samples), axis=-2)
        hess = np.mean(data_model.loss_hessian(w0, samples), axis=-3) + ridge_hess
        smallest = np.linalg.eigvalsh(hess)[:, 0]
        if not np.all(smallest > 0.0):
            t = np.flatnonzero(~(smallest > 0.0))[0]
            raise ArgumentError(
                f"trial {first + t}: the regularized empirical Hessian has smallest "
                f"eigenvalue {smallest[t]:.3g}, so the Gibbs density is not Gaussian; "
                "use a positive ridge"
            )
        # one Newton step from w = 0 lands on the minimizer of a quadratic f
        center = -np.linalg.solve(hess, grad[..., None])[..., 0]
        # differencing per example keeps both terms of an example-independent
        # loss exactly zero
        value = np.sum(land.risk(center)[:, None] - data_model.loss(center, samples), axis=-1)
        curv = np.sum(
            land.hessian(center)[:, None] - data_model.loss_hessian(center, samples), axis=-3
        )
        curv_term = 0.5 * np.sum(curv * np.linalg.inv(gamma * hess), axis=(-2, -1))
        gaps[first : first + len(samples)] = (value + curv_term) / m
    return _mean_estimate(gaps)


def irm_objective(
    density_on_grid: np.ndarray,
    potential: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    ridge: float,
    grid: QuadratureGrid,
) -> float:
    """Information-risk objective E_p[f] + (1/γ)·KL(p ‖ reference Gaussian).

    ``potential`` is the unregularized empirical risk; the reference is
    the centered Gaussian with precision 2γλ·I, whose exponent matches the
    ridge term of the Gibbs density. The Gibbs density restricted to the
    grid attains the minimum among all grid densities. KL uses the
    0·ln 0 = 0 convention.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    if not ridge > 0.0:
        raise ArgumentError("the reference Gaussian needs a positive ridge weight")
    p = np.asarray(density_on_grid, dtype=float)
    if p.shape != grid.weights.shape:
        raise ArgumentError("density must be evaluated on the grid nodes")
    if np.any(p < 0.0):
        raise ArgumentError("density must be nonnegative")
    mass = float(np.sum(grid.weights * p))
    if abs(mass - 1.0) > 1e-9:
        raise ArgumentError(f"density must integrate to 1 on the grid, got {mass}")
    d = grid.dimension
    precision = 2.0 * gamma * ridge
    sq = _rowdot(grid.nodes, grid.nodes)
    log_ref = 0.5 * d * math.log(precision / (2.0 * math.pi)) - 0.5 * precision * sq
    f_vals = np.asarray(potential(grid.nodes), dtype=float)
    positive = p > 0.0
    kl_terms = np.zeros_like(p)
    kl_terms[positive] = p[positive] * (np.log(p[positive]) - log_ref[positive])
    expected_risk = float(np.sum(grid.weights * p * f_vals))
    kl = float(np.sum(grid.weights * kl_terms))
    return expected_risk + kl / gamma


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Worst-case finite-difference errors over the probe set."""

    max_gradient_error: float
    max_hessian_error: float
    worst_probe: np.ndarray

    @property
    def max_error(self) -> float:
        return max(self.max_gradient_error, self.max_hessian_error)


def derivative_check(
    obj: Landscape | DataModel,
    probes: np.ndarray | None = None,
    n_probes: int = 25,
) -> DerivativeCheckReport:
    """Central finite differences against the analytic gradient and Hessian.

    Uses step h = 1e-4·(1 + ‖w‖) and reports the maximum relative error
    (scaled by max(1, ‖analytic‖_∞)) over interior probe points. A data
    model is checked through its empirical landscape on 3 examples drawn
    before the probes, both from a generator seeded with 20260809.
    """
    rng = np.random.default_rng(20260809)
    land = obj
    if isinstance(obj, DataModel):
        land = empirical_landscape(obj, obj.sample_examples(rng, 3))
    if probes is None:
        lo = land.domain_box[:, 0]
        hi = land.domain_box[:, 1]
        width = hi - lo
        probes = lo + 0.05 * width + 0.9 * width * rng.random((n_probes, land.dimension))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))

    worst_g, worst_h, worst_probe = 0.0, 0.0, probes[0]
    for w in probes:
        h_step = 1e-4 * (1.0 + float(np.linalg.norm(w)))
        g_ana = np.atleast_1d(land.gradient(w)).astype(float)
        h_ana = np.atleast_2d(land.hessian(w)).astype(float)
        g_fd = np.empty_like(g_ana)
        h_fd = np.empty_like(h_ana)
        for k in range(land.dimension):
            e = np.zeros(land.dimension)
            e[k] = h_step
            g_fd[k] = (float(land.risk(w + e)) - float(land.risk(w - e))) / (2.0 * h_step)
            h_fd[:, k] = (
                np.atleast_1d(land.gradient(w + e)).astype(float)
                - np.atleast_1d(land.gradient(w - e)).astype(float)
            ) / (2.0 * h_step)
        g_err = float(np.abs(g_fd - g_ana).max()) / max(1.0, float(np.abs(g_ana).max()))
        h_err = float(np.abs(h_fd - h_ana).max()) / max(1.0, float(np.abs(h_ana).max()))
        if max(g_err, h_err) > max(worst_g, worst_h):
            worst_probe = w
        worst_g = max(worst_g, g_err)
        worst_h = max(worst_h, h_err)
    return DerivativeCheckReport(
        max_gradient_error=worst_g,
        max_hessian_error=worst_h,
        worst_probe=worst_probe,
    )
