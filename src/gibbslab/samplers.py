"""Samplers for the empirical Gibbs density e^(−γ·f(w)) / Z.

Two kinds: ``sgld`` (Langevin updates, approximate) and ``metropolis``
(exact for the box-truncated target). All chains are bitwise reproducible
from (master_seed, chain_id) via a documented 64-bit seed mix.

The chains step on Python floats. On a target whose landscape declares
coordinate pieces, SGLD runs one scalar recursion per coordinate and
Metropolis steps on one float in d = 1, on two floats in d = 2 and on a
list of d floats in d ≥ 3; on a target without pieces, both step on a list
of d floats and make one numpy call per step.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from operator import add, le
from typing import Callable

import numpy as np

from .errors import ArgumentError, ConditioningError, DivergenceError
from .landscapes import EllipsoidSpec, Landscape

__all__ = [
    "GibbsTarget",
    "ChainBatch",
    "chain_seed",
    "sample_chain",
    "condition_on_region",
    "default_step_size",
    "target_from_landscape",
    "CHAIN_KINDS",
]

CHAIN_KINDS = ("sgld", "metropolis")

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def chain_seed(master_seed: int, chain_id: int) -> int:
    """Per-chain 64-bit seed: splitmix64(splitmix64(master) XOR (chain_id+1)).

    The mix is stated here so any chain can be reproduced in isolation.
    """
    return _splitmix64(_splitmix64(int(master_seed) & _MASK64) ^ ((int(chain_id) + 1) & _MASK64))


@dataclass(frozen=True)
class GibbsTarget:
    """Potential f whose Gibbs density is ∝ e^(−γ f(w)) on the domain box.

    Built by ``target_from_landscape`` as the ridge-regularized risk of a
    landscape; the empirical risk of a sample is the landscape
    ``landscapes.empirical_landscape`` returns. ``value`` accepts (..., d)
    float arrays; ``grad`` and ``hessian`` (the landscape's declared
    regularized Hessian, (d, d)) accept a single point as a float array.

    A landscape that declares coordinate pieces gives its target the
    chains' per-step calls on Python floats, with the bits of ``value`` and
    ``grad``: ``coordinate_slopes``, the d maps with ∂f/∂wₖ =
    coordinate_slopes[k](wₖ) on one float, and ``point_value``, f at one
    point given as a float in d = 1 and as a list of d floats in d ≥ 2.
    SGLD on such a target runs one scalar recursion per coordinate through
    the slopes, and Metropolis steps through ``point_value`` on one float in
    d = 1, on two floats in d = 2 and on a list of d floats in d ≥ 3. When
    they are None the chains step on a list of d floats and call ``value``
    and ``grad`` on a (d,) array.
    """

    dim: int
    domain_box: np.ndarray
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    point_value: Callable[[float | list[float]], float] | None = None
    coordinate_slopes: tuple[Callable[[float], float], ...] | None = None


@dataclass(frozen=True)
class ChainBatch:
    """Samples from one sampler run with full reproducibility metadata."""

    samples: np.ndarray
    kind: str
    master_seed: int
    chain_id: int
    step_size: float
    burn_in: int
    steps: int
    acceptance_rate: float | None = None
    region: EllipsoidSpec | None = None
    retained_fraction: float | None = None

    def __len__(self) -> int:
        return int(self.samples.shape[0])


def target_from_landscape(landscape: Landscape, ridge: float) -> GibbsTarget:
    """Target f = R + λ‖w‖² of a landscape, population or empirical (see
    ``landscapes.empirical_landscape``).

    ``value`` and ``grad`` are the landscape's ``reg_risk`` and
    ``reg_gradient`` with λ bound, and at λ = 0 its own ``risk`` and
    ``gradient``. A landscape that declares coordinate pieces gets a point
    value and coordinate slopes on Python floats built from them
    (``_point_functions``).
    """
    if ridge == 0.0:
        value, grad = landscape.risk, landscape.gradient
    else:
        value = functools.partial(landscape.reg_risk, lam=ridge)
        grad = functools.partial(landscape.reg_gradient, lam=ridge)
    point_value = coordinate_slopes = None
    if landscape.coordinate_risks is not None:
        point_value, coordinate_slopes = _point_functions(
            landscape.coordinate_risks, landscape.coordinate_slopes, ridge
        )
    return GibbsTarget(
        dim=landscape.dimension,
        domain_box=np.array(landscape.domain_box),
        value=value,
        grad=grad,
        hessian=functools.partial(landscape.reg_hessian, lam=ridge),
        point_value=point_value,
        coordinate_slopes=coordinate_slopes,
    )


def _point_functions(risks, slopes, ridge: float) -> tuple[Callable, tuple]:
    """f(w) = Σₖ risks[k](wₖ) + λΣₖwₖ², on a float in d = 1 and on a list of
    d floats in d ≥ 2, and the maps ∂f/∂wₖ = slopes[k](wₖ) + 2λwₖ on a
    float, in the operation order of ``reg_risk`` and ``reg_gradient``;
    at λ = 0 the ridge term is skipped."""
    d = len(risks)
    if ridge != 0.0:
        two_ridge = 2.0 * ridge
        slopes = tuple(lambda x, slope=slope: slope(x) + two_ridge * x for slope in slopes)
    if d == 1:
        (risk,) = risks
        if ridge == 0.0:
            return risk, slopes
        return (lambda x: risk(x) + ridge * (x * x)), slopes
    if d == 2:  # unrolled: the two-float Metropolis walk calls it per proposal in the box
        r0, r1 = risks
        if ridge == 0.0:
            return (lambda w: r0(w[0]) + r1(w[1])), slopes
        return (lambda w: r0(w[0]) + r1(w[1]) + ridge * (w[0] * w[0] + w[1] * w[1])), slopes

    def value(w):
        total = risks[0](w[0])
        for k in range(1, d):
            total += risks[k](w[k])
        if ridge == 0.0:
            return total
        norm2 = w[0] * w[0]
        for k in range(1, d):
            norm2 += w[k] * w[k]
        return total + ridge * norm2

    return value, slopes


def default_step_size(target: GibbsTarget, gamma: float) -> float:
    """Step-size heuristic 0.5/(γ·ρ(H)), with ρ(H) the largest absolute
    eigenvalue of the target's regularized Hessian H at the box centre,
    where every chain starts (for a quadratic target, its one Hessian);
    ρ(H) is floored at 1e-12.
    """
    h = target.hessian(target.domain_box.mean(axis=1))
    lam_max = max(float(np.abs(np.linalg.eigvalsh(h)).max()), 1e-12)
    return 0.5 / (gamma * lam_max)


# Chains draw their randomness in blocks of _BLOCK steps, which fixes the
# stream (see sample_chain). A Metropolis proposal is a uniform draw over
# the domain box with probability _RESTART_PROB.
_BLOCK = 4096
_RESTART_PROB = 0.1


def _sgld_path(target, gamma, step_size, steps, rng):
    d = target.dim
    box = target.domain_box
    width = box[:, 1] - box[:, 0]
    halo_lo, halo_hi = box[:, 0] - 10.0 * width, box[:, 1] + 10.0 * width
    noise_scale = math.sqrt(2.0 * step_size / gamma)
    slopes = target.coordinate_slopes
    grad = lambda w: target.grad(np.array(w)).tolist()
    advance = lambda x, g, z: x - step_size * g + z
    path = np.empty((steps, d))
    w = box.mean(axis=1).tolist()
    for start in range(0, steps, _BLOCK):
        n = min(_BLOCK, steps - start)
        noise = noise_scale * rng.standard_normal((n, d))
        blk = path[start : start + n]
        if slopes is not None:
            # ∂f/∂wₖ reads wₖ alone: d independent recursions on one float,
            # each over its column of the block's noise
            for k, slope in enumerate(slopes):
                x, column = w[k], []
                for z in noise[:, k].tolist():
                    x = x - step_size * slope(x) + z
                    column.append(x)
                w[k] = x
                blk[:, k] = column
        else:
            # the block's iterates as one flat list of floats: numpy converts
            # it about 3x faster than a list of d-lists, and the garbage
            # collector does not track floats
            rows = []
            # a diverging iterate may overflow, or turn NaN, before the
            # block check sees it
            with np.errstate(over="ignore", invalid="ignore"):
                for xi in noise.tolist():
                    w = list(map(advance, w, grad(w), xi))
                    rows.extend(w)
            blk[:] = np.reshape(rows, (n, d))
        # written so that a NaN iterate fails the test too
        inside = ((blk >= halo_lo) & (blk <= halo_hi)).all(axis=1)
        if not inside.all():
            raise DivergenceError(
                f"SGLD iterate of step {start + int(inside.argmin()) + 1} left the domain "
                f"box by more than 10 widths or is NaN (step_size={step_size}); "
                "reduce the step size"
            )
    return path


def _metropolis_path(target, gamma, step_size, steps, rng):
    d = target.dim
    lo, hi = target.domain_box[:, 0], target.domain_box[:, 1]
    value = target.point_value
    walk = _walk_on_list
    if value is None:
        value = lambda w: float(target.value(np.array(w)))
    elif d <= 2:
        walk = _walk_on_float if d == 1 else _walk_on_pair
    bounds = lo.tolist(), hi.tolist()
    path = np.empty((steps, d))
    w = target.domain_box.mean(axis=1).tolist()
    if walk is _walk_on_float:
        (w,) = w
    fw = value(w)
    accepted = 0
    for start in range(0, steps, _BLOCK):
        n = min(_BLOCK, steps - start)
        restart = (rng.random(n) < _RESTART_PROB).tolist()
        uniform = rng.uniform(lo, hi, size=(n, d))
        jump = step_size * rng.standard_normal((n, d))
        log_u = np.log(rng.random(n)).tolist()
        w, fw, hits = walk(
            value, gamma, bounds, w, fw, restart, uniform, jump, log_u, path[start : start + n]
        )
        accepted += hits
    return path, accepted / steps


# The walks run one block of _metropolis_path's steps from the state w with
# fw = value(w): each writes the block's rows of the path into ``out`` and
# returns the last (w, fw) and the number of accepted proposals.
def _walk_on_float(value, gamma, bounds, w, fw, restart, uniform, jump, log_u, out):
    (lo_x,), (hi_x,) = bounds
    accepted, column = 0, []
    for flagged, u, step, lu in zip(restart, uniform[:, 0].tolist(), jump[:, 0].tolist(), log_u):
        cand = u if flagged else w + step
        if lo_x <= cand <= hi_x:
            f_cand = value(cand)
            if lu < -gamma * (f_cand - fw):
                w, fw = cand, f_cand
                accepted += 1
        column.append(w)
    out[:, 0] = column
    return w, fw, accepted


def _walk_on_pair(value, gamma, bounds, w, fw, restart, uniform, jump, log_u, out):
    # w = [x, y]; the state and the proposal stay two floats, and ``value``
    # gets a list only for a proposal inside the box
    (lo_x, lo_y), (hi_x, hi_y) = bounds
    x, y = w
    accepted, xs, ys = 0, [], []
    for flagged, ux, uy, sx, sy, lu in zip(
        restart, uniform[:, 0].tolist(), uniform[:, 1].tolist(),
        jump[:, 0].tolist(), jump[:, 1].tolist(), log_u,
    ):
        if flagged:
            cx, cy = ux, uy
        else:
            cx, cy = x + sx, y + sy
        if lo_x <= cx <= hi_x and lo_y <= cy <= hi_y:
            f_cand = value([cx, cy])
            if lu < -gamma * (f_cand - fw):
                x, y, fw = cx, cy, f_cand
                accepted += 1
        xs.append(x)
        ys.append(y)
    out[:, 0] = xs
    out[:, 1] = ys
    return [x, y], fw, accepted


def _walk_on_list(value, gamma, bounds, w, fw, restart, uniform, jump, log_u, out):
    lo, hi = bounds
    accepted = 0
    rows = []  # flat, as in _sgld_path
    for flagged, box_row, step, lu in zip(restart, uniform.tolist(), jump.tolist(), log_u):
        cand = box_row if flagged else list(map(add, w, step))
        if all(map(le, lo, cand)) and all(map(le, cand, hi)):
            f_cand = value(cand)
            if lu < -gamma * (f_cand - fw):
                w, fw = cand, f_cand
                accepted += 1
        rows.extend(w)
    out[:] = np.reshape(rows, out.shape)
    return w, fw, accepted


def sample_chain(
    kind: str,
    target: GibbsTarget,
    gamma: float,
    step_size: float,
    steps: int,
    burn_in: int,
    master_seed: int,
    chain_id: int = 0,
) -> ChainBatch:
    """Run one chain targeting the Gibbs density of ``target`` at inverse
    temperature γ.

    sgld:       w ← w − η∇f(w) + √(2η/γ)·ξ with standard normal ξ.
    metropolis: symmetric mixture proposal (local Gaussian of scale η,
                probability 0.1 of a uniform draw over the domain box),
                acceptance min(1, e^(−γΔf)); exact for the box-truncated
                target.

    Every chain starts at the box center and draws from
    ``numpy.random.default_rng(chain_seed(master_seed, chain_id))`` only,
    so it is reproduced from (master_seed, chain_id) alone. The steps run
    in blocks of n = min(4096, steps left) steps, and each block makes
    these draws in this order:

    sgld:       ``standard_normal((n, d))``, row i the ξ of step i; the
                same stream as one ``standard_normal(d)`` per step.
    metropolis: ``random(n) < 0.1`` (restart flags),
                ``uniform(lo, hi, (n, d))`` (box proposals),
                η·``standard_normal((n, d))`` (jumps) and
                ``log(random(n))`` (log acceptance uniforms).

    Metropolis step i proposes w′ = its box row if flagged, else w + its
    jump row. A w′ outside the box is rejected without evaluating f; one
    inside is accepted iff its log uniform is below −γ(f(w′) − f(w)), and
    the step records w′ if accepted, else w. SGLD checks each block once
    it is written and raises DivergenceError, naming the step, when an
    iterate in it is NaN or lies more than 10 box widths outside the box.

    Chains step on Python floats. On a target with coordinate slopes, SGLD
    runs the d coordinates' recursions one after the other over the
    block's noise columns, which gives the same iterates, since ∂f/∂wₖ
    reads wₖ alone. Metropolis steps through ``point_value`` on one float
    in d = 1, on two floats in d = 2 (the block's draws split into one
    column per coordinate) and on a list of d floats in d ≥ 3. Without
    point functions, both step on a list of d floats with one call of
    ``grad`` or ``value`` on a (d,) array per step.

    The returned batch holds the ``steps − burn_in`` post-burn-in samples.
    Raises ArgumentError for an unknown kind, a ``steps`` or ``burn_in``
    that is not an integer, steps ≤ burn_in, burn_in < 0, η ≤ 0 or γ ≤ 0.
    """
    if kind not in CHAIN_KINDS:
        raise ArgumentError(f"unknown chain kind {kind!r}; choose from {CHAIN_KINDS}")
    if not (isinstance(steps, numbers.Integral) and isinstance(burn_in, numbers.Integral)):
        raise ArgumentError(
            f"steps and burn_in must be integers, got steps={steps!r}, burn_in={burn_in!r}"
        )
    if not step_size > 0.0:
        raise ArgumentError(f"step size must be positive, got {step_size}")
    if not (steps > burn_in >= 0):
        raise ArgumentError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")

    rng = np.random.default_rng(chain_seed(master_seed, chain_id))
    acceptance_rate = None

    if kind == "sgld":
        samples = _sgld_path(target, gamma, step_size, steps, rng)[burn_in:]
    else:
        path, acceptance_rate = _metropolis_path(target, gamma, step_size, steps, rng)
        samples = path[burn_in:]

    return ChainBatch(
        samples=samples,
        kind=kind,
        master_seed=int(master_seed),
        chain_id=int(chain_id),
        step_size=float(step_size),
        burn_in=int(burn_in),
        steps=int(steps),
        acceptance_rate=acceptance_rate,
    )


def condition_on_region(batch: ChainBatch, region: EllipsoidSpec) -> ChainBatch:
    """Keep the samples inside ``region``.

    Order is preserved; the retained fraction is recorded on the batch as
    an empirical region-mass estimate. Raises ConditioningError when fewer
    than 100 samples survive, since conditional statistics would be
    unreliable.
    """
    if len(batch) == 0:
        raise ArgumentError("cannot condition an empty batch")
    mask = np.asarray(region.contains(batch.samples), dtype=bool)
    retained = batch.samples[mask]
    if retained.shape[0] < 100:
        raise ConditioningError(
            f"only {retained.shape[0]} samples remain after conditioning; "
            "need at least 100"
        )
    return replace(
        batch,
        samples=retained,
        region=region,
        retained_fraction=float(mask.mean()),
    )
