"""Samplers for the empirical Gibbs density e^(−γ·f(w)) / Z.

Three kinds: ``sgld`` (Langevin updates, approximate), ``metropolis``
(exact for the box-truncated target) and ``exact_gaussian`` (i.i.d. draws,
valid only for quadratic potentials). All chains are bitwise reproducible
from (master_seed, chain_id) via a documented 64-bit seed mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    ArgumentError,
    ConditioningError,
    DivergenceError,
    SamplerKindError,
)
from .landscapes import DataModel, EllipsoidSpec, Landscape

__all__ = [
    "GibbsTarget",
    "ChainBatch",
    "chain_seed",
    "sample_chain",
    "condition_on_region",
    "default_step_size",
    "target_from_landscape",
    "target_from_sample",
    "CHAIN_KINDS",
]

CHAIN_KINDS = ("sgld", "metropolis", "exact_gaussian")

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

    ``value`` accepts (..., d) batches; ``grad`` accepts a single point.
    ``quadratic`` carries (minimizer, Hessian of f) when f is declared
    exactly quadratic with a positive definite Hessian, which enables the
    exact_gaussian kind.
    """

    dim: int
    domain_box: np.ndarray
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    quadratic: tuple[np.ndarray, np.ndarray] | None = None


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
    region_complement: bool = False
    retained_fraction: float | None = None

    def __len__(self) -> int:
        return int(self.samples.shape[0])


def _gaussian_pair(grad0: np.ndarray, hess0: np.ndarray):
    """(minimizer, Hessian) of a quadratic potential from its gradient and
    Hessian at w = 0; None unless the Hessian is positive definite."""
    if np.linalg.eigvalsh(hess0)[0] <= 0.0:
        return None
    w0 = np.zeros(hess0.shape[0])
    return w0 - np.linalg.solve(hess0, grad0), hess0


def target_from_landscape(landscape: Landscape, ridge: float) -> GibbsTarget:
    """Population target f = R + λ‖w‖² (useful for sampler-vs-quadrature checks)."""
    quadratic = None
    if landscape.quadratic:
        w0 = np.zeros(landscape.dimension)
        quadratic = _gaussian_pair(
            landscape.reg_gradient(w0, ridge), landscape.reg_hessian(w0, ridge)
        )
    return GibbsTarget(
        dim=landscape.dimension,
        domain_box=np.array(landscape.domain_box),
        value=lambda w: landscape.reg_risk(w, ridge),
        grad=lambda w: landscape.reg_gradient(np.asarray(w, dtype=float), ridge),
        quadratic=quadratic,
    )


def target_from_sample(data_model: DataModel, sample: np.ndarray, ridge: float) -> GibbsTarget:
    """Empirical target f = (1/m)Σℓ(w, zᵢ) + λ‖w‖² for one drawn sample."""
    sample = np.asarray(sample)
    if sample.shape[0] == 0:
        raise ArgumentError("empirical target needs a nonempty sample")
    land = data_model.landscape
    d = land.dimension

    def value(wbatch):
        wb = np.asarray(wbatch, dtype=float)
        data = np.mean(data_model.loss(wb, sample), axis=-1)
        return data + ridge * np.sum(wb * wb, axis=-1)

    def grad(w):
        w = np.asarray(w, dtype=float)
        return np.mean(data_model.loss_gradient(w, sample), axis=-2) + 2.0 * ridge * w

    quadratic = None
    if data_model.quadratic:
        w0 = np.zeros(d)
        hess0 = np.mean(data_model.loss_hessian(w0, sample), axis=-3)
        quadratic = _gaussian_pair(grad(w0), hess0 + 2.0 * ridge * np.eye(d))

    return GibbsTarget(
        dim=d,
        domain_box=np.array(land.domain_box),
        value=value,
        grad=grad,
        quadratic=quadratic,
    )


def default_step_size(target: GibbsTarget, gamma: float) -> float:
    """Step-size heuristic 0.5/(γ·λ_max(H)) from the Hessian scale at the start.

    For non-quadratic targets the curvature is probed by the gradient
    change over a small displacement from the box center.
    """
    if target.quadratic is not None:
        h = target.quadratic[1]
    else:
        center = target.domain_box.mean(axis=1)
        h_step = 1e-4
        g0 = np.asarray(target.grad(center), dtype=float)
        rows = []
        for k in range(target.dim):
            e = np.zeros(target.dim)
            e[k] = h_step
            rows.append((np.asarray(target.grad(center + e)) - g0) / h_step)
        h = np.abs(np.array(rows))
    lam_max = float(np.linalg.eigvalsh(0.5 * (h + h.T))[-1]) if h.ndim == 2 else float(h)
    lam_max = max(abs(lam_max), 1e-12)
    return 0.5 / (gamma * lam_max)


# Chains draw their randomness in blocks of _BLOCK steps, which fixes the
# Metropolis stream (see sample_chain). Metropolis evaluates up to _WINDOW
# speculative proposals per potential call; the window changes no chain.
_BLOCK = 4096
_WINDOW = 16


def _sgld_path(target, gamma, step_size, steps, rng, noise_free):
    d = target.dim
    box = target.domain_box
    width = box[:, 1] - box[:, 0]
    halo_lo, halo_hi = box[:, 0] - 10.0 * width, box[:, 1] + 10.0 * width
    noise_scale = 0.0 if noise_free else math.sqrt(2.0 * step_size / gamma)
    path = np.empty((steps, d))
    w = box.mean(axis=1)
    for start in range(0, steps, _BLOCK):
        n = min(_BLOCK, steps - start)
        noise = noise_scale * rng.standard_normal((n, d)) if noise_scale else np.zeros((n, d))
        for i in range(n):
            w = w - step_size * np.asarray(target.grad(w), dtype=float) + noise[i]
            if (w < halo_lo).any() or (w > halo_hi).any():
                raise DivergenceError(
                    f"SGLD iterate left the domain box by more than 10 widths "
                    f"(step_size={step_size}); reduce the step size"
                )
            path[start + i] = w
    return path


def _metropolis_path(target, gamma, step_size, steps, rng, restart_prob):
    d = target.dim
    lo, hi = target.domain_box[:, 0], target.domain_box[:, 1]
    path = np.empty((steps, d))
    w = target.domain_box.mean(axis=1)
    fw = float(target.value(w))
    accepted = 0
    for start in range(0, steps, _BLOCK):
        n = min(_BLOCK, steps - start)
        restart = rng.random(n) < restart_prob
        uniform = rng.uniform(lo, hi, size=(n, d))
        jump = step_size * rng.standard_normal((n, d))
        log_u = np.log(rng.random(n))
        s = 0
        while s < n:
            # proposals s..e-1 as if every step before them were rejected
            e = min(s + _WINDOW, n)
            cand = np.where(restart[s:e, None], uniform[s:e], w + jump[s:e])
            inside = ((cand >= lo) & (cand <= hi)).all(axis=1).nonzero()[0]
            hit = None
            if inside.size:
                f_cand = np.asarray(target.value(cand[inside]), dtype=float)
                ok = log_u[s + inside] < -gamma * (f_cand - fw)
                if ok.any():
                    hit = int(ok.argmax())
            if hit is None:
                path[start + s : start + e] = w
                s = e
                continue
            a = int(inside[hit])
            path[start + s : start + s + a] = w
            w, fw = cand[a], float(f_cand[hit])
            path[start + s + a] = w
            accepted += 1
            s += a + 1
    return path, accepted / steps


def sample_chain(
    kind: str,
    target: GibbsTarget,
    gamma: float,
    step_size: float,
    steps: int,
    burn_in: int,
    master_seed: int,
    chain_id: int = 0,
    noise_free: bool = False,
    restart_prob: float = 0.1,
) -> ChainBatch:
    """Run one chain targeting the Gibbs density of ``target`` at inverse
    temperature γ.

    sgld:           w ← w − η∇f(w) + √(2η/γ)·ξ with standard normal ξ
                    (``noise_free`` drops the noise, the γ→∞ limit).
    metropolis:     symmetric mixture proposal (local Gaussian of scale η,
                    probability ``restart_prob`` of a uniform draw over the
                    domain box), acceptance min(1, e^(−γΔf)); exact for the
                    box-truncated target. Proposals outside the box are
                    rejected without evaluating f.
    exact_gaussian: i.i.d. draws from N(w_min, (γH)⁻¹); requires a
                    quadratic target.

    Every chain starts at the box center (SGLD, Metropolis) and draws from
    ``numpy.random.default_rng(chain_seed(master_seed, chain_id))`` only,
    so it is reproduced from (master_seed, chain_id) alone. The steps run
    in blocks of n = min(4096, steps left) steps, and each block makes
    these draws in this order:

    sgld:           ``standard_normal((n, d))``, row i the ξ of step i
                    (none with ``noise_free``); the same stream as one
                    ``standard_normal(d)`` per step.
    metropolis:     ``random(n) < restart_prob`` (restart flags),
                    ``uniform(lo, hi, (n, d))`` (box proposals),
                    η·``standard_normal((n, d))`` (jumps) and
                    ``log(random(n))`` (log acceptance uniforms). Step i
                    proposes its box row if flagged, else w + its jump row,
                    and accepts an in-box proposal w′ iff its log uniform is
                    below −γ(f(w′) − f(w)).
    exact_gaussian: one ``standard_normal((steps − burn_in, d))``.

    Metropolis evaluates f on up to 16 proposals per call, each built as
    if the steps before it in the window were rejected, and keeps the
    first accepted one; the chain equals the one-proposal-at-a-time chain
    over the same stream. SGLD raises DivergenceError once an iterate
    leaves the box by more than 10 widths.

    The returned batch holds the ``steps − burn_in`` post-burn-in samples.
    """
    if kind not in CHAIN_KINDS:
        raise ArgumentError(f"unknown chain kind {kind!r}; choose from {CHAIN_KINDS}")
    if not step_size > 0.0:
        raise ArgumentError(f"step size must be positive, got {step_size}")
    if not (steps > burn_in >= 0):
        raise ArgumentError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")

    rng = np.random.default_rng(chain_seed(master_seed, chain_id))
    acceptance_rate = None

    if kind == "exact_gaussian":
        if target.quadratic is None:
            raise SamplerKindError(
                "exact_gaussian draws need a constant-Hessian (quadratic) target"
            )
        w_min, hess = target.quadratic
        chol = np.linalg.cholesky(np.atleast_2d(hess))
        normal = rng.standard_normal((steps - burn_in, target.dim))
        # x = w_min + L^{-T} ξ / sqrt(γ) gives covariance (γ H)^{-1}.
        samples = w_min + np.linalg.solve(chol.T, normal.T).T / math.sqrt(gamma)
    elif kind == "sgld":
        samples = _sgld_path(target, gamma, step_size, steps, rng, noise_free)[burn_in:]
    else:
        path, acceptance_rate = _metropolis_path(
            target, gamma, step_size, steps, rng, restart_prob
        )
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


def condition_on_region(
    batch: ChainBatch, region: EllipsoidSpec | None, complement: bool = False
) -> ChainBatch:
    """Keep the samples inside ``region`` (or outside, with ``complement``).

    Order is preserved; the retained fraction is recorded on the batch as
    an empirical region-mass estimate. ``region=None`` means the whole
    domain (identity on samples). Raises ConditioningError when fewer than
    100 samples survive, since conditional statistics would be unreliable.
    """
    if len(batch) == 0:
        raise ArgumentError("cannot condition an empty batch")
    if region is None:
        mask = np.ones(len(batch), dtype=bool)
    else:
        mask = np.asarray(region.contains(batch.samples), dtype=bool)
    if complement:
        mask = ~mask
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
        region_complement=complement,
        retained_fraction=float(mask.mean()),
    )
