"""Analytic risk landscapes, data models, and their isolated minima.

Every built-in landscape ships closed-form value/gradient/Hessian maps,
analytic initial points for each well, and an exact loss bound M over its
experiment domain, so that every bound formula downstream can be evaluated
without estimation error.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .errors import ArgumentError, DomainError, LandscapeDefinitionError

__all__ = [
    "RiskJet",
    "EllipsoidSpec",
    "MinimumDescriptor",
    "Landscape",
    "DataModel",
    "risk_jet",
    "empirical_landscape",
    "enumerate_minima",
    "lipschitz_estimate",
    "disjoint_radius",
    "quadratic_landscape",
    "double_well_landscape",
    "spline_double_well_landscape",
    "rls_data_model",
    "constant_loss_data_model",
    "make_landscape",
    "make_data_model",
    "BUILTIN_LANDSCAPES",
    "BUILTIN_DATA_MODELS",
]

GRADIENT_TOL = 1e-10
GLOBAL_VALUE_TOL = 1e-9
ZERO_EIG_REL_THRESHOLD = 1e-10


def _times_matrix(w: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """w @ matrix for a point batch w of shape (..., d).

    numpy runs an (N, 1) @ (1, 1) product on a slow path, about 13x the
    scalar product w · m₀₀ on 32k points, which has the same bits; d ≥ 2
    keeps ``@``.
    """
    if matrix.shape == (1, 1):
        return w * matrix[0, 0]
    return w @ matrix


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σₖ a[..., k]·b[..., k], summed left to right over the last axis.

    numpy reduces or broadcasts over a short trailing axis with one inner
    loop per point; on 32k-point batches with d ≤ 3 that costs 5-10x this
    loop over the d coordinate columns. The sum has the bits of
    ``np.sum(a * b, axis=-1)`` for d ≤ 3 and of
    ``np.einsum("...i,...i->...", a, b)`` for d ≤ 2.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


@dataclass(frozen=True)
class RiskJet:
    """Value, gradient, and Hessian of a risk function at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


@dataclass(frozen=True)
class EllipsoidSpec:
    """Region {w : ||w - center||_metric <= radius} for a PD metric."""

    center: np.ndarray
    metric: np.ndarray
    radius: float

    def metric_norm(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        diff = np.empty_like(w)
        for k, c in enumerate(self.center):
            np.subtract(w[..., k], c, out=diff[..., k])
        return np.sqrt(_rowdot(_times_matrix(diff, self.metric), diff))

    def contains(self, w: np.ndarray) -> np.ndarray:
        return self.metric_norm(w) <= self.radius


@dataclass(frozen=True)
class MinimumDescriptor:
    """One isolated minimizer of the regularized risk with exact curvature.

    ``hessian`` is the Hessian of the plain risk at the minimizer, and
    ``reg_hessian`` the regularized one (hessian + 2λI). ``lambda_min`` is
    the smallest eigenvalue of ``hessian`` above the zero threshold
    (1e-10 times its largest eigenvalue); ``hessian_eigenvalues`` and
    ``reg_hessian_eigenvalues``, ascending, are computed once, on first
    access; ``enumerate_minima`` fills both with the spectra its checks
    take. ``lipschitz`` maps a radius r to the local Hessian-Lipschitz
    constant L(r) on the curvature ellipsoid (``lipschitz_estimate``, once
    per radius: 0, a closed form, or in d = 1 a grid scan);
    ``lipschitz_is_estimate`` flags the grid scan, which may
    under-estimate the supremum. ``domain_box`` is the landscape's (d, 2)
    box; ``box_radius``, computed once, on first access, is the radius at
    which the curvature ellipsoid touches it, so ``disjoint_radius`` never
    exceeds it.
    """

    index: int
    location: np.ndarray
    reg_risk_value: float
    hessian: np.ndarray
    reg_hessian: np.ndarray
    lambda_min: float
    is_global: bool
    lipschitz: Callable[[float], float]
    lipschitz_is_estimate: bool
    domain_box: np.ndarray

    def ellipsoid(self, r: float) -> EllipsoidSpec:
        return EllipsoidSpec(center=self.location, metric=self.reg_hessian, radius=float(r))

    @functools.cached_property
    def hessian_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.hessian)

    @functools.cached_property
    def reg_hessian_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.reg_hessian)

    @functools.cached_property
    def box_radius(self) -> float:
        axis_extent = np.sqrt(np.diagonal(np.linalg.inv(self.reg_hessian)))
        slack = np.minimum(
            self.location - self.domain_box[:, 0], self.domain_box[:, 1] - self.location
        )
        return float(np.min(slack / axis_extent))

    @property
    def dimension(self) -> int:
        return int(self.location.shape[0])


@dataclass(frozen=True)
class Landscape:
    """Analytic risk over a compact experiment domain: a population risk,
    or the empirical risk of one sample (``empirical_landscape``).

    ``risk``/``gradient``/``hessian`` accept points of shape (..., d) and
    vectorize over leading axes. ``initial_points`` are the analytic well
    seeds handed to Newton polishing; ``loss_bound`` is the exact supremum
    M of the risk (and of any attached loss) over the domain box.
    ``quadratic`` declares that the risk is exactly quadratic in w (its
    Hessian is constant), so L(r) ≡ 0. ``lipschitz_closed_form(minimum, r)``
    declares L(r) on the curvature ellipsoid of radius r around a
    minimizer, given as its ``MinimumDescriptor``, otherwise; a d ≥ 2
    landscape must declare one of the two.
    ``coordinate_risks``, when set, declares the risk separable: d maps of
    coordinate-k values with R(w) = Σₖ coordinate_risks[k](wₖ), summed left
    to right, so that its Gibbs density on the box (the ridge term is
    separable too) is a product of 1-d densities. ``coordinate_slopes`` is
    set with it: the d maps with ∂R/∂wₖ = coordinate_slopes[k](wₖ). Both
    take an array of coordinate values or one Python float, and give the
    bits of ``risk`` and ``gradient``.
    """

    name: str
    dimension: int
    domain_box: np.ndarray
    loss_bound: float
    risk: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    initial_points: tuple[np.ndarray, ...]
    lipschitz_closed_form: Callable[[MinimumDescriptor, float], float] | None = None
    params: dict[str, Any] = field(default_factory=dict)
    quadratic: bool = False
    coordinate_risks: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None
    coordinate_slopes: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def contains(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        lo = self.domain_box[:, 0]
        hi = self.domain_box[:, 1]
        return np.all((w >= lo) & (w <= hi), axis=-1)

    def reg_risk(self, w: np.ndarray, lam: float) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if lam == 0.0:  # the ridge term adds nothing; skip its pass
            return self.risk(w)
        return self.risk(w) + lam * _rowdot(w, w)

    def reg_gradient(self, w: np.ndarray, lam: float) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if lam == 0.0:
            return self.gradient(w)
        return self.gradient(w) + 2.0 * lam * w

    def reg_hessian(self, w: np.ndarray, lam: float) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        eye = np.eye(self.dimension)
        return self.hessian(w) + 2.0 * lam * eye


@dataclass(frozen=True)
class DataModel:
    """Batched loss and seeded example sampler realizing a landscape's risk.

    ``loss(w, sample)``, ``loss_gradient(w, sample)`` and
    ``loss_hessian(w, sample)`` take a point batch w of shape (..., d) and
    a sample of m examples of shape (..., m, k), and return the
    per-example values, gradients and Hessians with shapes (..., m),
    (..., m, d) and (..., m, d, d). The sample's leading axes broadcast
    against w's batch axes: one (m, k) sample serves every point, and
    points of shape (T, d) with samples of shape (T, m, k) pair point t
    with sample t. The expectation of the loss over examples equals the
    landscape risk at w; the loss is twice differentiable in w on the
    domain box. ``sample_examples(rng, n)`` returns n examples as an
    (n, k) array. ``quadratic`` promises that the
    empirical risk (1/m)Σℓ(w, zᵢ) is exactly quadratic in w for every
    sample, so its Hessian does not depend on w; it becomes the
    ``quadratic`` flag of every ``empirical_landscape`` of the model. The
    m = 1 case makes every single loss ℓ(·, z) quadratic too, and so the
    risk, their expectation: ``oracles.empirical_generalization_gap``
    relies on this to take the per-example gaps' expectation under the
    Gaussian target in closed form; it runs no chain and refuses a model
    without this flag, or a sample whose regularized empirical Hessian is
    singular (ArgumentError, exit 3 through the CLI).
    """

    name: str
    landscape: Landscape
    loss: Callable[[np.ndarray, np.ndarray], np.ndarray]
    loss_gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    loss_hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sample_examples: Callable[[np.random.Generator, int], np.ndarray]
    quadratic: bool = False


def _as_point(w, dimension: int) -> np.ndarray:
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (dimension,):
        raise ArgumentError(f"expected a point of shape ({dimension},), got {w.shape}")
    return w


def risk_jet(landscape: Landscape, w) -> RiskJet:
    """Evaluate (R(w), ∇R(w), ∇²R(w)) from the closed forms.

    Raises DomainError for points outside the experiment domain.
    """
    w = _as_point(w, landscape.dimension)
    if not bool(landscape.contains(w)):
        raise DomainError(
            f"point {w} lies outside the domain box of landscape '{landscape.name}'"
        )
    hess = np.asarray(landscape.hessian(w), dtype=float)
    hess = 0.5 * (hess + hess.T)
    return RiskJet(
        value=float(landscape.risk(w)),
        gradient=np.asarray(landscape.gradient(w), dtype=float),
        hessian=hess,
    )


def empirical_landscape(data_model: DataModel, sample) -> Landscape:
    """The empirical risk R̂_S(w) = (1/m)Σℓ(w, zᵢ) of one drawn sample.

    It is the data model's landscape with ``risk``, ``gradient`` and
    ``hessian`` replaced by the example means of ``loss``,
    ``loss_gradient`` and ``loss_hessian``; it is ``quadratic`` when the
    data model declares so and has no closed-form Lipschitz profile. The
    domain box, well seeds and loss bound M are the population's (a mean
    of losses bounded by M is bounded by M). Raises ArgumentError for an
    empty sample.
    """
    sample = np.asarray(sample)
    if sample.shape[0] == 0:
        raise ArgumentError("empirical risk needs a nonempty sample")
    return replace(
        data_model.landscape,
        risk=lambda w: np.mean(data_model.loss(w, sample), axis=-1),
        gradient=lambda w: np.mean(data_model.loss_gradient(w, sample), axis=-2),
        hessian=lambda w: np.mean(data_model.loss_hessian(w, sample), axis=-3),
        lipschitz_closed_form=None,
        quadratic=data_model.quadratic,
        coordinate_risks=None,
        coordinate_slopes=None,
    )


def _newton_polish(landscape: Landscape, seed: np.ndarray, lam: float) -> np.ndarray:
    w = np.array(seed, dtype=float)
    width = landscape.domain_box[:, 1] - landscape.domain_box[:, 0]
    lo = landscape.domain_box[:, 0] - 10.0 * width
    hi = landscape.domain_box[:, 1] + 10.0 * width
    for _ in range(100):
        g = landscape.reg_gradient(w, lam)
        if float(np.linalg.norm(g)) <= GRADIENT_TOL:
            return w
        h = landscape.reg_hessian(w, lam)
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError as exc:
            raise LandscapeDefinitionError(
                f"singular regularized Hessian while polishing seed {seed}"
            ) from exc
        w = w - step
        if np.any(w < lo) or np.any(w > hi):
            raise LandscapeDefinitionError(
                f"Newton polishing diverged from seed {seed} (lambda={lam})"
            )
    raise LandscapeDefinitionError(
        f"Newton polishing did not reach gradient tolerance from seed {seed}"
    )


def nonzero_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues ``eigs`` above the zero threshold
    (1e-10 times the largest); none when the largest is not positive."""
    largest = float(eigs[-1])
    if largest <= 0.0:
        return eigs[:0]
    return eigs[eigs > ZERO_EIG_REL_THRESHOLD * largest]


def enumerate_minima(landscape: Landscape, lam: float) -> list[MinimumDescriptor]:
    """Newton-polish the landscape's well seeds into minimum descriptors.

    Descriptors come back sorted by regularized risk value (then by seed
    order); ``is_global`` marks those within 1e-9 of the best value.
    Raises LandscapeDefinitionError when a polished point violates the
    isolated-minima assumption (indefinite regularized Hessian, risk
    Hessian with negative curvature, or Newton divergence), and for a
    d ≥ 2 landscape that declares neither ``quadratic`` nor
    ``lipschitz_closed_form``; DomainError when a polished point lies
    outside the domain box.
    """
    if lam < 0.0:
        raise ArgumentError(f"ridge weight must be nonnegative, got {lam}")
    declared = landscape.quadratic or landscape.lipschitz_closed_form is not None
    if landscape.dimension >= 2 and not declared:
        raise LandscapeDefinitionError(
            f"landscape '{landscape.name}' (d={landscape.dimension}) declares "
            "neither quadratic nor lipschitz_closed_form"
        )
    polished: list[np.ndarray] = []
    for seed in landscape.initial_points:
        w = _newton_polish(landscape, np.asarray(seed, dtype=float), lam)
        if any(np.linalg.norm(w - prev) <= 1e-8 for prev in polished):
            continue  # wells merged under this ridge weight
        polished.append(w)

    records = []
    for order, w in enumerate(polished):
        hess = risk_jet(landscape, w).hessian  # DomainError outside the box
        reg_hess = hess + 2.0 * lam * np.eye(landscape.dimension)
        reg_eigs = np.linalg.eigvalsh(reg_hess)
        if reg_eigs[0] <= 0.0:
            raise LandscapeDefinitionError(
                f"regularized Hessian not positive definite at {w}: "
                "isolated-minima assumption violated"
            )
        eigs = np.linalg.eigvalsh(hess)
        if eigs[0] < -1e-9 * max(1.0, float(eigs[-1])):
            raise LandscapeDefinitionError(
                f"risk Hessian has negative curvature at {w}"
            )
        records.append(
            (float(landscape.reg_risk(w, lam)), order, w, hess, reg_hess, eigs, reg_eigs)
        )

    records.sort(key=lambda rec: (rec[0], rec[1]))
    best = records[0][0]
    minima: list[MinimumDescriptor] = []
    for index, (value, _, w, hess, reg_hess, eigs, reg_eigs) in enumerate(records):
        minimum = MinimumDescriptor(
            index=index,
            location=w,
            reg_risk_value=value,
            hessian=hess,
            reg_hessian=reg_hess,
            lambda_min=float(min(nonzero_eigenvalues(eigs), default=0.0)),
            is_global=bool(value - best <= GLOBAL_VALUE_TOL),
            lipschitz=_lipschitz_profile(landscape, minima, index),
            lipschitz_is_estimate=not declared,
            domain_box=np.array(landscape.domain_box),
        )
        # fill the two cached spectra with the ones the checks above took
        minimum.__dict__.update(hessian_eigenvalues=eigs, reg_hessian_eigenvalues=reg_eigs)
        minima.append(minimum)
    return list(minima)


def _lipschitz_profile(landscape: Landscape, minima: list, index: int) -> Callable[[float], float]:
    # every bound at one radius reads L(r), so each radius is evaluated once;
    # minima[index] is the descriptor built with this profile
    @functools.lru_cache(maxsize=None)
    def profile(r: float) -> float:
        return lipschitz_estimate(landscape, minima[index], r)

    return profile


def lipschitz_estimate(landscape: Landscape, minimum: MinimumDescriptor, r: float) -> float:
    """Local Hessian-Lipschitz constant L(r) over the curvature ellipsoid.

    0 for a landscape declared ``quadratic``; else its declared
    ``lipschitz_closed_form``; else, in d = 1 only, the maximum of
    |R″(w) − R″(w*)| / |w − w*| over the grid w = w* + r·v/√h,
    v = −1 + 2k/4096 for k < 4096, with h the regularized Hessian at w*:
    an under-estimate of the supremum (flagged ``lipschitz_is_estimate``).
    In d ≥ 2 a landscape that declares neither raises
    LandscapeDefinitionError.

    By convention L(0) = 0: the ratio is only taken at w != w*.
    """
    if r < 0.0:
        raise ArgumentError(f"radius must be nonnegative, got r={r}")
    if r == 0.0 or landscape.quadratic:
        return 0.0
    if landscape.lipschitz_closed_form is not None:
        return float(landscape.lipschitz_closed_form(minimum, r))
    if minimum.dimension != 1:
        raise LandscapeDefinitionError(
            f"landscape '{landscape.name}' (d={minimum.dimension}) declares "
            "neither quadratic nor lipschitz_closed_form"
        )
    center = minimum.location[0]
    v = np.linspace(-1.0, 1.0, 4096, endpoint=False)
    # h^(-1/2) by numpy's array power, one ulp off the scalar power at times
    w = center + (r * v) * (minimum.reg_hessian[0] ** -0.5)[0]
    dists = np.abs(w - center)
    keep = dists > 1e-12
    w, dists = w[keep], dists[keep]
    gaps = landscape.hessian(w[:, None])[:, 0, 0] - minimum.hessian[0, 0]
    return float(np.max(np.abs(gaps) / dists))


def disjoint_radius(minima: list[MinimumDescriptor]) -> float:
    """Conservative radius r0 below which all curvature ellipsoids are disjoint
    and inside the domain box.

    Each minimum has its ``box_radius``, the radius at which its ellipsoid
    touches the domain box boundary; r0 is the smallest of these. With two
    or more minima r0 is at most 0.5 · min pairwise distance · sqrt of the
    smallest eigenvalue of any regularized Hessian as well.
    """
    if not minima:
        raise ArgumentError("need at least one minimum")
    r0 = min(m.box_radius for m in minima)
    if len(minima) == 1:
        return r0
    min_dist = math.inf
    for i in range(len(minima)):
        for j in range(i + 1, len(minima)):
            dist = float(np.linalg.norm(minima[i].location - minima[j].location))
            if dist <= 1e-12:
                raise ArgumentError(
                    f"minima {i} and {j} share a location; descriptors must be distinct"
                )
            min_dist = min(min_dist, dist)
    min_eig = min(float(m.reg_hessian_eigenvalues[0]) for m in minima)
    return min(r0, 0.5 * min_dist * math.sqrt(min_eig))


# ---------------------------------------------------------------------------
# Built-in landscapes


def _box(bounds, dimension: int) -> np.ndarray:
    if dimension < 1:
        raise ArgumentError(f"dimension must be >= 1, got {dimension}")
    box = np.asarray(bounds, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (dimension, 1))
    if box.shape != (dimension, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ArgumentError(f"bad domain box {bounds}")
    return box


def quadratic_landscape(
    dimension: int | None = None, matrix=None, bounds=(-5.0, 5.0)
) -> Landscape:
    """Risk ½wᵀAw with constant Hessian A (symmetric PSD), minimum at 0.

    ``dimension`` None is the size of ``matrix``, or 1 without one (A is
    then the identity); a ``dimension`` that differs from the size of
    ``matrix`` raises ArgumentError.

    The loss bound M is the largest risk over the box corners. A diagonal
    A (the default identity included) gives a sum of terms ½hₖwₖ², each
    largest at one endpoint of its own axis, so only the corner made of
    those endpoints is evaluated: M = ½Σₖhₖ·max(loₖ², hiₖ²). A non-diagonal
    A scans all 2^d corners.
    """
    if matrix is None:  # _box rejects a dimension below 1 before np.eye sees it
        matrix = np.eye(len(_box(bounds, 1 if dimension is None else dimension)))
    a = np.asarray(matrix, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if dimension is not None and dimension != a.shape[0]:
        raise ArgumentError(f"dimension {dimension} differs from the matrix's size {a.shape[0]}")
    dimension = a.shape[0]
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] < -1e-12 * max(1.0, abs(eigs[-1])):
        raise ArgumentError("quadratic matrix must be positive semi-definite")
    box = _box(bounds, dimension)
    diagonal = np.array_equal(a, np.diag(np.diagonal(a)))
    if diagonal:
        worst = [max(ends, key=lambda c, h=h: c * h * c) for ends, h in zip(box, np.diagonal(a))]
        corners = [worst]
    else:
        corners = itertools.product(*box)
    loss_bound = float(max(0.5 * c @ a @ c for c in np.array(list(corners))))

    def risk(w):
        w = np.asarray(w, dtype=float)
        return 0.5 * _rowdot(_times_matrix(w, a), w)

    def gradient(w):
        return _times_matrix(np.asarray(w, dtype=float), a.T)

    def hessian(w):
        w = np.asarray(w, dtype=float)
        return np.broadcast_to(a, w.shape[:-1] + a.shape).copy()

    return Landscape(
        name="quadratic",
        dimension=dimension,
        domain_box=box,
        loss_bound=loss_bound,
        risk=risk,
        gradient=gradient,
        hessian=hessian,
        initial_points=(np.zeros(dimension),),
        params={"matrix": a, "bounds": [list(b) for b in box]},
        quadratic=True,
        coordinate_risks=(
            tuple(_half_square(float(h)) for h in np.diagonal(a)) if diagonal else None
        ),
        coordinate_slopes=(
            tuple(_times(float(h)) for h in np.diagonal(a)) if diagonal else None
        ),
    )


# ½·(x·h)·x and x·h: the operation orders of ``quadratic_landscape``'s risk
# and gradient on a diagonal matrix, whose products with the zero entries
# add nothing
def _half_square(h: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: 0.5 * ((x * h) * x)


def _times(h: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: x * h


def _well_1d(x: np.ndarray) -> np.ndarray:
    t = x * x - 1.0
    return t * t


def _well_slope(x: np.ndarray) -> np.ndarray:
    return 4.0 * x * (x * x - 1.0)


def double_well_landscape(dimension: int = 1, bounds=(-2.0, 2.0)) -> Landscape:
    """Coordinate-wise symmetric double well Σₖ(wₖ² − 1)² with 2^d wells.

    Valid for ridge weights λ < 2; beyond that the wells merge and the
    risk Hessian at the merged point is negative.
    """
    box = _box(bounds, dimension)
    per_coord = []
    for lo, hi in box:
        candidates = [(lo * lo - 1.0) ** 2, (hi * hi - 1.0) ** 2]
        if lo <= 0.0 <= hi:
            candidates.append(1.0)
        per_coord.append(max(candidates))
    loss_bound = float(sum(per_coord))

    def risk(w):
        w = np.asarray(w, dtype=float)
        out = _well_1d(w[..., 0])
        for k in range(1, dimension):
            out += _well_1d(w[..., k])
        return out

    def gradient(w):
        return _well_slope(np.asarray(w, dtype=float))

    def hessian(w):
        w = np.asarray(w, dtype=float)
        diag = 12.0 * w * w - 4.0
        return diag[..., :, None] * np.eye(dimension)

    def lipschitz_closed_form(minimum, r):
        # |R''kk(w) − R''kk(w*)| = 12|wk − w*k||wk + w*k|; the ratio peaks on
        # a single-coordinate deviation of the full Euclidean ellipsoid radius.
        s = float(np.max(np.abs(minimum.location)))
        rho = r / math.sqrt(float(minimum.reg_hessian_eigenvalues[0]))
        return 12.0 * (2.0 * s + rho)

    seeds = tuple(
        np.array(signs, dtype=float)
        for signs in itertools.product((-1.0, 1.0), repeat=dimension)
    )
    return Landscape(
        name="double_well",
        dimension=dimension,
        domain_box=box,
        loss_bound=loss_bound,
        risk=risk,
        gradient=gradient,
        hessian=hessian,
        initial_points=seeds,
        lipschitz_closed_form=lipschitz_closed_form,
        params={"bounds": [list(b) for b in box]},
        coordinate_risks=(_well_1d,) * dimension,
        coordinate_slopes=(_well_slope,) * dimension,
    )


def _quintic_bridge(j1, j2, v1, g1, h1, v2, g2, h2):
    # Degree-5 polynomial in t = (w - j1)/(j2 - j1) matching value, slope and
    # curvature of both quadratic pieces at the junctions.
    span = j2 - j1
    a0, a1, a2 = v1, span * g1, 0.5 * span * span * h1
    rhs = np.array(
        [
            v2 - (a0 + a1 + a2),
            span * g2 - (a1 + 2.0 * a2),
            span * span * h2 - 2.0 * a2,
        ]
    )
    mat = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    a3, a4, a5 = np.linalg.solve(mat, rhs)
    return np.array([a0, a1, a2, a3, a4, a5]), span


def _square(t):
    # t * t has the bits of the batch path's t ** 2 (numpy squares by
    # multiplying); a float's ** 2 goes through libm's pow
    return t * t


def _horner(coeffs: tuple, t):
    # lowest degree first, the same operation order as polynomial.polyval
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + acc * t
    return acc


def spline_double_well_landscape(
    centers=(-1.0, 1.0),
    curvatures=(1.0, 4.0),
    junction_offset: float = 0.4,
    bounds=(-3.0, 3.0),
) -> Landscape:
    """Two 1-d quadratic wells of equal depth and unequal curvature.

    The wells ½hᵢ(w − cᵢ)² are joined by a quintic bridge matching value,
    slope and curvature at both junctions, so the risk is exactly C² and
    the well Hessians are exactly h₁ ≠ h₂.
    """
    c1, c2 = float(centers[0]), float(centers[1])
    h1, h2 = float(curvatures[0]), float(curvatures[1])
    delta = float(junction_offset)
    if not (c1 < c2 and h1 > 0 and h2 > 0 and 0 < delta < 0.5 * (c2 - c1)):
        raise ArgumentError("bad spline double-well parameters")
    j1, j2 = c1 + delta, c2 - delta
    coeffs, span = _quintic_bridge(
        j1, j2, 0.5 * h1 * delta * delta, h1 * delta, h1,
        0.5 * h2 * delta * delta, -h2 * delta, h2,
    )
    # plain tuples evaluated by Horner: Polynomial.__call__ costs more than
    # the arithmetic on the one-point calls of a sampler step
    poly = tuple(float(c) for c in coeffs)
    dpoly = tuple(k * c for k, c in enumerate(poly) if k)
    ddpoly = tuple(k * c for k, c in enumerate(dpoly) if k)

    # The bridge must form a single barrier: exactly one stationary point
    # strictly inside, and no dip below the well depths.
    slope_roots = np.polynomial.polynomial.polyroots(dpoly)
    interior = [
        float(z.real)
        for z in slope_roots
        if abs(z.imag) < 1e-10 and 1e-9 < z.real < 1.0 - 1e-9
    ]
    if len(interior) != 1:
        raise LandscapeDefinitionError(
            "spline bridge has spurious stationary points; adjust parameters"
        )
    if float(_horner(poly, np.linspace(0.0, 1.0, 1001)).min()) < 0.0:
        raise LandscapeDefinitionError("spline bridge dips below zero")

    box = _box(bounds, 1)
    lo, hi = box[0]
    if not (lo < c1 and hi > c2):
        raise ArgumentError("domain box must contain both wells")
    barrier = float(_horner(poly, interior[0]))
    loss_bound = float(
        max(0.5 * h1 * (lo - c1) ** 2, 0.5 * h2 * (hi - c2) ** 2, barrier)
    )

    def piecewise(left, right, bridge):
        # x <= j1 is the left well, x >= j2 the right one. One Python float
        # (a chain step) and each point of an array evaluate only their own
        # piece, with the same bits per point
        def piece(x):
            if isinstance(x, float):
                return left(x) if x <= j1 else right(x) if x >= j2 else bridge(x)
            out = np.empty(np.shape(x))
            on_left, on_right = x <= j1, x >= j2
            for mask, f in ((on_left, left), (on_right, right), (~(on_left | on_right), bridge)):
                out[mask] = f(x[mask])
            return out

        return piece

    def on_column(piece):
        # a single point's 0-d coordinate takes the float branch
        def evaluate(w):
            x = np.asarray(w, dtype=float)[..., 0]
            return np.asarray(piece(float(x))) if x.ndim == 0 else piece(x)

        return evaluate

    risk_1d = piecewise(
        lambda x: 0.5 * h1 * _square(x - c1),
        lambda x: 0.5 * h2 * _square(x - c2),
        lambda x: _horner(poly, (x - j1) / span),
    )
    slope_1d = piecewise(
        lambda x: h1 * (x - c1),
        lambda x: h2 * (x - c2),
        lambda x: _horner(dpoly, (x - j1) / span) / span,
    )
    curvature = on_column(
        piecewise(
            lambda x: h1,
            lambda x: h2,
            lambda x: _horner(ddpoly, (x - j1) / span) / (span * span),
        )
    )
    slope = on_column(slope_1d)

    def gradient(w):
        return slope(w)[..., None]

    def hessian(w):
        return curvature(w)[..., None, None]

    return Landscape(
        name="spline_double_well",
        dimension=1,
        domain_box=box,
        loss_bound=loss_bound,
        risk=on_column(risk_1d),
        gradient=gradient,
        hessian=hessian,
        initial_points=(np.array([c1]), np.array([c2])),
        lipschitz_closed_form=None,
        params={
            "centers": [c1, c2],
            "curvatures": [h1, h2],
            "junction_offset": delta,
            "bounds": [list(b) for b in box],
        },
        coordinate_risks=(risk_1d,),
        coordinate_slopes=(slope_1d,),
    )


def rls_data_model(
    slope: float = 0.5,
    noise_halfwidth: float = 0.5,
    bounds=(-3.0, 3.0),
) -> DataModel:
    """Regularized-least-squares data model y = slope·x + ν on [-1, 1].

    x ~ U[-1, 1] and ν ~ U[-noise_halfwidth, noise_halfwidth] with
    slope + noise_halfwidth ≤ 1, so the clipping of y to [-1, 1] never
    binds and the risk has the exact closed form
    ((w − slope)² + noise_halfwidth²) / 3 with constant Hessian 2/3.
    """
    if abs(slope) + noise_halfwidth > 1.0:
        raise ArgumentError("need |slope| + noise_halfwidth <= 1 so clipping is inert")
    box = _box(bounds, 1)
    w_max = float(np.max(np.abs(box)))
    loss_bound = (1.0 + w_max) ** 2
    var_x = 1.0 / 3.0
    var_noise = noise_halfwidth**2 / 3.0

    def risk(w):
        w = np.asarray(w, dtype=float)
        return var_x * (w[..., 0] - slope) ** 2 + var_noise

    def gradient(w):
        w = np.asarray(w, dtype=float)
        return 2.0 * var_x * (w - slope)

    def hessian(w):
        w = np.asarray(w, dtype=float)
        base = np.array([[2.0 * var_x]])
        return np.broadcast_to(base, w.shape[:-1] + (1, 1)).copy()

    landscape = Landscape(
        name="rls",
        dimension=1,
        domain_box=box,
        loss_bound=loss_bound,
        risk=risk,
        gradient=gradient,
        hessian=hessian,
        initial_points=(np.array([slope]),),
        params={
            "slope": slope,
            "noise_halfwidth": noise_halfwidth,
            "bounds": [list(b) for b in box],
        },
        quadratic=True,
    )

    def residuals(w, sample):
        return sample[..., 1] - np.asarray(w, dtype=float)[..., :1] * sample[..., 0]

    def loss(w, sample):
        return residuals(w, sample) ** 2

    def loss_gradient(w, sample):
        return (-2.0 * residuals(w, sample) * sample[..., 0])[..., None]

    def loss_hessian(w, sample):
        hess = (2.0 * sample[..., 0] ** 2)[..., None, None]
        lead = np.broadcast_shapes(np.shape(w)[:-1] + (1,), hess.shape[:-2])
        return np.broadcast_to(hess, lead + (1, 1))

    def sample_examples(rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.uniform(-1.0, 1.0, size=n)
        nu = rng.uniform(-noise_halfwidth, noise_halfwidth, size=n)
        y = np.clip(slope * x + nu, -1.0, 1.0)
        return np.column_stack([x, y])

    return DataModel(
        name="rls",
        landscape=landscape,
        loss=loss,
        loss_gradient=loss_gradient,
        loss_hessian=loss_hessian,
        sample_examples=sample_examples,
        quadratic=True,
    )


def constant_loss_data_model(landscape: Landscape) -> DataModel:
    """Degenerate data model whose loss ignores the example: ℓ(w, z) = R(w).

    It is quadratic exactly when its landscape is.
    """

    def per_example(fn, w, sample, core_ndim):
        # insert the example axis in front of the value's own (core) axes,
        # behind w's batch axes broadcast against the sample's leading ones
        values = np.asarray(fn(np.asarray(w, dtype=float)), dtype=float)
        lead = values.ndim - core_ndim
        *batch, m, _ = np.shape(sample)
        shape = np.broadcast_shapes(values.shape[:lead], tuple(batch)) + (m,) + values.shape[lead:]
        return np.broadcast_to(np.expand_dims(values, lead), shape)

    def sample_examples(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.zeros((n, 1))

    return DataModel(
        name=f"constant_loss[{landscape.name}]",
        landscape=landscape,
        loss=lambda w, sample: per_example(landscape.risk, w, sample, 0),
        loss_gradient=lambda w, sample: per_example(landscape.gradient, w, sample, 1),
        loss_hessian=lambda w, sample: per_example(landscape.hessian, w, sample, 2),
        sample_examples=sample_examples,
        quadratic=landscape.quadratic,
    )


BUILTIN_LANDSCAPES: dict[str, Callable[..., Landscape]] = {
    "quadratic": quadratic_landscape,
    "double_well": double_well_landscape,
    "spline_double_well": spline_double_well_landscape,
    "rls": lambda **kw: rls_data_model(**kw).landscape,
}

BUILTIN_DATA_MODELS: dict[str, Callable[..., DataModel]] = {
    "rls": rls_data_model,
}


def make_landscape(name: str, **params) -> Landscape:
    if name not in BUILTIN_LANDSCAPES:
        raise ArgumentError(
            f"unknown landscape '{name}'; available: {sorted(BUILTIN_LANDSCAPES)}"
        )
    return BUILTIN_LANDSCAPES[name](**params)


def make_data_model(name: str, **params) -> DataModel:
    if name not in BUILTIN_DATA_MODELS:
        raise ArgumentError(
            f"no data model named '{name}'; available: {sorted(BUILTIN_DATA_MODELS)}"
        )
    return BUILTIN_DATA_MODELS[name](**params)
