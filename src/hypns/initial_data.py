"""Divergence-free initial data: rough synthetic fields, Fourier-truncation
families, analytic test fields, and admissibility checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    _adopt,
    _leray_full,
    base_sigma,
    l2_norm,
    mode_mag2,
    sobolev_norm,
    transform,
    weighted_sum,
    zero_field,
)


@dataclass(frozen=True)
class DataRecipe:
    """Recipe for a seeded rough divergence-free field.

    ``s`` is the convergence-rate exponent in (0, 1).  The generated field
    sits just inside the Sobolev space the rate theory requires for that
    exponent: regularity index s in 2D and s + 1/2 in 3D.  ``amplitude``
    fixes the composite (L^2 + homogeneous) Sobolev norm at that index.
    """

    seed: int
    s: float
    dim: int
    amplitude: float
    spectral_slope_margin: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.spectral_slope_margin <= 0:
            raise ValueError("spectral_slope_margin must be > 0")

    @property
    def regularity(self) -> float:
        """Sobolev index the field is normalized in: s (2D) or s + 1/2 (3D)."""
        return self.s + (self.dim - 2) / 2.0


@dataclass
class HypothesisReport:
    """Admissibility report for wave initial data against a reference field.

    Each named ratio is the corresponding norm combination divided by
    eps^(s/2) times the reference homogeneous norm, so the truncation
    family lands at ratios <= 1 exactly and the data pass when every
    ratio is at most 1.  ``smallness`` carries the 3D critical-norm check
    (None in 2D).
    """

    ratios: dict = field(default_factory=dict)
    smallness: float | None = None
    passed: bool = False


def _seeded_spectrum(grid: Grid, seed: int) -> np.ndarray:
    """New half-spectrum array: the ``rfftn`` of seeded standard normal
    noise, one component per axis (counter-based generator)."""
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal((grid.dim,) + grid.shape)
    c = np.empty((grid.dim,) + grid.spec_shape, dtype=np.complex128)
    return np.fft.rfftn(noise, axes=tuple(range(1, grid.dim + 1)), out=c)


def _norm_of(grid: Grid, sigma: float, density: np.ndarray) -> float:
    """``sobolev_norm`` of a field whose per-mode density is ``density``;
    the zero mode has weight 0, so a nonzero mean does not count."""
    return float(np.sqrt(weighted_sum(grid, sigma, density)))


def synth_hs_field(recipe: DataRecipe, grid: Grid) -> SpectralField:
    """Seeded divergence-free field with prescribed spectral slope.

    Coefficient moduli follow |k|^-(r + dim/2 + eta) with r the recipe
    regularity and eta the slope margin, times unit-modulus random phases,
    Leray-projected and rescaled so the composite H^r norm
    sqrt(L2^2 + homogeneous-r^2) equals ``amplitude``.  Deterministic in
    the seed (counter-based generator).

    The field is built in one array: the noise is transformed into it, and
    the phase normalisation, the profile, the projection and the scaling
    act on it in place.
    """
    if recipe.dim != grid.dim:
        raise ValueError("recipe dimension does not match grid")
    if recipe.amplitude == 0.0:
        return zero_field(grid)

    c = _seeded_spectrum(grid, recipe.seed)
    mag = np.abs(c)
    np.putmask(mag, ~(mag > 0), 1.0)
    c /= mag
    del mag

    slope = recipe.regularity + grid.dim / 2.0 + recipe.spectral_slope_margin
    profile = grid.k2_power(-slope / 2.0)
    # drop the unpaired Nyquist rows so derivative symbols stay clean
    for k in grid.k:
        profile[np.abs(k) == grid.n // 2] = 0.0
    c *= profile
    del profile

    _leray_full(grid, c)
    density = mode_mag2(c)
    size = float(np.hypot(_norm_of(grid, 0.0, density), _norm_of(grid, recipe.regularity, density)))
    if size == 0.0:
        return zero_field(grid)
    c *= recipe.amplitude / size
    return _adopt(grid, c)


def random_divergence_free_field(
    grid: Grid,
    seed: int,
    band: int | None = None,
    slope: float = 0.0,
) -> SpectralField:
    """Seeded unit-L2 divergence-free field for audits and property tests.

    ``band`` limits support to |k_i| <= band; ``slope`` applies an extra
    |k|^-slope modulus decay.  Built in one array, as ``synth_hs_field``.
    """
    c = _seeded_spectrum(grid, seed)
    if slope != 0.0:
        c *= grid.k2_power(-slope / 2.0)
    kvec = grid.k
    if band is not None:
        keep = np.ones(grid.spec_shape, dtype=bool)
        for k in kvec:
            keep &= np.abs(k) <= band
        c *= keep
    for k in kvec:
        c[:, np.abs(k) == grid.n // 2] = 0.0
    del kvec
    _leray_full(grid, c)
    size = _norm_of(grid, 0.0, mode_mag2(c))
    if size == 0.0:
        return zero_field(grid)
    c *= 1.0 / size
    return _adopt(grid, c)


def truncate_initial_data(v0: SpectralField, eps: float):
    """Low-pass wave data: keep modes |k| < eps^(-1/2), zero derivative data.

    Returns (u0, u1) with u1 identically zero.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    cutoff = eps**-0.5
    keep = v0.grid.kmag < cutoff
    u0 = _adopt(v0.grid, v0.coeffs * keep)
    return u0, zero_field(v0.grid, v0.ncomp)


def check_bernstein(v0: SpectralField, u0: SpectralField, eps: float, sigma: float, s: float) -> float:
    """Ratio ||u0||_{H^sigma,hom} / (eps^((s-sigma)/2) ||v0||_{H^s,hom}).

    Requires sigma >= s; the ratio is <= 1 exactly on the lattice for
    low-pass data at cutoff eps^(-1/2).
    """
    if sigma < s:
        raise ValueError("bernstein ratio is defined for sigma >= s")
    denom = eps ** ((s - sigma) / 2.0) * sobolev_norm(v0, s)
    num = sobolev_norm(u0, sigma)
    if num == 0.0:
        return 0.0
    return num / denom


def check_jackson(v0: SpectralField, u0: SpectralField, eps: float, s: float) -> float:
    """Ratio ||u0 - v0||_{L^2} / (eps^(s/2) ||v0||_{H^s,hom}); <= 1 exactly."""
    num = l2_norm(u0 - v0)
    if num == 0.0:
        return 0.0
    return num / (eps ** (s / 2.0) * sobolev_norm(v0, s))


def check_hypotheses(
    u0: SpectralField,
    u1: SpectralField,
    v0: SpectralField,
    eps: float,
    s: float,
    delta: float,
) -> HypothesisReport:
    """Evaluate the admissibility block in the dimension of the fields' grid.

    2D terms are measured from L^2 upward; 3D terms sit half a derivative
    higher and add the critical-norm smallness check ||u0|| < 1/16.  The
    data pass when every ratio is at most 1 (and, in 3D, the check holds).
    """
    dim = u0.grid.dim
    sig0 = base_sigma(dim)
    ref = sobolev_norm(v0, s + sig0)
    denom = eps ** (s / 2.0) * max(ref, 1e-300)

    ratios = {
        "data_gap": sobolev_norm(u0 - v0, sig0) / denom,
        "u1_low": eps * sobolev_norm(u1, sig0) / denom,
        "u0_grad": eps**0.5 * sobolev_norm(u0, sig0 + 1.0) / denom,
        "u0_high": eps ** ((1.0 + delta) / 2.0) * sobolev_norm(u0, sig0 + 1.0 + delta) / denom,
        "u0_mid": eps ** (delta / 2.0) * sobolev_norm(u0, sig0 + delta) / denom,
    }
    smallness = sobolev_norm(u0, 0.5) if dim == 3 else None

    passed = all(r <= 1.0 for r in ratios.values())
    if dim == 3:
        passed = passed and smallness < 1.0 / 16.0
    return HypothesisReport(ratios, smallness, passed)


def taylor_green(grid: Grid) -> SpectralField:
    """The 2D vortex (cos x sin y, -sin x cos y); its projected convection
    vanishes, which makes both solvers analytically solvable on it."""
    if grid.dim != 2:
        raise ValueError("taylor_green is a 2D field")
    x, y = grid.meshgrid()
    vals = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)])
    f, _ = transform(grid, vals)
    return f
