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
    _norm_of,
    base_sigma,
    mode_mag2,
    sobolev_norm,
    transform,
    zero_field,
)

# the 3D critical-norm bound: admissible data have ||u0||_{H^(1/2)} below it
SMALLNESS_BOUND = 1.0 / 16.0

# how far the seeded field's spectral slope sits inside the Sobolev space
# the rate theory requires (``synth_hs_field``)
SLOPE_MARGIN = 0.01


@dataclass
class HypothesisReport:
    """Admissibility report for wave initial data against a reference field.

    Each named ratio is a homogeneous norm of the data divided by eps^(s/2)
    ||v0||_{H^(s + b)}, with b = 0 in 2D and 1/2 in 3D:

    - ``data_gap``: ||u0 - v0||_{H^b};
    - ``u0_grad``: eps^(1/2) ||u0||_{H^(b + 1)};
    - ``u0_high``: eps^((1 + delta)/2) ||u0||_{H^(b + 1 + delta)};
    - ``u0_mid``: eps^(delta/2) ||u0||_{H^(b + delta)}.

    The truncation family lands at ratios <= 1 exactly, and the data pass
    when every ratio is at most 1.  ``smallness`` carries the 3D
    critical-norm check ||u0||_{H^(1/2)} < 1/16 (None in 2D).
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


def synth_hs_field(grid: Grid, seed: int, s: float, amplitude: float) -> SpectralField:
    """Seeded divergence-free field with prescribed spectral slope.

    ``s`` is the convergence-rate exponent in (0, 1).  The field sits just
    inside the Sobolev space the rate theory requires for that exponent:
    regularity r = s in 2D and s + 1/2 in 3D.  Coefficient moduli follow
    |k|^-(r + dim/2 + ``SLOPE_MARGIN``), times unit-modulus
    random phases, Leray-projected and rescaled so the composite H^r norm
    sqrt(L2^2 + homogeneous-r^2) equals ``amplitude``.  Deterministic in
    the seed (counter-based generator).

    The field is built in one array: the noise is transformed into it, and
    the phase normalisation, the profile, the projection and the scaling
    act on it in place.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    if amplitude == 0.0:
        return zero_field(grid)

    c = _seeded_spectrum(grid, seed)
    mag = np.abs(c)
    np.putmask(mag, ~(mag > 0), 1.0)
    c /= mag
    del mag

    regularity = s + (grid.dim - 2) / 2.0
    slope = regularity + grid.dim / 2.0 + SLOPE_MARGIN
    profile = grid.k2_power(-slope / 2.0)
    # drop the unpaired Nyquist rows so derivative symbols stay clean
    for k in grid.k:
        profile[np.abs(k) == grid.n // 2] = 0.0
    c *= profile
    del profile

    _leray_full(grid, c)
    density = mode_mag2(c)
    size = float(np.hypot(_norm_of(grid, 0.0, density), _norm_of(grid, regularity, density)))
    if size == 0.0:
        return zero_field(grid)
    c *= amplitude / size
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


def truncate_initial_data(v0: SpectralField, eps: float) -> SpectralField:
    """Low-pass wave data u0: the modes of ``v0`` with |k| < eps^(-1/2)."""
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    cutoff = eps**-0.5
    keep = v0.grid.kmag < cutoff
    return _adopt(v0.grid, v0.coeffs * keep)


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
    num = _norm_of(v0.grid, 0.0, mode_mag2(u0.coeffs - v0.coeffs))
    if num == 0.0:
        return 0.0
    return num / (eps ** (s / 2.0) * sobolev_norm(v0, s))


def check_hypotheses(u0: SpectralField, v0: SpectralField, eps: float, s: float, delta: float) -> HypothesisReport:
    """Evaluate the admissibility block in the dimension of the fields' grid.

    2D terms are measured from L^2 upward; 3D terms sit half a derivative
    higher and add the critical-norm smallness check ||u0|| < 1/16.  The
    data pass when every ratio is at most 1 (and, in 3D, the check holds).
    Each field's per-mode density is made once and read at every sigma;
    the gap's comes first, so its difference array is gone before u0's
    density is made.
    """
    grid = u0.grid
    sig0 = base_sigma(grid.dim)
    gap = _norm_of(grid, sig0, mode_mag2(u0.coeffs - v0.coeffs))
    denom = eps ** (s / 2.0) * max(sobolev_norm(v0, s + sig0), 1e-300)
    density = mode_mag2(u0.coeffs)

    ratios = {
        "data_gap": gap / denom,
        "u0_grad": eps**0.5 * _norm_of(grid, sig0 + 1.0, density) / denom,
        "u0_high": eps ** ((1.0 + delta) / 2.0) * _norm_of(grid, sig0 + 1.0 + delta, density) / denom,
        "u0_mid": eps ** (delta / 2.0) * _norm_of(grid, sig0 + delta, density) / denom,
    }
    smallness = _norm_of(grid, 0.5, density) if grid.dim == 3 else None

    passed = all(r <= 1.0 for r in ratios.values())
    if grid.dim == 3:
        passed = passed and smallness < SMALLNESS_BOUND
    return HypothesisReport(ratios, smallness, passed)


def taylor_green(grid: Grid) -> SpectralField:
    """The 2D vortex (cos x sin y, -sin x cos y); its projected convection
    vanishes, which makes both solvers analytically solvable on it."""
    if grid.dim != 2:
        raise ValueError("taylor_green is a 2D field")
    x, y = grid.meshgrid()
    vals = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y)])
    return transform(grid, vals)
