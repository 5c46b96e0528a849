"""Fourier representation of mean-free vector fields on the 2*pi-periodic torus.

Fields are real, so their coefficients satisfy c(-k) = conj c(k) and only
half of them are stored: the ``rfftn`` half spectrum, whose last axis keeps
the wavenumbers 0 <= k_last <= n/2.  A field has one component per axis,
so a coefficient array has shape (dim, n, ..., n, n//2+1), and every full
spectral table of a Grid has the half shape (``Grid.spec_shape``).

Coefficients follow the unitary convention: over the full spectrum the sum
of squared moduli equals the continuum L^2 norm squared over
[0, 2*pi)^dim, so Parseval holds with constant 1 and homogeneous Sobolev
norms are plain |k|^sigma multiplier sums.  On the half spectrum a stored
mode also stands for its unstored conjugate partner, so sums over the full
spectrum become sums over the stored modes with the weight
``Grid.weight(sigma)``: |k|^(2 sigma) times a multiplicity that is 1 on the
planes k_last = 0 and k_last = n/2 (the partners of their modes lie in the
same plane and are stored there), 2 on every other plane, and 0 on the
zero mode (fields are mean-free).

The nonlinearity only reads and writes the 2/3-rule box |k_i| <= c,
c = (n-1)//3 (``Grid.dealias_cutoff``), so it runs on a compact array of
shape (dim, 2c+1, ..., 2c+1, c+1) holding just that box
(``Grid.box_shape``).  Along each of the first dim-1 axes the compact array
keeps the wavenumbers 0..c and then -c..-1, the ``fftfreq`` order of a
(2c+1)-point grid; along the last axis 0..c.  In the half spectrum the box
is 2^(dim-1) rectangular blocks, one per choice of the low (0..c) or high
(n-c..n-1) index range on each of the first dim-1 axes: ``Grid.box_blocks``
pairs each block's index in the half spectrum with its index in the
compact array, and ``Grid.box_rows`` pairs the two ranges of one axis the
same way.  Only this module reads the blocks: ``box_gather`` copies
the box out of a half-spectrum array and ``box_add`` adds a compact box
into one.  ``_box_forcing`` is the one nonlinear kernel: the forcing
-P nabla:(u (x) u) of both solvers and ``dt_v``, from box to box.
``convection_term`` gives its negation, the projected convection, on the
half spectrum, and ``_leray_full`` the Leray projection of half-spectrum
coefficients.

The kernel transforms the trace-free tensor u (x) u - u_d^2 I, d the last
component, whose entry (d, d) is 0: dim(dim+1)/2 - 1 products (2 in 2D, 5
in 3D) rather than dim(dim+1)/2 (``_trace_free_products``).  The dropped
term's divergence grad(u_d^2) is a gradient, which the projection
removes.  Its transforms
are numpy's own per-axis passes in numpy's own order, pruned to the box
(``_box_irfftn``, ``_box_rfftn``): bit for bit the n-D transforms of the
zero-filled half spectrum and the box of the whole transform.  The inverse
pads one axis at a time from the box rows to n and runs its ``ifft`` on
that axis, from the first axis on, so each pass runs only on the lines the
box reaches; ``irfft`` pads the last axis from columns 0..c to 0..n/2
itself.  The forward transform runs ``rfft`` on the last axis, keeps
columns 0..c and then runs ``fft`` from the axis before last down to the
first, each pass only on the lines kept so far, copying its box rows
straight into the next pass's compact input; each pass drops its input,
on the first pass the whole ``rfft`` output, before it allocates its
compact output.  The buffers are allocated in the call: one product buffer
that every product reuses, and the padded or compact array of each pass;
none is kept between calls.

A grid stores only what the steps read: the full half-spectrum table
``k2``, the real compact box tables ``box_keff`` and ``box_k2eff_safe``,
and the ``weight`` cache; the kernel's derivative factor i is a scalar
(``_box_forcing``), not a complex table.  The cache keeps two
tables, the two sigmas asked for most recently: a wave solve's energies
read two, ``base_sigma`` and ``base_sigma + delta``, at every sample,
and any other sigma is built anew when asked.  The other full tables,
``k``, ``kmag``, ``keff`` and ``mult``, are computed on access; they serve
set-up and validation, not the steps.

A ``SpectralField`` owns its coefficients, which are read-only.  The
constructor copies what it is given, so it serves data from outside the
package (``experiments.load_field``); ``_adopt`` wraps, without the copy,
an array that its caller has just made and will not write again.  The
arithmetic operators and ``leray_project`` adopt their results.
``zero_field`` wraps a read-only zero-stride array, which takes no memory.
A pickled grid is its (dim, n), a zero-stride field its grid, and any
other field its grid and coefficients, loaded through ``_wrap``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform collocation grid with its precomputed spectral quantities.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    n : int
        Collocation points per axis; must be even and >= 8.  The domain
        period is fixed at 2*pi per axis, so wavenumbers are integers.

    ``shape`` is the collocation shape (n, ..., n); ``spec_shape`` the
    half-spectrum shape (n, ..., n, n//2+1) of the full tables.  Along the
    last axis ``k`` runs over 0..n/2.  ``box_shape`` is the shape of the
    compact 2/3-rule box (see the module docstring).

    Stored: the full table ``k2``, the real compact box tables
    ``box_keff`` and ``box_k2eff_safe``, and the ``weight`` cache, which
    keeps the tables of the two sigmas asked for most recently.  Computed
    on access, as new arrays: the full tables ``k``, ``kmag``, ``keff`` and
    ``mult``; a caller binds one once rather than reading it inside a loop.
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

        object.__setattr__(self, "shape", (self.n,) * self.dim)
        object.__setattr__(self, "spec_shape", self.shape[:-1] + (self.n // 2 + 1,))
        # unitary convention: coeffs = rfftn(values) * fwd_scale
        object.__setattr__(self, "fwd_scale", TWO_PI ** (self.dim / 2) / self.n**self.dim)
        k2 = np.zeros(self.spec_shape)
        for k in self.k:
            k2 += k * k
        object.__setattr__(self, "k2", k2)

        # 2/3-rule box; (n-1)//3 keeps quadratic products of masked fields
        # alias-free on even grids.  The box as blocks: (half-spectrum
        # index, compact index) per block.
        cutoff = (self.n - 1) // 3
        low = (slice(0, cutoff + 1), slice(0, cutoff + 1))
        high = (slice(self.n - cutoff, self.n), slice(cutoff + 1, 2 * cutoff + 1))
        blocks = []
        for ranges in itertools.product((low, high), repeat=self.dim - 1):
            full = (Ellipsis,) + tuple(r[0] for r in ranges) + (low[0],)
            box = (Ellipsis,) + tuple(r[1] for r in ranges) + (low[1],)
            blocks.append((full, box))
        object.__setattr__(self, "dealias_cutoff", cutoff)
        object.__setattr__(self, "box_rows", (low, high))
        object.__setattr__(self, "box_blocks", tuple(blocks))
        object.__setattr__(self, "box_shape", (2 * cutoff + 1,) * (self.dim - 1) + (cutoff + 1,))
        box_keff = tuple(box_gather(self, kd) for kd in self.keff)
        object.__setattr__(self, "box_keff", box_keff)
        object.__setattr__(self, "box_k2eff_safe", _k2_safe(box_keff))
        object.__setattr__(self, "_weights", {})

    @property
    def k(self) -> tuple:
        """Integer wavenumbers as floats, one full table per axis."""
        k1 = np.fft.fftfreq(self.n, 1.0 / self.n)
        k_last = np.fft.rfftfreq(self.n, 1.0 / self.n)
        return tuple(np.meshgrid(*([k1] * (self.dim - 1) + [k_last]), indexing="ij"))

    @property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @property
    def keff(self) -> tuple:
        """Effective wavenumbers: ``k`` with the unpaired Nyquist rows set
        to 0.  Odd-order derivative symbols must vanish there to keep real
        fields real; the Leray projector uses the same effective
        wavenumber so divergence(projection) is exactly zero."""
        keff = []
        for k in self.k:
            k[np.abs(k) == self.n // 2] = 0.0
            keff.append(k)
        return tuple(keff)

    @property
    def mult(self) -> np.ndarray:
        """Multiplicity of a stored mode in full-spectrum sums (see the
        module docstring): 1 on the planes k_last = 0 and n/2, else 2."""
        mult = np.full(self.spec_shape, 2.0)
        mult[..., 0] = mult[..., -1] = 1.0
        return mult

    def __reduce__(self):
        return Grid, (self.dim, self.n)

    def meshgrid(self):
        """Collocation coordinates, one array of ``shape`` per axis."""
        x = np.arange(self.n) * (TWO_PI / self.n)
        return np.meshgrid(*([x] * self.dim), indexing="ij")

    def k2_power(self, p: float) -> np.ndarray:
        """New table |k|^(2 p), 0 on the zero mode for every p."""
        out = np.where(self.k2 > 0, self.k2, 1.0) ** p
        out[self.k2 == 0] = 0.0
        return out

    def weight(self, sigma: float) -> np.ndarray:
        """Read-only table mult * |k|^(2 sigma), 0 on the zero mode: summed
        against a per-mode density it gives the full-spectrum sum.  The
        grid keeps the tables of the two sigmas asked for most recently
        (see the module docstring for why two) and builds any other anew."""
        w = self._weights.pop(sigma, None)
        if w is None:
            w = self.k2_power(sigma)
            w *= self.mult
            w.flags.writeable = False
            if len(self._weights) == 2:
                del self._weights[next(iter(self._weights))]  # the least recent
        self._weights[sigma] = w
        return w


def box_gather(grid: Grid, c: np.ndarray) -> np.ndarray:
    """The 2/3-rule box of a half-spectrum array (or table) as a new
    compact array; leading axes are kept."""
    out = np.empty(c.shape[: c.ndim - grid.dim] + grid.box_shape, dtype=c.dtype)
    for full, box in grid.box_blocks:
        out[box] = c[full]
    return out


def box_add(grid: Grid, into: np.ndarray, b: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """Add the compact box ``b``, times the compact table ``weight`` if
    given, to the box of the half-spectrum array ``into`` in place and
    return it."""
    for full, box in grid.box_blocks:
        into[full] += b[box] if weight is None else weight[box] * b[box]
    return into


def make_grid(dim: int, n: int) -> Grid:
    """Build a grid; rejects odd or too-small n."""
    return Grid(dim, n)


def base_sigma(dim: int) -> float:
    """Regularity the energy estimates start from: L^2 in 2D, H^(1/2) in 3D."""
    return 0.0 if dim == 2 else 0.5


def _zero_mode_index(dim: int):
    return (slice(None),) + (0,) * dim


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A real vector field, one component per axis, stored by its
    half-spectrum Fourier coefficients.

    The constructor accepts only coefficients of shape
    (dim, n, ..., n, n//2+1), copies them and forces the zero mode to 0
    (fields are mean-free).  ``+``, ``-`` and ``*`` by a scalar adopt their
    new array (``_adopt``) without that copy.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        want = (self.grid.dim,) + self.grid.spec_shape
        if c.shape != want:
            raise ValueError(f"coefficient shape {c.shape} does not match the half spectrum {want}")
        c = c.copy()
        c[_zero_mode_index(self.grid.dim)] = 0.0
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return _adopt(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return _adopt(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c: float) -> "SpectralField":
        return _adopt(self.grid, self.coeffs * c)

    __rmul__ = __mul__

    def __reduce__(self):
        if not any(self.coeffs.strides):
            return zero_field, (self.grid,)
        return _wrap, (self.grid, self.coeffs)


def _wrap(grid: Grid, c: np.ndarray) -> SpectralField:
    """Wrap ``c``, whose zero mode is 0, as a field and mark it read-only."""
    c.flags.writeable = False
    f = object.__new__(SpectralField)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "coeffs", c)
    return f


def _adopt(grid: Grid, c: np.ndarray) -> SpectralField:
    """Wrap the new half-spectrum array ``c`` as a field without the
    constructor's copy: its zero mode is set to 0 and it is marked
    read-only, in place.  The caller must not write ``c`` afterwards."""
    c[_zero_mode_index(grid.dim)] = 0.0
    return _wrap(grid, c)


def zero_field(grid: Grid) -> SpectralField:
    """The zero field.  Its coefficients are a read-only zero-stride array,
    a broadcast of one complex zero, so the field takes no memory however
    large the grid."""
    zeros = np.broadcast_to(np.zeros((), dtype=np.complex128), (grid.dim,) + grid.spec_shape)
    return _wrap(grid, zeros)


def transform(grid: Grid, values: np.ndarray) -> SpectralField:
    """Forward transform of real collocation values of shape
    (dim, n, ..., n).  The field is mean-free: its stored zero mode is
    exactly 0, whatever the values' spatial average."""
    v = np.asarray(values, dtype=np.float64)
    want = (grid.dim,) + grid.shape
    if v.shape != want:
        raise ValueError(f"value shape {v.shape} does not match the grid's {want}")
    c = np.fft.rfftn(v, axes=tuple(range(1, grid.dim + 1)))
    c *= grid.fwd_scale
    return _adopt(grid, c)


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Real collocation values of shape (dim, n, ..., n): bit for bit
    ``np.fft.irfftn`` of the unscaled coefficients, through numpy's own
    passes in numpy's own order.  Each ``ifft`` pass, from the first axis
    on, runs in place on the one scaled copy, so no pass output sits beside
    it; ``irfft`` on the last axis makes the values."""
    g = f.grid
    c = f.coeffs / g.fwd_scale
    for ax in range(1, g.dim):
        np.fft.ifft(c, axis=ax, out=c)
    return np.fft.irfft(c, g.n)


def mode_mag2(c: np.ndarray) -> np.ndarray:
    """Per-mode squared modulus |c(k)|^2 summed over components."""
    m = np.abs(c)
    m *= m
    return np.sum(m, axis=0)


def weighted_sum(grid: Grid, sigma: float, density: np.ndarray) -> float:
    """Full-spectrum sum of |k|^(2 sigma) density(k), from a per-mode
    density on the half spectrum; leading axes, one per component, are
    summed too.

    An elementwise product and ``np.sum``, not a BLAS dot: a BLAS call
    wakes the library's thread pool, whose threads keep spinning after it
    returns and take the CPU from the other workers of a process pool."""
    return float(np.sum(grid.weight(sigma) * density))


def _norm_of(grid: Grid, sigma: float, density: np.ndarray) -> float:
    """``sobolev_norm`` of a field whose per-mode density is ``density``;
    the zero mode has weight 0, so a nonzero mean does not count."""
    return float(np.sqrt(weighted_sum(grid, sigma, density)))


def sobolev_norm(f: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm: (sum_k |k|^(2 sigma) |f_hat(k)|^2)^(1/2)."""
    return _norm_of(f.grid, sigma, mode_mag2(f.coeffs))


def hs_inner(f: SpectralField, g: SpectralField, sigma: float) -> float:
    """Homogeneous pairing sum_k |k|^(2 sigma) Re conj(f_hat) g_hat."""
    p = np.conj(f.coeffs)
    p *= g.coeffs
    return weighted_sum(f.grid, sigma, p.real)


def linf_norm(f: SpectralField) -> float:
    """Max over collocation points of the pointwise Euclidean magnitude."""
    v = inverse_transform(f)
    v *= v
    return float(np.sqrt(np.max(np.sum(v, axis=0))))


def _leray_inplace(c: np.ndarray, keff, k2eff_safe: np.ndarray) -> np.ndarray:
    """Leray-project ``c`` in place on the tables ``keff`` and ``k2eff_safe``
    (full or compact, matching ``c``) and return it."""
    kdotc = keff[0] * c[0]
    for i in range(1, len(keff)):
        kdotc += keff[i] * c[i]
    kdotc /= k2eff_safe
    for i in range(len(keff)):
        c[i] -= keff[i] * kdotc
    return c


def _k2_safe(keff) -> np.ndarray:
    """Leray divisor |keff|^2 with its zeros replaced by 1: it vanishes
    where every component is 0 or n/2, and so does keff, so the
    replacement changes nothing."""
    k2eff = keff[0] * keff[0]
    for kd in keff[1:]:
        k2eff += kd * kd
    return np.where(k2eff > 0, k2eff, 1.0)


def _leray_full(grid: Grid, c: np.ndarray) -> np.ndarray:
    """Leray-project the half-spectrum array ``c`` in place and return it."""
    keff = grid.keff
    return _leray_inplace(c, keff, _k2_safe(keff))


def leray_project(f: SpectralField) -> SpectralField:
    """Projection onto divergence-free fields: c(k) -= k (k.c(k)) / |k|^2."""
    return _adopt(f.grid, _leray_full(f.grid, f.coeffs.copy()))


def _divergence_coeffs(grid: Grid, c: np.ndarray) -> np.ndarray:
    keff = grid.keff
    d = keff[0] * c[0]
    for i in range(1, grid.dim):
        d += keff[i] * c[i]
    d *= 1j
    return d


def divergence_l2(grid: Grid, c: np.ndarray) -> float:
    return _norm_of(grid, 0.0, np.abs(_divergence_coeffs(grid, c)) ** 2)


# largest divergence, relative to the H^1 size, that counts as divergence-free
DIV_TOL = 1e-8


def require_divergence_free(what: str, fields):
    """Raise ValueError unless ``fields`` are finite and their summed
    divergence L^2 norm is at most ``DIV_TOL`` times their summed H^1 size.

    Non-finite data is rejected first, and the comparison is written so
    that a NaN fails it.  Zero-stride fields are skipped: only ``zero_field``
    makes them, so they are zero."""
    fields = [f for f in fields if any(f.coeffs.strides)]
    if not all(np.isfinite(f.coeffs).all() for f in fields):
        raise ValueError(f"{what} requires finite data")
    scale = max(sum(sobolev_norm(f, 1.0) for f in fields), 1e-300)
    if not sum(divergence_l2(f.grid, f.coeffs) for f in fields) <= DIV_TOL * scale:
        raise ValueError(f"{what} requires divergence-free data")


# largest conjugate asymmetry, relative to max|c|, that a real field's
# half spectrum may show
REAL_TOL = 1e-12


def require_real(f: SpectralField):
    """Raise ValueError unless ``f`` has the coefficients of a real field:
    on the self-conjugate planes k_last = 0 and n/2, c(-k) = conj c(k) to
    within ``REAL_TOL`` times max|c|.  The other planes hold each mode once,
    so any values there are some real field's."""
    c = f.coeffs
    axes = tuple(range(1, f.grid.dim))
    tol = REAL_TOL * np.max(np.abs(c))
    bad = []
    for j, name in ((0, "0"), (f.grid.n // 2, "n/2")):
        plane = c[..., j]
        mirror = np.roll(np.flip(plane, axes), 1, axes)
        if not np.max(np.abs(plane - np.conj(mirror))) <= tol:
            bad.append(f"k_last = {name}")
    if bad:
        raise ValueError(f"coefficients of no real field: c(-k) != conj c(k) at {' and '.join(bad)}")


def _along(ax: int, index: slice) -> tuple:
    """Index ``index`` along the axis ``ax`` (negative) of an array."""
    return (Ellipsis, index) + (slice(None),) * (-1 - ax)


def _box_rfftn(grid: Grid, x: np.ndarray) -> np.ndarray:
    """``box_gather(grid, np.fft.rfftn(x))`` over the last ``grid.dim``
    axes of the real ``x``, bit for bit, as a new compact array; each
    ``fft`` pass runs only on the lines the box keeps (module docstring).
    A pass frees its input, on the first pass the view that holds the
    whole ``rfft`` output, before it allocates its compact output."""
    a = np.fft.rfft(x)[..., : grid.dealias_cutoff + 1]
    for ax in range(-2, -grid.dim - 1, -1):
        t = np.fft.fft(a, axis=ax)
        del a
        a = np.empty(t.shape[:ax] + (grid.box_shape[ax],) + t.shape[ax + 1 :], dtype=np.complex128)
        for full, box in grid.box_rows:
            a[_along(ax, box)] = t[_along(ax, full)]
    return a


def _box_irfftn(grid: Grid, b: np.ndarray) -> np.ndarray:
    """``np.fft.irfftn(s=grid.shape)`` over the last ``grid.dim`` axes of
    the half spectrum that is the compact ``b`` on the box and 0 elsewhere,
    bit for bit; each ``ifft`` pass runs only on the lines the box reaches
    (module docstring)."""
    c, n = grid.dealias_cutoff, grid.n
    a = b
    for ax in range(-grid.dim, -1):
        pad = np.empty(a.shape[:ax] + (n,) + a.shape[ax + 1 :], dtype=np.complex128)
        for full, box in grid.box_rows:
            pad[_along(ax, full)] = a[_along(ax, box)]
        pad[_along(ax, slice(c + 1, n - c))] = 0.0
        a = np.fft.ifft(pad, axis=ax, out=pad)
    return np.fft.irfft(a, n)


def _trace_free_products(vals: np.ndarray, prod: np.ndarray):
    """Write the entries i <= j of u (x) u - u_d^2 I, d the last component,
    into ``prod`` one at a time and yield each one's (i, j); the entry
    (d, d) is 0 and is skipped.  A diagonal entry is formed as
    (u_i - u_d)(u_i + u_d) after row i's last off-diagonal one, and
    ``vals[i]`` holds u_i + u_d from then on: no later entry reads u_i."""
    d = len(vals) - 1
    for i in range(d):
        for j in range(i + 1, d + 1):
            np.multiply(vals[i], vals[j], out=prod)
            yield i, j
        np.subtract(vals[i], vals[d], out=prod)
        vals[i] += vals[d]
        prod *= vals[i]
        yield i, i


def _box_forcing(grid: Grid, b: np.ndarray) -> np.ndarray:
    """The forcing -P nabla : (u (x) u) of both solvers, dealiased, from and
    to the compact 2/3-rule box.

    The box is the whole dealiased input: one batched inverse transform of
    its components, the trace-free products formed pointwise on the
    collocation grid, and only the box of each product's transform
    computed, so no aliased content survives below the cutoff.  Dropping
    u_d^2 I changes the divergence by the gradient grad(u_d^2), which the
    projection removes to rounding: the derivatives and the projection
    read the same wavenumbers ``box_keff``.  The derivatives, the
    projection and the sign act on the box only.

    The factor i of the derivatives enters once per product, with the
    transform's scale: the compact transform is multiplied by
    i ``fwd_scale`` and then by the real ``box_keff``.  This gives the bits
    of multiplying by the complex table i ``box_keff``, whose real parts
    are exact zeros, up to the sign of a zero.
    """
    vals = _box_irfftn(grid, b / grid.fwd_scale)
    prod = np.empty(grid.shape)
    out = np.zeros_like(b)
    scale = 1j * grid.fwd_scale
    for i, j in _trace_free_products(vals, prod):
        tij = _box_rfftn(grid, prod)
        tij *= scale
        out[i] += grid.box_keff[j] * tij
        if j != i:
            out[j] += grid.box_keff[i] * tij
    _leray_inplace(out, grid.box_keff, grid.box_k2eff_safe)
    return np.negative(out, out=out)


def convection_term(f: SpectralField) -> SpectralField:
    """Leray-projected convection P nabla : (u (x) u), dealiased, on the
    half spectrum: the forcing of ``_box_forcing`` negated, which is exact.

    Rejects non-finite input, and input whose divergence exceeds ``DIV_TOL``
    relative to the H^1 size of the field.
    """
    g = f.grid
    require_divergence_free("convection_term", [f])
    b = _box_forcing(g, box_gather(g, f.coeffs))
    out = np.zeros(f.coeffs.shape, dtype=np.complex128)
    return _adopt(g, box_add(g, out, np.negative(b, out=b)))
