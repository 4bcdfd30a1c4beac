"""End-to-end remote-state-creation pipeline and creatable-region mapping.

The pipeline runs: control angles -> sender amplitudes -> arrival amplitudes
at time t0 -> 4x4 extended-receiver density matrix -> receiver-side unitary
and partial trace over node N-1 -> 2x2 receiver state -> its eigenvalue and
eigenvector coordinates (lam, beta1, beta2).  Sweeping the control angles on
a grid maps out the region of receiver states the chain can create.

The protocol owns ``P(t0)`` and the rotation ``diag(1, v0, 1)``, whose
unitarity it checks once (:class:`~spinrsc.optimize.OptimalProtocol`), so
no creation function recomputes either; their ``dec`` argument is unused
and stays only for their callers.  :func:`create_state` computes one point
with CPython's scalar ``math``/``cmath`` calls, one ``P (a1, a2)`` product,
:func:`_extended_density` (one flat list, reshaped) and :func:`_reduce`; its
products go through ``ndarray.dot``, the BLAS calls of ``@`` with less
dispatch, and it reads its coordinates off the state directly.
:func:`_create_batch` runs the same arithmetic on control angles that
broadcast (for :func:`region_grid` an alpha1 column against the alpha2
axis), so each CPython call runs once per distinct angle, and gives
bit-identical receiver states: ``P a`` is the same BLAS call stacked, the
rotation two flat gemms whose items keep the bits of their own 4x4
products, complex products are written out as CPython rounds them, ``|f|``
is ``np.hypot`` (libm, as in CPython's ``abs``) and the other libm calls are
CPython's scalar functions (:func:`_scalar`).
:func:`create_state` reads the coordinates of its state with the scalar
:func:`_coordinates`; :func:`region_grid` reads those of each batch with
:func:`_coordinate_arrays`, the same arithmetic on arrays, and returns them
as the three ``(A, A)`` arrays of a :class:`RegionGrid`.
:func:`beta2_coverage` reads ``beta2`` as the phase of the receiver amplitude
``g_N``, not as the negated phase of the coherence: it equals its per-point
loop bit for bit and agrees with :func:`create_state` to 1e-12.  The batch
paths' physicality check (:func:`_arrivals`) sums ``np.square`` and takes
the ``pow`` squares of :func:`create_state`'s check only near the bound, so
:func:`beta2_coverage`, which keeps no square, makes no ``pow`` call on
physical input.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import SpectralDecomposition
from .optimize import OptimalProtocol

CONSTRAINT_TOL = 1e-9
MAX_GRID_POINTS = 1001**2  # region_grid's largest grid, step 1e-3: bounds its time and memory
CHUNK_POINTS = 2048  # region_grid's batch size in points, rounded down to whole alpha1 lines

__all__ = [
    "ControlParams",
    "CreatableParams",
    "RegionRow",
    "RegionGrid",
    "CoverageReport",
    "receiver_from_params",
    "create_state",
    "region_grid",
    "beta2_coverage",
]


@dataclass(frozen=True)
class ControlParams:
    """The four sender control angles, each in [0, 1].

    They parametrise the sender state as ``a0 = sin(alpha1 pi/2)``,
    ``a1 = cos(alpha1 pi/2) cos(alpha2 pi/2) exp(2j pi phi1)`` and
    ``a2 = cos(alpha1 pi/2) sin(alpha2 pi/2) exp(2j pi phi2)``.
    """

    alpha1: float
    alpha2: float
    phi1: float
    phi2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "phi1", "phi2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _unphysical(total: float) -> ValueError:
    """The error for a point whose ``a0^2 + |f|^2``, ``total``, exceeds 1."""
    return ValueError(
        f"invalid amplitude vector: f0^2 + |f_nm1|^2 + |f_n|^2 = {total!r} exceeds 1"
    )


def _extended_density(a0: float, f_nm1: complex, f_n: complex) -> np.ndarray:
    """4x4 extended-receiver state in the basis (|0>, |N-1>, |N>, |(N-1)N>).

    ``a0`` is the vacuum amplitude and ``f_nm1``, ``f_n`` the arrival
    amplitudes on nodes N-1 and N.  The doubly-excited component is
    identically zero because the chain holds at most one excitation.
    """
    sq_nm1 = abs(f_nm1) ** 2
    sq_n = abs(f_n) ** 2
    occupied = sq_nm1 + sq_n
    total = a0**2 + occupied
    if total > 1.0 + CONSTRAINT_TOL:
        raise _unphysical(total)
    c01 = a0 * f_nm1.conjugate()
    c02 = a0 * f_n.conjugate()
    c12 = f_nm1 * f_n.conjugate()
    # one flat list, reshaped: a nested list costs numpy a shape discovery per row
    return np.array(
        [
            1.0 - occupied, c01, c02, 0.0,
            c01.conjugate(), sq_nm1, c12, 0.0,
            c02.conjugate(), c12.conjugate(), sq_n, 0.0,
            0.0, 0.0, 0.0, 0.0,
        ],
        dtype=complex,
    ).reshape(4, 4)


def _trace_out_nm1(m: np.ndarray) -> np.ndarray:
    """Partial trace over node N-1 of ``(..., 4, 4)`` extended-receiver states.

    Basis indices pair as (0,2) with N-1 empty and (1,3) with it excited.
    """
    return m[..., ::2, ::2] + m[..., 1::2, 1::2]


def _reduce(rho_ext: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 2x2 receiver state of ``v rho_ext v^+``, for a checked rotation ``v``.

    ``ndarray.dot`` reaches the same zgemm as ``@`` with less dispatch.
    """
    return _trace_out_nm1(v.dot(rho_ext).dot(v.conj().T))


@dataclass(frozen=True)
class CreatableParams:
    """Eigenvalue/eigenvector coordinates of a receiver state.

    ``lam`` is the larger eigenvalue (in [1/2, 1]); ``beta1`` in [0, 1] and
    ``beta2`` in [0, 1) (turns) fix the eigenvector pair via
    :func:`receiver_from_params`.
    """

    lam: float
    beta1: float
    beta2: float


def _coordinates(r_z_sq: float, off: complex) -> tuple[float, float, float]:
    """``(lam, beta1, beta2)`` of a 2x2 receiver state from ``rho[1, 1].real`` and ``rho[0, 1]``.

    The coordinates are pinned by the reconstruction identity of
    :func:`receiver_from_params`.  Note the sign convention: ``beta2`` is the
    negated phase (in turns) of the upper coherence, which is what the
    eigenvector parametrisation requires; reading ``beta2`` directly as the
    phase of the transformed arrival amplitude flips its sign.  When the
    receiver carries no excitation or the state is maximally mixed, both
    betas are zero.
    """
    disc = math.hypot(1.0 - 2.0 * r_z_sq, 2.0 * abs(off))
    lam = 0.5 * (1.0 + disc)
    if r_z_sq <= 1e-30:
        return lam, 0.0, 0.0
    # atan2 rather than acos of (1 - 2 r_z_sq)/disc: same [0, pi] branch but
    # still resolves beta1 when the coherence is tiny and the cosine rounds
    # to +-1
    beta1 = math.atan2(2.0 * abs(off), 1.0 - 2.0 * r_z_sq) / math.pi
    beta2 = 0.0 if off == 0 else (-cmath.phase(off) / (2.0 * math.pi)) % 1.0
    return lam, beta1, beta2


def _coordinate_arrays(r_z_sq: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_coordinates` of each element, bit for bit, as three arrays of their shape.

    ``np.hypot`` of the parts is ``abs`` of the complex (both libm ``hypot``)
    and ``np.remainder`` is CPython's float ``%``.  ``math.hypot`` (CPython's
    own algorithm, not libm's) and both ``atan2`` calls stay scalar: of the
    40,401 points of the n = 109 grid at step 0.005, ``np.hypot`` differs in
    the last bit at 299, ``np.arctan2`` at 1,986 for beta1 and at 6 for
    beta2's phase.
    """
    x = 1.0 - 2.0 * r_z_sq
    y = 2.0 * np.hypot(off.real, off.imag)
    lam = 0.5 * (1.0 + _scalar(math.hypot, x, y))
    empty = r_z_sq <= 1e-30
    beta1 = np.where(empty, 0.0, _scalar(math.atan2, y, x) / math.pi)
    turns = np.remainder(-_scalar(cmath.phase, off) / (2.0 * math.pi), 1.0)
    return lam, beta1, np.where(empty | (off == 0), 0.0, turns)


def receiver_from_params(params: CreatableParams) -> np.ndarray:
    """Rebuild the 2x2 receiver density matrix from its coordinates.

    Returns ``u . diag(lam, 1 - lam) . u^+`` where the eigenvector matrix is
    ``[[cos(b1 pi/2), -exp(-2j pi b2) sin(b1 pi/2)],
       [exp(2j pi b2) sin(b1 pi/2), cos(b1 pi/2)]]``.
    """
    c = math.cos(0.5 * math.pi * params.beta1)
    s = math.sin(0.5 * math.pi * params.beta1)
    phase = cmath.exp(2j * math.pi * params.beta2)
    u = np.array([[c, -s / phase], [s * phase, c]])
    return u @ np.diag([params.lam, 1.0 - params.lam]) @ u.conj().T


def _scalar(fn, *args, dtype: type = float) -> np.ndarray:
    """``fn`` applied elementwise as the CPython scalar function itself.

    The arguments broadcast against each other as in a ufunc, and ``fn`` runs
    once per element of their broadcast shape, which the result takes.

    numpy's vectorised power and angle (and on some builds sin and cos)
    differ from libm or CPython in the last bit; calling the scalar function
    keeps each element equal to the per-point path's.
    """
    shape = np.broadcast_shapes(*map(np.shape, args))
    columns = (np.broadcast_to(a, shape).ravel().tolist() for a in args)
    return np.fromiter(map(fn, *columns), dtype, count=math.prod(shape)).reshape(shape)


def _product(ar, ai, br, bi):
    """Parts of ``(ar + i ai)(br + i bi)``, each product rounded as CPython does.

    numpy's complex multiply may fuse a product into the following add.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array from its parts, with no arithmetic that could change a signed zero."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _arrivals(p: np.ndarray, alpha1, alpha2, phi1, phi2) -> tuple[np.ndarray, ...]:
    """Vacuum amplitudes ``a0`` (B,), arrivals ``f = P a`` (B, 2, 1) and ``|f|`` (B, 2).

    The control angles broadcast against each other (scalars, a column, a
    row), so each CPython call runs once per distinct input; the B points
    are their broadcast shape flattened in C order.  The arithmetic is that
    of :func:`create_state`, ``P a`` is the same BLAS call, stacked, and a
    point with ``a0^2 + |f|^2`` above 1 raises as :func:`_extended_density` does.
    """
    shape = np.broadcast_shapes(*map(np.shape, (alpha1, alpha2, phi1, phi2)))
    half1 = 0.5 * math.pi * alpha1
    a0 = _scalar(math.sin, half1)
    cos1 = _scalar(math.cos, half1)
    two_pi_i = 2j * math.pi
    exc = np.empty((*shape, 2), dtype=complex)
    for col, weight, phi in ((0, math.cos, phi1), (1, math.sin, phi2)):
        # cmath.exp(2j * math.pi * phi), the product rounded as CPython rounds it
        arg = _complex(*_product(two_pi_i.real, two_pi_i.imag, phi, 0.0))
        turn = _scalar(cmath.exp, arg, dtype=complex)
        amplitude = cos1 * _scalar(weight, 0.5 * math.pi * alpha2)
        exc[..., col] = _complex(*_product(amplitude, 0.0, turn.real, turn.imag))
    f = np.matmul(p, exc.reshape(-1, 2, 1))
    a0, mag = np.broadcast_to(a0, shape).ravel(), np.hypot(f.real, f.imag)[:, :, 0]
    # create_state squares with x ** 2, libm pow (faithful); np.square is
    # correctly rounded, so each square differs by at most an ulp, at most
    # 2^-52 below 2.  Near the bound the two totals then differ by at most 3
    # ulps from the squares and 2 from the additions' roundings, so only the
    # points within 2^-48 (16 ulps) below the bound take pow's totals to decide.
    sq = np.square(mag)
    near = np.flatnonzero(np.square(a0) + (sq[:, 0] + sq[:, 1]) > 1.0 + CONSTRAINT_TOL - 2.0**-48)
    if near.size:
        sq = _scalar(pow, mag[near], 2)
        total = _scalar(pow, a0[near], 2) + (sq[:, 0] + sq[:, 1])
        bad = np.flatnonzero(total > 1.0 + CONSTRAINT_TOL)
        if bad.size:
            raise _unphysical(float(total[bad[0]]))
    return a0, f, mag


def _create_batch(p: np.ndarray, v: np.ndarray, alpha1, alpha2, phi1, phi2) -> np.ndarray:
    """The ``(B, 2, 2)`` receiver states at the control points of :func:`_arrivals`.

    ``v`` is the protocol's checked rotation ``diag(1, v0, 1)``.  Element for
    element this is :func:`create_state`'s arithmetic, :func:`_reduce` included:
    the B states are held as ``rho[i, b, j]``, so ``v rho`` is one
    ``(4, 4) @ (4, 4B)`` gemm, and ``(v rho) v^+`` is taken transposed as a
    second, ``conj(v) @ (v rho)^T``, whose right operand is the first one's
    result read as ``(4B, 4)``.  Every item keeps the bits of its own 4x4
    products.  The batch stays on the gemms' N side: a ``(4B, 4) @ v^+``
    gemm gives the same bits, but OpenBLAS packs its 4B rows into its
    buffer, and it raised the peak RSS further.  It returns only the entries
    that :func:`region_grid` reads, ``rho_r[:, 1, 1]`` and ``rho_r[:, 0, 1]``:
    the vacuum population ``rho[0, :, 0]`` is left zero.  The rotation leaves
    index 0 alone, so only ``rho_r[:, 0, 0]`` would read it, and that entry
    is not the state's.
    """
    a0, f, mag = _arrivals(p, alpha1, alpha2, phi1, phi2)
    f_nm1, f_n = f[:, 0, 0], f[:, 1, 0]
    sq = _scalar(pow, mag, 2)  # x ** 2 is libm pow; np.square rounds differently in rare cases
    rho = np.zeros((4, len(a0), 4), dtype=complex)
    rho[1, :, 1], rho[2, :, 2] = sq.T  # |f_nm1|^2 and |f_n|^2
    for i, j, x, y in ((0, 1, a0, f_nm1), (0, 2, a0, f_n), (1, 2, f_nm1, f_n)):
        re, im = _product(x.real, x.imag, y.real, -y.imag)  # x conj(y)
        rho[i, :, j] = _complex(re, im)
        rho[j, :, i] = _complex(re, -im)
    v_rho = (v @ rho.reshape(4, -1)).reshape(-1, 4)  # rows (i, b), columns j
    m = v.conj() @ v_rho.T  # m[l, (i, b)] is (v rho_b v^+)[i, l]
    return _trace_out_nm1(m.reshape(4, 4, -1).transpose(2, 1, 0))


def create_state(
    protocol: OptimalProtocol,
    dec: SpectralDecomposition,
    controls: ControlParams,
) -> tuple[np.ndarray, CreatableParams]:
    """Run the full creation pipeline for one set of control parameters.

    Returns the 2x2 receiver density matrix at ``protocol.t0`` (after the
    protocol's receiver-side unitary) together with its coordinates.  It
    reads the protocol's ``P(t0)`` and checked rotation; ``dec`` is unused.
    """
    half1 = 0.5 * math.pi * controls.alpha1
    half2 = 0.5 * math.pi * controls.alpha2
    a1 = math.cos(half1) * math.cos(half2) * cmath.exp(2j * math.pi * controls.phi1)
    a2 = math.cos(half1) * math.sin(half2) * cmath.exp(2j * math.pi * controls.phi2)
    f_nm1, f_n = protocol.p.dot(np.array([a1, a2])).tolist()
    rho_r = _reduce(_extended_density(math.sin(half1), f_nm1, f_n), protocol.rotation)
    # _coordinates reads rho[1, 1].real and rho[0, 1], taken here directly
    return rho_r, CreatableParams(*_coordinates(rho_r.item(3).real, rho_r.item(1)))


class RegionRow(NamedTuple):
    alpha1: float
    alpha2: float
    lam: float
    beta1: float
    beta2: float


@dataclass(frozen=True, eq=False)
class RegionGrid(Sequence[RegionRow]):
    """The coordinates of :func:`region_grid` over its ``A x A`` (alpha1, alpha2) grid.

    ``lam``, ``beta1`` and ``beta2`` are read-only ``(A, A)`` arrays indexed
    ``[alpha1, alpha2]`` by position on the ``alphas`` axis.  As a sequence
    the grid holds its ``A^2`` points as :class:`RegionRow` values,
    alpha1-major and alpha2-minor, both ascending.
    """

    alphas: np.ndarray
    lam: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.alphas, self.lam, self.beta1, self.beta2):
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.lam.size

    def __getitem__(self, index: int) -> RegionRow:
        i, j = divmod(range(len(self))[operator.index(index)], len(self.alphas))
        values = (self.lam[i, j], self.beta1[i, j], self.beta2[i, j])
        return RegionRow(self.alphas[i].item(), self.alphas[j].item(), *(x.item() for x in values))

    def __iter__(self) -> Iterator[RegionRow]:
        alphas = self.alphas.tolist()
        for i, alpha1 in enumerate(alphas):
            values = (self.lam[i].tolist(), self.beta1[i].tolist(), self.beta2[i].tolist())
            yield from map(RegionRow, itertools.repeat(alpha1), alphas, *values)


def _grid_values(step: float) -> list[float]:
    if not 0.0 < step <= 0.5:
        raise ValueError(f"grid step must lie in (0, 0.5], got {step}")
    count = math.floor(min(1.0 / step + 1e-9, MAX_GRID_POINTS))  # 1 / step may be inf
    if (count + 1) ** 2 > MAX_GRID_POINTS:
        raise ValueError(f"grid step {step!r} is too fine: more than {MAX_GRID_POINTS} points")
    return [min(i * step, 1.0) for i in range(count + 1)]


def region_grid(
    protocol: OptimalProtocol,
    dec: SpectralDecomposition,
    step: float,
) -> RegionGrid:
    """Creatable coordinates over the uniform (alpha1, alpha2) grid; ``dec`` is unused.

    Both phases are held at zero, since beta2 decouples from the
    (lam, beta1) map and is tuned separately through phi2.  The grid's
    points are ordered alpha1-major, alpha2-minor, both ascending, and equal
    :func:`create_state`'s point by point.  Each batch of whole alpha1 lines
    is read off as arrays (:func:`_coordinate_arrays`), so no point becomes
    a Python object until the grid is indexed or iterated.
    """
    axis = np.array(_grid_values(step))
    p, v = protocol.p, protocol.rotation
    coords = np.empty((3, len(axis), len(axis)))
    per_batch = max(1, CHUNK_POINTS // len(axis))  # alpha1 values per batch
    for lo in range(0, len(axis), per_batch):
        rho_r = _create_batch(p, v, axis[lo : lo + per_batch, None], axis, 0.0, 0.0)
        batch = _coordinate_arrays(rho_r[:, 1, 1].real, rho_r[:, 0, 1])
        coords[:, lo : lo + per_batch] = np.reshape(batch, (3, -1, len(axis)))
    return RegionGrid(axis, *coords)


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """How densely beta2 fills [0, 1) when phi2 sweeps a full turn.

    ``defined`` is False when the receiver coherence ``f0 g_N*`` vanishes at
    the probed control angles (no vacuum weight at ``alpha1 = 0``, or no
    receiver amplitude ``g_N``): every created state then has ``beta2 = 0``.
    """

    defined: bool
    beta2: np.ndarray | None
    max_gap: float | None


def beta2_coverage(
    protocol: OptimalProtocol,
    dec: SpectralDecomposition,
    alpha1: float,
    alpha2: float,
    phi_samples: int,
) -> CoverageReport:
    """Sweep phi2 over [0, 1) at phi1 = 0 and report the beta2 coverage; ``dec`` is unused.

    ``max_gap`` is the largest circular gap between sorted beta2 values.
    """
    try:
        phi_samples = operator.index(phi_samples)
    except TypeError:
        raise ValueError(f"phi_samples must be an integer, got {phi_samples!r}") from None
    if phi_samples < 1:
        raise ValueError(f"phi_samples must be >= 1, got {phi_samples}")
    ControlParams(alpha1, alpha2, 0.0, 0.0)  # range check of the fixed angles
    a0, f, _ = _arrivals(protocol.p, alpha1, alpha2, 0.0, np.arange(phi_samples) / phi_samples)
    g = np.matmul(protocol.rotation[1:3, 1:3], f)[:, 1, 0]  # v0, checked for unitarity
    if np.any(a0 == 0.0) or np.any(np.hypot(g.real, g.imag) <= 1e-12):
        return CoverageReport(defined=False, beta2=None, max_gap=None)
    betas = np.remainder(_scalar(cmath.phase, g) / (2.0 * math.pi), 1.0)
    betas.sort()
    gaps = np.diff(betas, append=betas[0] + 1.0)
    return CoverageReport(defined=True, beta2=betas, max_gap=float(gaps.max()))
