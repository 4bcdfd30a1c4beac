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
with CPython's scalar ``math``/``cmath`` calls, one ``P @ (a1, a2)`` product,
:func:`_extended_density` and :func:`_reduce`.
:func:`region_grid` runs the same arithmetic, :func:`_reduce` included, on
arrays of control points (:func:`_create_batch`) with bit-identical results:
the BLAS products are the same calls stacked, complex products are written
out as CPython rounds them, ``abs`` of a complex is ``np.hypot`` (libm, as
in CPython), and the other libm calls are CPython's scalar functions
(:func:`_scalar`).  :func:`beta2_coverage` reads ``beta2`` as the phase of
the receiver amplitude ``g_N``, not as the negated phase of the coherence:
it equals its per-point loop bit for bit and agrees with
:func:`create_state` to 1e-12 (the two differ in the last bit at most).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import SpectralDecomposition
from .optimize import OptimalProtocol

CONSTRAINT_TOL = 1e-9
CHUNK_POINTS = 2048  # region_grid's batch size in points, rounded down to whole alpha1 lines

__all__ = [
    "ControlParams",
    "CreatableParams",
    "RegionRow",
    "CoverageReport",
    "creatable_params",
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
        raise ValueError(
            f"invalid amplitude vector: f0^2 + |f_nm1|^2 + |f_n|^2 = {total!r} exceeds 1"
        )
    c01 = a0 * f_nm1.conjugate()
    c02 = a0 * f_n.conjugate()
    c12 = f_nm1 * f_n.conjugate()
    return np.array(
        [
            [1.0 - occupied, c01, c02, 0.0],
            [c01.conjugate(), sq_nm1, c12, 0.0],
            [c02.conjugate(), c12.conjugate(), sq_n, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def _reduce(rho_ext: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Partial trace over node N-1 of ``v rho_ext v^+``, for a checked rotation ``v``.

    A ``(B, 4, 4)`` stack of states gives the ``(B, 2, 2)`` stack of receiver
    states.  Basis indices pair as (0,2) with N-1 empty and (1,3) with it excited.
    """
    m = v @ rho_ext @ v.conj().T
    return m[..., ::2, ::2] + m[..., 1::2, 1::2]


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


def creatable_params(rho_r: np.ndarray) -> CreatableParams:
    """Extract (lam, beta1, beta2) from a 2x2 receiver density matrix.

    The coordinates are pinned by the reconstruction identity of
    :func:`receiver_from_params`.  Note the sign convention: ``beta2`` is the
    negated phase (in turns) of the upper coherence, which is what the
    eigenvector parametrisation requires; reading ``beta2`` directly as the
    phase of the transformed arrival amplitude flips its sign.  When the
    receiver carries no excitation or the state is maximally mixed, both
    betas are zero by convention.
    """
    rho = np.asarray(rho_r, dtype=complex)
    r_z_sq = float(rho[1, 1].real)
    off = complex(rho[0, 1])
    disc = math.hypot(1.0 - 2.0 * r_z_sq, 2.0 * abs(off))
    lam = 0.5 * (1.0 + disc)
    if r_z_sq <= 1e-30 or disc == 0.0:
        return CreatableParams(lam=lam, beta1=0.0, beta2=0.0)
    # atan2 rather than acos of (1 - 2 r_z_sq)/disc: same [0, pi] branch but
    # still resolves beta1 when the coherence is tiny and the cosine rounds
    # to +-1
    beta1 = math.atan2(2.0 * abs(off), 1.0 - 2.0 * r_z_sq) / math.pi
    beta2 = 0.0 if off == 0 else (-cmath.phase(off) / (2.0 * math.pi)) % 1.0
    return CreatableParams(lam=lam, beta1=beta1, beta2=beta2)


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


def _scalar(fn, *arrays: np.ndarray, dtype: type = float) -> np.ndarray:
    """``fn`` applied elementwise as the CPython scalar function itself.

    Each argument is a 1-D array or a scalar that every call receives.

    numpy's vectorised power, arctan2 and angle (and on some builds sin and
    cos) differ from libm or CPython in the last bit; calling the scalar
    function keeps each element equal to the per-point path's.
    """
    columns = (a.tolist() if np.ndim(a) else itertools.repeat(a) for a in arrays)
    return np.fromiter(map(fn, *columns), dtype, count=np.broadcast(*arrays).size)


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


def _arrivals(p: np.ndarray, controls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum amplitudes ``a0`` and arrival columns ``f = P a``, shapes ``(B,)`` and ``(B, 2, 1)``.

    ``controls`` holds one ``(alpha1, alpha2, phi1, phi2)`` row per point;
    the arithmetic is that of :func:`create_state`, and ``P a`` is the same
    BLAS call, stacked.
    """
    alpha1, alpha2, phi1, phi2 = controls.T
    half1 = 0.5 * math.pi * alpha1
    half2 = 0.5 * math.pi * alpha2
    cos1 = _scalar(math.cos, half1)
    two_pi_i = 2j * math.pi
    exc = np.empty((len(controls), 2), dtype=complex)
    for col, weight, phi in ((0, math.cos, phi1), (1, math.sin, phi2)):
        # cmath.exp(2j * math.pi * phi), the product rounded as CPython rounds it
        arg = _complex(*_product(two_pi_i.real, two_pi_i.imag, phi, 0.0))
        turn = _scalar(cmath.exp, arg, dtype=complex)
        amplitude = cos1 * _scalar(weight, half2)
        exc[:, col] = _complex(*_product(amplitude, 0.0, turn.real, turn.imag))
    return _scalar(math.sin, half1), np.matmul(p, exc[:, :, None])


def _create_batch(
    p: np.ndarray, v: np.ndarray, controls: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays ``(lam, beta1, beta2)`` for the ``(B, 4)`` control rows.

    ``v`` is the protocol's checked rotation ``diag(1, v0, 1)``.  Element
    for element this is the arithmetic of :func:`create_state`, through the
    same :func:`_reduce`, so every value equals that function's exactly.
    """
    a0, f = _arrivals(p, controls)
    f_nm1, f_n = f[:, 0, 0], f[:, 1, 0]
    # x ** 2 is libm pow; np.square rounds differently in rare cases
    sq_nm1 = _scalar(pow, np.hypot(f_nm1.real, f_nm1.imag), 2)
    sq_n = _scalar(pow, np.hypot(f_n.real, f_n.imag), 2)
    occupied = sq_nm1 + sq_n
    total = _scalar(pow, a0, 2) + occupied
    bad = np.flatnonzero(total > 1.0 + CONSTRAINT_TOL)
    if bad.size:
        raise ValueError(
            "invalid amplitude vector: f0^2 + |f_nm1|^2 + |f_n|^2 = "
            f"{float(total[bad[0]])!r} exceeds 1"
        )
    rho = np.zeros((len(controls), 4, 4), dtype=complex)
    rho[:, 0, 0] = 1.0 - occupied
    rho[:, 1, 1] = sq_nm1
    rho[:, 2, 2] = sq_n
    for i, j, x, y in ((0, 1, a0, f_nm1), (0, 2, a0, f_n), (1, 2, f_nm1, f_n)):
        re, im = _product(x.real, x.imag, y.real, -y.imag)  # x conj(y)
        rho[:, i, j] = _complex(re, im)
        rho[:, j, i] = _complex(re, -im)
    rho_r = _reduce(rho, v)
    off = rho_r[:, 0, 1]
    r_z_sq = rho_r[:, 1, 1].real
    abs_off = np.hypot(off.real, off.imag)  # libm hypot, like abs(complex)
    disc = _scalar(math.hypot, 1.0 - 2.0 * r_z_sq, 2.0 * abs_off)
    beta1 = _scalar(math.atan2, 2.0 * abs_off, 1.0 - 2.0 * r_z_sq) / math.pi
    beta2 = np.remainder(-_scalar(cmath.phase, off) / (2.0 * math.pi), 1.0)
    beta2[off == 0] = 0.0
    plain = (r_z_sq <= 1e-30) | (disc == 0.0)
    beta1[plain] = 0.0
    beta2[plain] = 0.0
    return 0.5 * (1.0 + disc), beta1, beta2


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
    f_nm1, f_n = (protocol.p @ np.array([a1, a2])).tolist()
    rho_r = _reduce(_extended_density(math.sin(half1), f_nm1, f_n), protocol.rotation)
    return rho_r, creatable_params(rho_r)


class RegionRow(NamedTuple):
    alpha1: float
    alpha2: float
    lam: float
    beta1: float
    beta2: float


def _grid_values(step: float) -> list[float]:
    if not 0.0 < step <= 0.5:
        raise ValueError(f"grid step must lie in (0, 0.5], got {step}")
    count = int(math.floor(1.0 / step + 1e-9))
    return [min(i * step, 1.0) for i in range(count + 1)]


def region_grid(
    protocol: OptimalProtocol,
    dec: SpectralDecomposition,
    step: float,
) -> list[RegionRow]:
    """Creatable coordinates over the uniform (alpha1, alpha2) grid; ``dec`` is unused.

    Both phases are held at zero, since beta2 decouples from the
    (lam, beta1) map and is tuned separately through phi2.  Rows are ordered
    alpha1-major, alpha2-minor, both ascending.
    """
    alphas = _grid_values(step)
    p, v = protocol.p, protocol.rotation
    per_batch = max(1, CHUNK_POINTS // len(alphas))  # alpha1 values per batch
    rows = []
    for lo in range(0, len(alphas), per_batch):
        chunk = list(itertools.product(alphas[lo : lo + per_batch], alphas))
        controls = np.zeros((len(chunk), 4))
        controls[:, :2] = chunk
        coords = (x.tolist() for x in _create_batch(p, v, controls))
        rows += map(RegionRow, *zip(*chunk), *coords)
    return rows


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
    controls = np.zeros((phi_samples, 4))
    controls[:, 0] = alpha1
    controls[:, 1] = alpha2
    controls[:, 3] = np.arange(phi_samples) / phi_samples
    a0, f = _arrivals(protocol.p, controls)
    g = np.matmul(protocol.rotation[1:3, 1:3], f)[:, 1, 0]  # v0, checked for unitarity
    if np.any(a0 == 0.0) or np.any(np.hypot(g.real, g.imag) <= 1e-12):
        return CoverageReport(defined=False, beta2=None, max_gap=None)
    betas = np.remainder(_scalar(cmath.phase, g) / (2.0 * math.pi), 1.0)
    betas.sort()
    gaps = np.diff(betas, append=betas[0] + 1.0)
    return CoverageReport(defined=True, beta2=betas, max_gap=float(gaps.max()))
