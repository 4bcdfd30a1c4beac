"""End-to-end remote-state-creation pipeline and creatable-region mapping.

The pipeline runs: control angles -> sender amplitudes -> arrival amplitudes
at time t0 -> 4x4 extended-receiver density matrix -> receiver-side unitary
and partial trace over node N-1 -> 2x2 receiver state -> its eigenvalue and
eigenvector coordinates (lam, beta1, beta2).  Sweeping the control angles on
a grid maps out the region of receiver states the chain can create.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chain import SpectralDecomposition
from .optimize import OptimalProtocol
from .propagate import FVector, SenderState, amplitude_matrix, sender_to_f

CONSTRAINT_TOL = 1e-9
UNITARY_TOL = 1e-8

__all__ = [
    "ControlParams",
    "CreatableParams",
    "RegionRow",
    "CoverageReport",
    "control_to_amplitudes",
    "extended_receiver_density",
    "apply_v_and_reduce",
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


def control_to_amplitudes(c: ControlParams) -> SenderState:
    """Map control angles to the (normalised by construction) sender state."""
    half1 = 0.5 * math.pi * c.alpha1
    half2 = 0.5 * math.pi * c.alpha2
    a0 = math.sin(half1)
    a1 = math.cos(half1) * math.cos(half2) * cmath.exp(2j * math.pi * c.phi1)
    a2 = math.cos(half1) * math.sin(half2) * cmath.exp(2j * math.pi * c.phi2)
    return SenderState(a0=a0, a1=a1, a2=a2)


def extended_receiver_density(f: FVector) -> np.ndarray:
    """4x4 extended-receiver state in the basis (|0>, |N-1>, |N>, |(N-1)N>).

    The doubly-excited component is identically zero because the chain holds
    at most one excitation.
    """
    occupied = f.transfer_sq
    total = f.f0**2 + occupied
    if total > 1.0 + CONSTRAINT_TOL:
        raise ValueError(
            f"invalid amplitude vector: f0^2 + |f_nm1|^2 + |f_n|^2 = {total!r} exceeds 1"
        )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - occupied
    rho[1, 1] = abs(f.f_nm1) ** 2
    rho[2, 2] = abs(f.f_n) ** 2
    rho[0, 1] = f.f0 * f.f_nm1.conjugate()
    rho[0, 2] = f.f0 * f.f_n.conjugate()
    rho[1, 2] = f.f_nm1 * f.f_n.conjugate()
    rho[1, 0] = rho[0, 1].conjugate()
    rho[2, 0] = rho[0, 2].conjugate()
    rho[2, 1] = rho[1, 2].conjugate()
    return rho


def apply_v_and_reduce(rho_ext: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Rotate the two receiver nodes by ``v0`` and trace out node N-1.

    ``v0`` acts on the single-excitation pair (|N-1>, |N>), i.e. the full
    rotation is ``diag(1, v0, 1)``; the result is the 2x2 receiver state in
    the basis (|0>, |N>).
    """
    rho_ext = np.asarray(rho_ext, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    if rho_ext.shape != (4, 4):
        raise ValueError(f"extended-receiver state must be 4x4, got {rho_ext.shape}")
    if v0.shape != (2, 2):
        raise ValueError(f"v0 must be 2x2, got {v0.shape}")
    deviation = float(np.max(np.abs(v0 @ v0.conj().T - np.eye(2))))
    if deviation > UNITARY_TOL:
        raise ValueError(f"v0 is not unitary: |v0 v0^+ - 1| = {deviation:.3e}")
    v = np.eye(4, dtype=complex)
    v[1:3, 1:3] = v0
    m = v @ rho_ext @ v.conj().T
    # partial trace over node N-1: basis indices pair as (0,2) no-excitation
    # and (1,3) excited on N-1
    return np.array(
        [
            [m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
            [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]],
        ]
    )


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


def _create(
    p: np.ndarray, v0: np.ndarray, controls: ControlParams
) -> tuple[np.ndarray, CreatableParams]:
    """Receiver state and its coordinates for one control point, given ``P(t0)`` and ``v0``."""
    f = sender_to_f(p, control_to_amplitudes(controls))
    rho_r = apply_v_and_reduce(extended_receiver_density(f), v0)
    return rho_r, creatable_params(rho_r)


def create_state(
    protocol: OptimalProtocol,
    dec: SpectralDecomposition,
    controls: ControlParams,
) -> tuple[np.ndarray, CreatableParams]:
    """Run the full creation pipeline for one set of control parameters.

    Returns the 2x2 receiver density matrix at ``protocol.t0`` (after the
    protocol's receiver-side unitary) together with its coordinates.
    """
    return _create(amplitude_matrix(dec, protocol.t0), protocol.v0, controls)


@dataclass(frozen=True)
class RegionRow:
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
    """Creatable coordinates over the uniform (alpha1, alpha2) grid.

    Both phases are held at zero, since beta2 decouples from the
    (lam, beta1) map and is tuned separately through phi2.  Rows are ordered
    alpha1-major, alpha2-minor, both ascending.
    """
    alphas = _grid_values(step)
    p = amplitude_matrix(dec, protocol.t0)
    v0 = protocol.v0
    rows = []
    for alpha1 in alphas:
        for alpha2 in alphas:
            cp = _create(p, v0, ControlParams(alpha1, alpha2, 0.0, 0.0))[1]
            rows.append(RegionRow(alpha1, alpha2, cp.lam, cp.beta1, cp.beta2))
    return rows


@dataclass(frozen=True)
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
    """Sweep phi2 over [0, 1) at phi1 = 0 and report the beta2 coverage.

    ``max_gap`` is the largest circular gap between sorted beta2 values.
    """
    if phi_samples < 1:
        raise ValueError(f"phi_samples must be >= 1, got {phi_samples}")
    p = amplitude_matrix(dec, protocol.t0)
    v0 = protocol.v0
    betas = np.empty(phi_samples)
    for k in range(phi_samples):
        c = ControlParams(alpha1, alpha2, 0.0, k / phi_samples)
        f = sender_to_f(p, control_to_amplitudes(c))
        g = v0 @ np.array([f.f_nm1, f.f_n])
        if f.f0 == 0.0 or abs(g[1]) <= 1e-12:
            return CoverageReport(defined=False, beta2=None, max_gap=None)
        betas[k] = (cmath.phase(complex(g[1])) / (2.0 * math.pi)) % 1.0
    betas.sort()
    gaps = np.diff(betas, append=betas[0] + 1.0)
    return CoverageReport(defined=True, beta2=betas, max_gap=float(gaps.max()))
