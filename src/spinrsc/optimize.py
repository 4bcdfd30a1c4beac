"""Singular structure of the P matrix and time-optimised transfer protocols.

The squared norm of ``P a`` over unit sender vectors ``a`` is bounded by the
largest squared singular value of ``P``, and that bound is attained by the
dominant right singular vector.  Everything in this module is built on that
fact: the 2x2 singular value decomposition supplies the optimal sender state
``a_opt``, the receiver-side unitary ``v0`` and the transfer probability,
and a scalar search over time locates the first maximum of the protocol
variant's objective: :func:`lam_plus_sq` with the receiver-side unitary,
:func:`row_norm_sq` without it.  An objective is a function of a
``(2, 2, T)`` stack of P matrices, so one stack on a uniform grid serves
every objective of a chain in a single coarse scan (``amplitude_grid``),
and the golden-section searches that refine the brackets of many chains are
probed in lock step on single-time ``amplitude_matrix`` products.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, NamedTuple, Sequence

import numpy as np

from .chain import Coupling, CouplingModel, SpectralDecomposition, chain_decomposition
from .errors import DegenerateProtocolError, MaximumNotFoundError, SpinRscError
from .propagate import GRID_BLOCK, _p_stack, amplitude_grid, amplitude_matrix

COARSE_STEP = 0.05
REFINE_TOL = 1e-8
UNITARY_TOL = 1e-8
# Smallest objective value accepted as a transfer peak.  Over the paper's
# sweep n = 4..130 every earlier coarse-grid local maximum is eigensolver
# noise or a long-range leakage precursor, the largest 1.31e-5 (n = 10,
# all+v): 1.88 decades below the floor.  The smallest accepted peak is 0.247
# (n = 130, nn): 2.39 decades above it.  test_significance_floor_margins
# keeps both margins checked.
SIGNIFICANCE_FLOOR = 1e-3
# Coarse-scan points per chain node in the first scan stage, which then runs
# one grid block further, to t = 1.05 n + 3.2: past the arrival front at
# t ~ n and its Airy tail.  A first hit and its right neighbour need at most
# 20 n + 113 points over n = 4..200, both couplings (nn, n = 200); the least
# spare is nn at n = 4, 128 of 148 points.
# test_first_stage_holds_every_first_hit checks that no chain falls through.
SCAN_POINTS_PER_NODE = 21
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

__all__ = [
    "SingularPair",
    "SvdTriple",
    "OptimalProtocol",
    "SweepModel",
    "SweepRow",
    "CriticalLength",
    "svd_decompose",
    "optimal_sender_state",
    "lam_plus_sq",
    "row_norm_sq",
    "maximize_over_time",
    "optimal_protocol",
    "sweep",
    "critical_length",
]


class SingularPair(NamedTuple):
    lam_minus: float
    lam_plus: float


@dataclass(frozen=True, eq=False)
class SvdTriple:
    """Decomposition ``P = v0^+ . diag(lam) . u`` with unitary ``v0`` and ``u``.

    Singular values are ascending: ``lam = (lam_minus, lam_plus)``.  The
    second row of ``v0`` is fixed to the conjugated optimal arrival
    amplitudes divided by their norm, the first row to the orthogonal
    complement ``(f_n, -f_nm1)`` of those amplitudes; this pins the gauge so
    repeated runs emit identical matrices.  ``v0`` is read-only.
    """

    v0: np.ndarray
    lam: SingularPair
    u: np.ndarray


def svd_decompose(p: np.ndarray) -> SvdTriple:
    """Singular value decomposition of ``P`` in the fixed gauge.

    Built from the eigendecomposition of ``P^+ P``: the dominant eigenvector
    is the optimal sender excitation, its image under ``P`` fixes ``v0``,
    and the subdominant phase is chosen so the reconstruction is exact.
    Degenerate singular values fall back to the sender vector ``(0, 1)``.
    """
    p = np.asarray(p, dtype=complex)
    evals, evecs = np.linalg.eigh(p.conj().T @ p)
    lam = np.sqrt(np.clip(evals, 0.0, None))
    lam_minus, lam_plus = float(lam[0]), float(lam[1])
    if lam_plus == 0.0:
        eye = np.eye(2, dtype=complex)
        eye.flags.writeable = False
        return SvdTriple(v0=eye, lam=SingularPair(0.0, 0.0), u=eye)
    if lam_plus - lam_minus <= 1e-13 * lam_plus:
        a_opt = np.array([0.0, 1.0], dtype=complex)
    else:
        a_opt = evecs[:, 1]
        lead = a_opt[np.argmax(np.abs(a_opt))]
        a_opt = a_opt * (lead.conjugate() / abs(lead))
    f_opt = p @ a_opt
    r_opt = float(np.linalg.norm(f_opt))
    v0 = (
        np.array(
            [
                [f_opt[1], -f_opt[0]],
                [f_opt[0].conjugate(), f_opt[1].conjugate()],
            ]
        )
        / r_opt
    )
    x1 = np.array([a_opt[1].conjugate(), -a_opt[0].conjugate()])
    c = v0[0] @ (p @ x1)  # = w1^+ P x1 for w1 the first column of v0^+
    if abs(c) > 0.0:
        x1 = x1 * (c.conjugate() / abs(c))
    u = np.vstack([x1.conjugate(), a_opt.conjugate()])
    v0.flags.writeable = False
    return SvdTriple(v0=v0, lam=SingularPair(lam_minus, lam_plus), u=u)


def optimal_sender_state(svd: SvdTriple) -> np.ndarray:
    """Sender excitation amplitudes maximising the extended-receiver transfer probability.

    Returns the read-only unit column ``(a1, a2) = u^+ (0, 1)^T``, for which
    ``||P a||`` equals the largest singular value.
    """
    if svd.lam.lam_plus <= 0.0:
        raise DegenerateProtocolError(
            "no excitation reaches the extended receiver (largest singular value is 0)"
        )
    a = svd.u.conj().T @ np.array([0.0, 1.0])
    a.flags.writeable = False
    return a


def lam_plus_sq(ps: np.ndarray) -> np.ndarray:
    """Largest squared singular value of each 2x2 slice of a ``(2, 2, T)`` stack.

    The transfer objective with the receiver-side unitary: the best
    extended-receiver probability over unit senders.  Cancellation in
    ``trace**2 - 4|det|**2`` lets it exceed ``lam_plus**2`` by up to ~1.2e-14; it is not clipped.
    """
    trace = np.sum(np.abs(ps) ** 2, axis=(0, 1))
    det = ps[0, 0] * ps[1, 1] - ps[0, 1] * ps[1, 0]
    disc = np.sqrt(np.clip(trace**2 - 4.0 * np.abs(det) ** 2, 0.0, None))
    return 0.5 * (trace + disc)


def row_norm_sq(ps: np.ndarray) -> np.ndarray:
    """Squared norm of the bottom row of each 2x2 slice of a ``(2, 2, T)`` stack.

    The transfer objective without the receiver-side unitary: the best
    receiver-node probability ``|f_N|^2`` over unit senders.
    """
    return np.abs(ps[1, 0]) ** 2 + np.abs(ps[1, 1]) ** 2


ObjectiveFn = Callable[[np.ndarray], np.ndarray]


def _objective(with_v: bool) -> ObjectiveFn:
    """The objective of a protocol variant, with or without the receiver-side unitary."""
    return lam_plus_sq if with_v else row_norm_sq


def _brackets(
    dec: SpectralDecomposition, objectives: Sequence[ObjectiveFn]
) -> list[tuple[float, float]]:
    """Bracket ``(a, b)`` of the first maximum of each objective, all from one coarse scan.

    The grid ``COARSE_STEP * k`` over ``[0, 4 n]`` is evaluated from ``k = 0``
    in at most two stages: the first ``SCAN_POINTS_PER_NODE * n + GRID_BLOCK``
    points, then, only if some objective still has no maximum there, the
    whole window.
    Every objective reads the same P stack.  A grid point is a hit when it
    does not fall below its left neighbour, strictly exceeds its right
    neighbour and rises above ``SIGNIFICANCE_FLOOR``; the surrounding pair of
    grid points brackets the maximum.  The first stage, of at least three
    grid blocks, equals the start of the second bit for bit for every chain
    of n = 4..200 under one and two BLAS threads (see ``amplitude_grid``), so
    there no hit depends on the stage that finds it.
    """
    step, floor, t_hi = COARSE_STEP, SIGNIFICANCE_FLOOR, 4.0 * dec.n
    total = int(math.floor(t_hi / step + 1e-9)) + 1
    for count in (SCAN_POINTS_PER_NODE * dec.n + GRID_BLOCK, total):
        ps = amplitude_grid(dec, step, count)
        brackets = []
        for objective in objectives:
            gs = objective(ps)
            left, mid, right = gs[:-2], gs[1:-1], gs[2:]
            hits = np.nonzero((mid >= left) & (mid > right) & (mid > floor))[0]
            if not hits.size:
                break
            k = int(hits[0]) + 1
            brackets.append((step * (k - 1), step * (k + 1)))
        else:
            return brackets
    raise MaximumNotFoundError(
        f"no local maximum of the objective above {floor:g} in the time window "
        f"[0, {t_hi:g}]"
    )


class _RefineRow(NamedTuple):
    """One golden-section search: a chain's spectrum and P weights, an objective, ``[a, b]``."""

    energies: np.ndarray
    weights: np.ndarray
    objective: ObjectiveFn
    a: float
    b: float


def _refine_rows(
    dec: SpectralDecomposition, objectives: Sequence[ObjectiveFn]
) -> list[_RefineRow]:
    """The scanned brackets of a chain as refine rows; they keep no eigenvectors."""
    return [
        _RefineRow(dec.energies, dec.weights, objective, a, b)
        for objective, (a, b) in zip(objectives, _brackets(dec, objectives))
    ]


def _golden_section(a: float, b: float) -> Generator[float, float, float]:
    """Golden-section search for a maximum on ``[a, b]``: yields probe times, is sent their values.

    Probes ``c < d`` split the bracket in the golden ratio; ``[a, d]`` is kept
    when ``value(c) > value(d)``, else ``[c, b]``, until the bracket is no
    wider than ``REFINE_TOL``.  Returns its midpoint.
    """
    c, d = a + (1.0 - _INV_PHI) * (b - a), a + _INV_PHI * (b - a)
    yc, yd = (yield c), (yield d)
    while b - a > REFINE_TOL:
        if yc > yd:
            b, d, yd = d, c, yc
            c = a + (1.0 - _INV_PHI) * (b - a)
            yc = yield c
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = yield d
    return 0.5 * (a + b)


def _refine(rows: Sequence[_RefineRow]) -> list[tuple[float, float]]:
    """Golden-section maximum of every row as ``(t0, objective(t0))``, all rows in lock step.

    Each row runs its own :func:`_golden_section`.  A step probes every row at
    once: one complex exponential over the concatenated ``E t`` of all rows,
    the product of :func:`amplitude_matrix` on one ``(k, 4, n)`` weight stack
    per run of consecutive rows of chain length ``n``, then each distinct
    objective over the whole stack, so every row gets the bits of its own
    one-time evaluation.  A finished row is probed at its ``t0``, which costs
    the sweep nothing: its rows all start from ``2 * COARSE_STEP`` brackets
    and stop on the same step.
    """
    energies = np.concatenate([row.energies for row in rows])
    sizes = np.array([row.energies.shape[0] for row in rows])
    phases = np.empty(energies.shape, dtype=complex)  # refilled by each probe; runs view it
    runs, pos = [], 0
    for _, run in itertools.groupby(rows, key=lambda row: row.energies.shape[0]):
        stack = np.stack([row.weights for row in run])
        k, _, n = stack.shape
        runs.append((stack, phases[pos : pos + k * n].reshape(k, n, 1)))
        pos += k * n
    objectives = list(dict.fromkeys(row.objective for row in rows))
    kinds = np.array([objectives.index(row.objective) for row in rows])
    pending = dict(enumerate(_golden_section(row.a, row.b) for row in rows))
    ts = [next(search) for search in pending.values()]

    def probe() -> list[float]:
        """Objective of each row at its time in ``ts``."""
        np.exp(-1j * (energies * np.repeat(ts, sizes)), out=phases)
        ps = _p_stack(runs)
        return np.choose(kinds, [objective(ps) for objective in objectives]).tolist()

    while pending:
        values = probe()
        for i, search in list(pending.items()):
            try:
                ts[i] = search.send(values[i])
            except StopIteration as done:
                ts[i] = done.value
                del pending[i]
    return list(zip(ts, probe()))


def maximize_over_time(dec: SpectralDecomposition, objective: ObjectiveFn) -> tuple[float, float]:
    """First significant local maximum of the objective over time.

    Scans ``[0, 4 n]`` with ``COARSE_STEP``, brackets the first interior
    maximum rising above ``SIGNIFICANCE_FLOOR`` and refines it by golden
    section until the bracket is narrower than ``REFINE_TOL``.  Returns
    ``(t0, objective(t0))``.
    """
    return _refine(_refine_rows(dec, [objective]))[0]


def _rotation(v0: np.ndarray) -> np.ndarray:
    """Read-only rotation ``diag(1, v0, 1)``, after checking that ``v0`` is a 2x2 unitary."""
    v0 = np.asarray(v0, dtype=complex)
    if v0.shape != (2, 2):
        raise ValueError(f"v0 must be 2x2, got {v0.shape}")
    deviation = float(np.max(np.abs(v0 @ v0.conj().T - np.eye(2))))
    if deviation > UNITARY_TOL:
        raise ValueError(f"v0 is not unitary: |v0 v0^+ - 1| = {deviation:.3e}")
    v = np.eye(4, dtype=complex)
    v[1:3, 1:3] = v0
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class OptimalProtocol:
    """Everything needed to run the creation pipeline at the optimal time.

    ``r_max_sq`` is the maximised transfer probability: the largest squared
    singular value of ``P(t0)`` when the receiver-side unitary is used,
    otherwise the squared norm of the bottom row.  ``p`` is ``P(t0)`` itself,
    read-only, so the creation pipeline never recomputes it.  ``a_opt`` is the
    optimal sender's read-only unit column ``(a1, a2)``, with no vacuum weight.
    """

    t0: float
    r_max_sq: float
    p: np.ndarray
    svd: SvdTriple
    a_opt: np.ndarray
    with_v: bool = True

    @property
    def v0(self) -> np.ndarray:
        """Receiver-side unitary: the SVD left factor, or identity when disabled."""
        return self.svd.v0 if self.with_v else np.eye(2, dtype=complex)

    @functools.cached_property
    def rotation(self) -> np.ndarray:
        """The extended-receiver rotation ``diag(1, v0, 1)``, read-only.

        ``v0`` is checked for unitarity (``ValueError`` otherwise) once, on
        first use, and the rotation is then kept.
        """
        return _rotation(self.v0)


def optimal_protocol(dec: SpectralDecomposition, with_v: bool = True) -> OptimalProtocol:
    """Time-optimised transfer protocol for one chain.

    With the receiver-side unitary the objective is the largest squared
    singular value and ``a_opt`` comes from the SVD; without it the
    objective is the bottom-row norm and ``a_opt`` is the normalised
    conjugate of that row (which maximises ``|f_N|``).
    """
    t0, value = maximize_over_time(dec, _objective(with_v))
    p = amplitude_matrix(dec, t0)
    p.flags.writeable = False
    svd = svd_decompose(p)
    if with_v:
        a_opt = optimal_sender_state(svd)
    else:
        row = p[1].conj()
        nrm = float(np.linalg.norm(row))
        if nrm == 0.0:
            raise DegenerateProtocolError("no excitation reaches the receiver node")
        a_opt = row / nrm
        a_opt.flags.writeable = False
    return OptimalProtocol(t0=t0, r_max_sq=value, p=p, svd=svd, a_opt=a_opt, with_v=with_v)


class SweepModel(enum.Enum):
    """The three swept model variants."""

    NN = "nn"
    ALL_NO_V = "all"
    ALL_WITH_V = "all+v"

    @property
    def coupling(self) -> Coupling:
        return Coupling.NEAREST_NEIGHBOR if self is SweepModel.NN else Coupling.ALL_NODE

    @property
    def objective(self) -> ObjectiveFn:
        return _objective(self is SweepModel.ALL_WITH_V)


@dataclass(frozen=True)
class SweepRow:
    n: int
    model: SweepModel
    t0: float
    r_max_sq: float


def sweep(ns: Iterable[int], models: Iterable[SweepModel]) -> list[SweepRow]:
    """One optimised row per (chain length, distinct model), n-major and model-minor.

    Models of the same coupling share one decomposition and one coarse scan
    per chain length: ``all`` and ``all+v`` read the same P stack.  Only the
    spectrum and the P weights of each chain outlive its scan, and the
    golden-section searches of every row are then probed in lock step.
    A model is a :class:`SweepModel` member or its label.
    """
    ns = list(dict.fromkeys(ns))  # one row per distinct length and model
    models = list(dict.fromkeys(map(SweepModel, models)))
    if not ns:
        raise ValueError("no chain lengths to sweep: the range is empty")
    if not models:
        raise ValueError("no models to sweep")
    for n in ns:
        if not 4 <= n <= 200:
            raise ValueError(f"swept chain lengths must lie in [4, 200], got {n}")
    groups: dict[Coupling, list[SweepModel]] = {}
    for model in models:
        groups.setdefault(model.coupling, []).append(model)
    keys: list[tuple[int, SweepModel]] = []
    searches: list[_RefineRow] = []
    for n in ns:
        for coupling, group in groups.items():
            try:
                dec = chain_decomposition(CouplingModel(coupling, n))
                searches += _refine_rows(dec, [model.objective for model in group])
            except SpinRscError as exc:
                labels = ",".join(model.value for model in group)
                raise type(exc)(f"n={n} model={labels}: {exc}") from exc
            keys += [(n, model) for model in group]
    found = {
        key: SweepRow(n=key[0], model=key[1], t0=t0, r_max_sq=value)
        for key, (t0, value) in zip(keys, _refine(searches))
    }
    return [found[(n, model)] for n in ns for model in models]


@dataclass(frozen=True)
class CriticalLength:
    """Largest swept length whose transfer probability still reaches a threshold.

    ``n_critical`` is None when the threshold is never attained in range.
    """

    model: SweepModel
    n_critical: int | None


def critical_length(rows: Sequence[SweepRow], threshold: float) -> list[CriticalLength]:
    """Per-model critical lengths from sweep rows.

    Values within 1e-12 of the threshold count as attained.  The threshold
    is a probability and must lie in [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    results = []
    for model in dict.fromkeys(row.model for row in rows):
        attained = [
            r.n for r in rows if r.model is model and r.r_max_sq >= threshold - 1e-12
        ]
        results.append(CriticalLength(model, max(attained, default=None)))
    return results
