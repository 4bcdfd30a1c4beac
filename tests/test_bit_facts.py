"""The floating-point facts that keep the artifacts byte-identical, one test each.

The golden files and ``bench/reference/`` were recorded with numpy 2.4.6
and OpenBLAS 0.3.31.  The batched code paths give the same bits as the
per-point ones only because of the facts below; after a numpy or BLAS
upgrade a failure here names the fact that broke instead of leaving a bare
byte diff in a golden file.
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinrsc import Coupling, CouplingModel, chain_decomposition, lam_plus_sq, optimal_protocol
from spinrsc import row_norm_sq
from spinrsc.propagate import _weights, amplitude_grid
from spinrsc.rsc import CHUNK_POINTS, _arrivals, _extended_density, _scalar

pytestmark = pytest.mark.two_blas_threads  # CI runs these under two BLAS threads too

ROOT = Path(__file__).resolve().parents[1]
RECORDED = "numpy 2.4.6 / OpenBLAS 0.3.31"
RUNNING = (
    f"numpy {np.__version__} / "
    f"{np.__config__.CONFIG['Build Dependencies']['blas'].get('version', 'unknown BLAS')}"
)


def _broken(fact: str) -> str:
    return f"bit fact broken: {fact} (goldens recorded with {RECORDED}; running {RUNNING})"


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def chain():
    dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, 20))
    return dec, optimal_protocol(dec, with_v=True)


def test_stacked_weight_matmul_equals_the_single_products(chain):
    # _refine probes every row with one (k, 4, n) @ (k, n, 1) product
    dec, _ = chain
    rng = np.random.default_rng(1)
    phases = np.exp(-1j * np.outer(rng.uniform(0.0, 80.0, 64), dec.energies))
    weights = _weights(dec)
    stacked = np.matmul(np.broadcast_to(weights, (64, *weights.shape)), phases[:, :, None])
    single = np.stack([weights @ row[:, None] for row in phases])
    assert _same_bits(stacked, single), _broken(
        "a stacked (R, 4, n) @ (R, n, 1) matmul equals each (4, n) @ (n, 1) product"
    )


def test_flat_rotation_equals_the_per_point_product(chain):
    # _create_batch rotates B states held as rho[i, b, j] with two flat gemms,
    # v @ (4, 4B) and then (v rho v^+)^T = conj(v) @ (4, 4B); create_state
    # rotates one 4x4 matrix
    _, protocol = chain
    points = np.random.default_rng(2).uniform(0.0, 1.0, (CHUNK_POINTS, 4)).T
    a0, f, _ = _arrivals(protocol.p, *points)
    rhos = [_extended_density(*point) for point in zip(a0.tolist(), *f[:, :, 0].T.tolist())]
    v = protocol.rotation
    columns = np.array(rhos).transpose(1, 0, 2).reshape(4, -1)
    flat = v.conj() @ (v @ columns).reshape(-1, 4).T
    single = np.array([v @ rho @ v.conj().T for rho in rhos])
    # flat[l, (i, b)] is item b's [i, l]
    assert _same_bits(flat, single.transpose(2, 1, 0).reshape(4, -1)), _broken(
        "the flat rotation v @ (4, 4B), then conj(v) @ its (4, 4B) transpose, "
        "equals each point's 2-D product"
    )


def test_ndarray_dot_equals_matmul():
    # create_state takes P a and v rho v^+ through ndarray.dot, which reaches
    # the BLAS calls of @ with less dispatch
    rng = np.random.default_rng(7)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for _ in range(2000):
        a, b, p, x = normal(4, 4), normal(4, 4), normal(2, 2), normal(2)
        for dot, matmul in ((a.dot(b), a @ b), (a.dot(b.conj().T), a @ b.conj().T),
                            (p.dot(x), p @ x)):
            assert _same_bits(dot, matmul), _broken(
                "ndarray.dot of 4x4 @ 4x4, 4x4 @ a transposed 4x4 and 2x2 @ a 2-vector, "
                "all complex, equals @ item by item"
            )


def test_hypot_of_the_parts_equals_abs_of_the_complex():
    rng = np.random.default_rng(3)
    z = rng.normal(size=20000) * 10.0 ** rng.uniform(-300, 300, 20000)
    z = z[: z.size // 2] + 1j * z[z.size // 2 :]
    expected = np.array([abs(complex(x)) for x in z.tolist()])
    assert _same_bits(np.hypot(z.real, z.imag), expected), _broken(
        "np.hypot(z.real, z.imag) equals CPython's abs(complex) (both libm hypot)"
    )


def test_remainder_equals_the_cpython_float_modulo():
    # region_grid wraps beta2 into [0, 1) with np.remainder, create_state with %
    rng = np.random.default_rng(6)
    below_one = np.nextafter(1.0, 0.0) - np.arange(1000) * 2.0**-53
    x = np.concatenate([
        [-0.0, 0.0, -5e-324, -1e-300, -1e-17, -2.0**-54, -0.5, 0.5, -np.nextafter(1.0, 0.0)],
        -(10.0 ** rng.uniform(-300, 0, 2000)),  # small negatives, some round up to 1.0
        below_one,
        -below_one,
        rng.uniform(-0.5, 0.5, 5000),  # -phase / (2 pi) lies in [-0.5, 0.5]
    ])
    expected = np.array([value % 1.0 for value in x.tolist()])
    assert _same_bits(np.remainder(x, 1.0), expected), _broken(
        "np.remainder(x, 1.0) equals CPython's x % 1.0, signed zeros included"
    )


@pytest.mark.parametrize(
    "fn, args, dtype",
    [
        (math.sin, 1, float),
        (math.cos, 1, float),
        (math.hypot, 2, float),
        (math.hypot, 3, float),
        (math.atan2, 2, float),
        (pow, 1, float),
        (cmath.exp, 1, complex),
        (cmath.phase, 1, float),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_scalar_equals_the_cpython_function(fn, args, dtype):
    rng = np.random.default_rng(4)
    columns = [rng.uniform(-4.0, 4.0, 5000) for _ in range(args)]
    if dtype is complex or fn is cmath.phase:
        columns = [columns[0] + 1j * rng.uniform(-4.0, 4.0, 5000)]
    if fn is pow:
        columns.append(2)  # x ** 2 as libm pow, a scalar every call receives
    if args == 3:  # a (50, 1) column broadcast against a (100,) row and a scalar
        columns = [columns[0][:50, None], columns[1][:100], 0.5]
    got = _scalar(fn, *columns, dtype=dtype)
    points = np.broadcast(*columns)
    expected = np.array([fn(*(x.item() for x in xs)) for xs in points], dtype=dtype)
    assert _same_bits(got, expected.reshape(points.shape)), _broken(
        f"rsc._scalar({fn.__name__}, ...) equals CPython's {fn.__name__} element by element"
    )


@pytest.mark.parametrize("objective", [lam_plus_sq, row_norm_sq], ids=lambda f: f.__name__)
def test_objective_on_a_slice_equals_the_whole_stack(chain, objective):
    # the lock-step refine evaluates each objective on the whole stack and each
    # row takes its own objective's value, as if evaluated on its rows alone
    dec, _ = chain
    ps = amplitude_grid(dec, 0.05, 1000)
    mask = np.random.default_rng(5).random(1000) < 0.5
    assert _same_bits(objective(ps[:, :, mask]), objective(ps)[mask]), _broken(
        f"{objective.__name__} of a (2, 2, T) slice equals the whole stack's values there"
    )


def test_region_with_one_blas_thread_equals_the_golden(tmp_path):
    out = tmp_path / "region.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    argv = ["region", "--n", "20", "--model", "nn", "--step", "0.02", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "spinrsc", *argv], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    golden = ROOT / "tests" / "golden" / "region_nn_n20_step0.02.csv"
    assert out.read_bytes() == golden.read_bytes(), _broken(
        "region output does not depend on the BLAS thread count"
    )
