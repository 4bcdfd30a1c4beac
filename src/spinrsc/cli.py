"""Command-line interface emitting the CSV/JSON artifacts.

Exit codes: 0 on success, 1 on a domain error (invalid physics input), an
output file that cannot be written, an input too large for memory or a
``verify`` deviation above ``VERIFY_TOL``, 2 on a usage error.  Numeric output
has 17 significant digits, so identical invocations give identical artifacts.
``main`` parses with one parser per process; ``build_parser`` builds a new one.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from collections.abc import Iterable

import numpy as np

from .chain import Coupling, CouplingModel, build_hamiltonian, chain_decomposition
from .errors import SpinRscError
from .optimize import (
    SweepModel,
    critical_length,
    optimal_protocol,
    sweep,
)
from .oracle import full_transition_amplitude
from .propagate import amplitude_matrix
from .rsc import MAX_GRID_POINTS, ControlParams, create_state, region_grid

__all__ = ["main", "entry"]

_MODEL_LABELS = tuple(model.value for model in SweepModel)
_MODELS_HELP = f"comma list of {', '.join(_MODEL_LABELS)}"
_FLOAT = "%.17g"  # every printed float: 17 significant digits round-trip a double
VERIFY_TOL = 1e-10  # largest amplitude deviation ``verify`` accepts (acceptance criterion 5)
MAX_TIME = 1e12  # largest |t| that ``amplitudes`` and ``verify`` accept


def _fmt(x: float) -> str:
    return _FLOAT % x


def _render(obj) -> str:
    """Deterministic JSON: floats at 17 digits, complex as ``[re, im]``, arrays as lists."""
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, complex):
        return _render([obj.real, obj.imag])
    if isinstance(obj, dict):
        return "{" + ", ".join(f'"{k}": {_render(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, float):
        return _fmt(obj)
    raise TypeError(f"cannot render {type(obj)!r}")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _probability(text: str) -> float:
    """argparse type: a finite float in [0, 1]."""
    value = _finite_float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _check_time(t: float) -> None:
    """Refuse a time beyond ``MAX_TIME``, before computing anything.

    By Gershgorin every eigenvalue lies within half the largest coupling row
    sum, at most zeta(3) ~ 1.2 for any chain, so ``|E t| <= 1.2 |t|``.  An
    eigenvalue's rounding moves its phase by ~1e-16 ``|E t|``: ``verify`` at
    n = 9 deviates by 1.4e-4 at t = 1e12 and by 1.8e-2 at 1e14.
    """
    if not abs(t) <= MAX_TIME:
        raise ValueError(f"time {t!r} is too large: |t| must not exceed {MAX_TIME:g}")


def _model(args) -> CouplingModel:
    """The chain named by the ``--model`` and ``--n`` flags."""
    return CouplingModel(args.model, args.n)


def _protocol(args):
    """The flags' chain decomposition and its optimal protocol, ``--with-v`` as given."""
    dec = chain_decomposition(_model(args))
    return dec, optimal_protocol(dec, with_v=args.with_v)


def _write_csv(path: str, header: str, lines: Iterable[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        handle.writelines(line + "\n" for line in lines)


def _cmd_hamiltonian(args) -> int:
    h = build_hamiltonian(_model(args))
    for row in h:
        print(",".join(_fmt(float(x)) for x in row))
    return 0


def _cmd_amplitudes(args) -> int:
    _check_time(args.t)
    p = amplitude_matrix(chain_decomposition(_model(args)), args.t)
    names = ("p_nm1_1", "p_nm1_2", "p_n_1", "p_n_2")  # P row-major: (N-1, N) x (1, 2)
    print(_render(dict(zip(names, p.flat))))
    return 0


def _cmd_optimize(args) -> int:
    _, protocol = _protocol(args)
    out = {
        "t0": protocol.t0,
        "r_max_sq": protocol.r_max_sq,
        "a_opt": protocol.a_opt,
        "u": protocol.u,
        "v0": protocol.v_svd,  # the SVD's left factor, with or without --with-v
        "lam": [protocol.lam_minus, protocol.lam_plus],
    }
    print(_render(out))
    return 0


def _parse_models(text: str) -> list[SweepModel]:
    try:
        return [SweepModel(label) for label in text.split(",") if label]
    except ValueError as exc:
        raise ValueError(
            f"unknown model list {text!r}; valid labels: {', '.join(_MODEL_LABELS)}"
        ) from exc


def _cmd_sweep(args) -> int:
    rows = sweep(range(args.n_min, args.n_max + 1), _parse_models(args.models))
    lines = (f"{r.n},{r.model.value},{_fmt(r.t0)},{_fmt(r.r_max_sq)}" for r in rows)
    _write_csv(args.out, "n,model,t0,r_max_sq", lines)
    return 0


def _cmd_critical_length(args) -> int:
    rows = sweep(range(args.n_min, args.n_max + 1), _parse_models(args.models))
    lines = ["model,n_critical"]
    for result in critical_length(rows, args.threshold):
        value = "none" if result.n_critical is None else str(result.n_critical)
        lines.append(f"{result.model.value},{value}")
    print("\n".join(lines))
    return 0


def _cmd_region(args) -> int:
    _, protocol = _protocol(args)
    grid = region_grid(protocol, args.step)
    axis = [_fmt(alpha) for alpha in grid.alphas.tolist()]
    # the CSV rows of one alpha1 line; \0 stands for its alpha1 field
    template = "\n".join(f"\0,{alpha2},{_FLOAT},{_FLOAT},{_FLOAT}" for alpha2 in axis)
    lines = (
        template.replace("\0", alpha1) % tuple(np.column_stack(columns).ravel().tolist())
        for alpha1, *columns in zip(axis, grid.lam, grid.beta1, grid.beta2)
    )
    _write_csv(args.out, "alpha1,alpha2,lambda,beta1,beta2", lines)
    return 0


def _cmd_create(args) -> int:
    dec, protocol = _protocol(args)
    controls = ControlParams(args.alpha1, args.alpha2, args.phi1, args.phi2)
    rho, params = create_state(protocol, dec, controls)
    out = {
        "t0": protocol.t0,
        "rho": rho,
        "lambda": params.lam,
        "beta1": params.beta1,
        "beta2": params.beta2,
    }
    print(_render(out))
    return 0


def _cmd_verify(args) -> int:
    _check_time(args.t)
    model = _model(args)
    # P row-major, as amplitude_matrix lays it out: (N-1, N) x (1, 2)
    pairs = [(k, j) for k in (model.n - 1, model.n) for j in (1, 2)]
    # the oracle rejects chains beyond its size cap, so it runs before the eigensolve
    full = [full_transition_amplitude(model, k, j, args.t) for k, j in pairs]
    fast = amplitude_matrix(chain_decomposition(model), args.t).flat
    deviation = max(abs(a - b) for a, b in zip(fast, full))
    print(f"max_deviation {_fmt(deviation)}")
    if not deviation <= VERIFY_TOL:
        # e.g. at |E t| beyond ~1e14 the eigenvalues' rounding moves every phase
        print(f"error: deviation exceeds {VERIFY_TOL:g}", file=sys.stderr)
        return 1
    return 0


def _add_chain_flags(sub, with_v_flag: bool = False) -> None:
    sub.add_argument("--n", type=int, required=True, help="chain length (>= 4)")
    sub.add_argument(
        "--model", choices=[kind.value for kind in Coupling], required=True, help="coupling kind"
    )
    if with_v_flag:
        sub.add_argument(
            "--with-v",
            dest="with_v",
            action="store_true",
            help="optimise and apply the receiver-side unitary",
        )


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads ``-1e-3`` or ``-inf`` after a flag as its value.

    argparse knows only ``-12`` and ``-1.5`` as negative numbers; each
    subparser decides for itself, and ``add_subparsers`` builds this class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinrsc",
        description="Remote state creation through homogeneous spin-1/2 XY chains.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("hamiltonian", help="print the one-excitation Hamiltonian as CSV")
    _add_chain_flags(s)
    s.set_defaults(func=_cmd_hamiltonian)

    s = subs.add_parser("amplitudes", help="print the 2x2 transition matrix P(t) as JSON")
    _add_chain_flags(s)
    s.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    s.set_defaults(func=_cmd_amplitudes)

    s = subs.add_parser("optimize", help="print the optimal protocol as JSON")
    _add_chain_flags(s, with_v_flag=True)
    s.set_defaults(func=_cmd_optimize)

    s = subs.add_parser("sweep", help="write per-length optimised probabilities to CSV")
    s.add_argument("--n-min", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--models", default=",".join(_MODEL_LABELS), help=_MODELS_HELP)
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(func=_cmd_sweep)

    s = subs.add_parser("critical-length", help="largest length reaching a threshold")
    s.add_argument("--threshold", type=_probability, required=True, help="probability in [0, 1]")
    s.add_argument("--n-min", type=int, default=4)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--models", default=",".join(_MODEL_LABELS), help=_MODELS_HELP)
    s.set_defaults(func=_cmd_critical_length)

    s = subs.add_parser("region", help="write the creatable-region grid to CSV")
    _add_chain_flags(s, with_v_flag=True)
    axis = math.isqrt(MAX_GRID_POINTS)  # most grid values per axis that region_grid accepts
    s.add_argument(
        "--step", type=_finite_float, required=True,
        help=f"grid step in (0, 0.5], with at most {axis} values per axis: 1e-3 or coarser",
    )
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(func=_cmd_region)

    s = subs.add_parser("create", help="run the creation pipeline for one control point")
    _add_chain_flags(s, with_v_flag=True)
    s.add_argument("--alpha1", type=_finite_float, required=True)
    s.add_argument("--alpha2", type=_finite_float, required=True)
    s.add_argument("--phi1", type=_finite_float, required=True)
    s.add_argument("--phi2", type=_finite_float, required=True)
    s.set_defaults(func=_cmd_create)

    s = subs.add_parser("verify", help="compare fast amplitudes against the full-space oracle")
    _add_chain_flags(s)
    s.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    s.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpinRscError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
