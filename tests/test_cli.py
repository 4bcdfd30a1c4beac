import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spinrsc import (
    Coupling,
    CouplingModel,
    build_hamiltonian,
    chain_decomposition,
    amplitude_matrix,
)
from spinrsc import cli
from spinrsc.cli import main


def test_hamiltonian_csv_round_trips(capsys):
    assert main(["hamiltonian", "--n", "4", "--model", "nn"]) == 0
    out = capsys.readouterr().out
    rows = [[float(x) for x in line.split(",")] for line in out.strip().splitlines()]
    expected = build_hamiltonian(CouplingModel(Coupling.NEAREST_NEIGHBOR, 4))
    assert np.array_equal(np.array(rows), expected)


def test_amplitudes_json_matches_library(capsys):
    assert main(["amplitudes", "--n", "5", "--model", "all", "--t", "2.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, 5))
    p = amplitude_matrix(dec, 2.0)
    assert data["p_nm1_1"] == [p[0, 0].real, p[0, 0].imag]
    assert data["p_n_2"] == [p[1, 1].real, p[1, 1].imag]
    assert set(data) == {"p_nm1_1", "p_nm1_2", "p_n_1", "p_n_2"}


def test_optimize_json_fields(capsys):
    assert main(["optimize", "--n", "6", "--model", "all", "--with-v"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"t0", "r_max_sq", "a_opt", "u", "v0", "lam"}
    assert data["r_max_sq"] == pytest.approx(data["lam"][1] ** 2, abs=1e-10)
    a = np.array([complex(*pair) for pair in data["a_opt"]])
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
    u = np.array([[complex(*pair) for pair in row] for row in data["u"]])
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-10


def test_sweep_csv_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep", "--n-min", "4", "--n-max", "8", "--models", "nn,all,all+v"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    text = out1.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,model,t0,r_max_sq"
    assert len(lines) == 1 + 5 * 3
    assert lines[1].startswith("4,nn,")
    assert text == out2.read_text()


def test_sweep_repeated_model_writes_each_row_once(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n-min", "4", "--n-max", "6", "--models", "nn,nn",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["4", "nn"], ["5", "nn"], ["6", "nn"]]


def test_critical_length_reports_known_values(capsys):
    assert main(["critical-length", "--threshold", "0.9", "--n-max", "20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "model,n_critical"
    assert lines[1:] == ["nn,6", "all,4", "all+v,17"]


def test_critical_length_none_in_range(capsys):
    assert main(["critical-length", "--threshold", "0.9999", "--n-min", "5", "--n-max", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1:] == ["nn,none", "all,none", "all+v,none"]


def test_region_csv(tmp_path):
    out = tmp_path / "region.csv"
    assert main([
        "region", "--n", "6", "--model", "all", "--with-v", "--step", "0.5",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha1,alpha2,lambda,beta1,beta2"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    lam = float(lines[1].split(",")[2])
    assert 0.5 <= lam <= 1.0


def test_region_grid_row_count_step_tenth(tmp_path):
    out = tmp_path / "region.csv"
    assert main([
        "region", "--n", "6", "--model", "all", "--step", "0.1", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 121


def test_create_json(capsys):
    assert main([
        "create", "--n", "6", "--model", "all", "--with-v",
        "--alpha1", "0.3", "--alpha2", "0.4", "--phi1", "0.1", "--phi2", "0.7",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"t0", "rho", "lambda", "beta1", "beta2"}
    rho = np.array([[complex(*pair) for pair in row] for row in data["rho"]])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert 0.5 <= data["lambda"] <= 1.0


def test_verify_reports_small_deviation(capsys):
    assert main(["verify", "--n", "4", "--model", "nn", "--t", "1.3"]) == 0
    out = capsys.readouterr().out
    label, value = out.split()
    assert label == "max_deviation"
    assert float(value) < 1e-10


def test_verify_at_thirteen_nodes(capsys):
    assert main(["verify", "--n", "13", "--model", "nn", "--t", "4.1"]) == 0
    label, value = capsys.readouterr().out.split()
    assert float(value) <= 1e-10


def test_verify_checks_the_p_kernel_in_one_call(monkeypatch, capsys):
    # the fast side is the amplitude_matrix the protocol and creation map use
    calls = []

    def counted(dec, t):
        calls.append(t)
        return amplitude_matrix(dec, t)

    monkeypatch.setattr(cli, "amplitude_matrix", counted)
    assert main(["verify", "--n", "9", "--model", "all", "--t", "3.7"]) == 0
    assert calls == [3.7]
    assert float(capsys.readouterr().out.split()[1]) <= 1e-10


def test_verify_at_the_full_space_cap(capsys):
    assert main(["verify", "--n", "18", "--model", "nn", "--t", "4.1"]) == 0
    label, value = capsys.readouterr().out.split()
    assert label == "max_deviation" and float(value) <= 1e-10


def test_verify_rejects_oversized_chain_before_solving():
    # the cap is checked before the one-excitation eigensolve, which at the
    # larger length would ask numpy for tens of GiB
    root = Path(__file__).resolve().parents[1]
    for n in ("19", "100000"):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "spinrsc", "verify", "--n", n, "--model", "all", "--t", "1"],
            capture_output=True,
            text=True,
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and "n <= 18" in result.stderr
        assert "Traceback" not in result.stderr
        assert elapsed < 1.0


def _limit_address_space():
    """Child-side cap of 1 GiB, so a grid built before the cap check fails fast, not the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("step", ["1e-300", "1e-7"])
def test_region_refuses_a_grid_above_the_cap_before_building_it(step, tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "region.csv"
    argv = ["region", "--n", "5", "--model", "all", "--step", step, "--out", str(out)]
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "spinrsc", *argv],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: grid step {float(step)!r} is too fine")
    assert not out.exists()
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["amplitudes", "verify"])
def test_overflowing_time_is_an_error_not_nan(command):
    # 1.7e308 is a finite float, but the phases E t overflow to inf
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "spinrsc", command, "--n", "9", "--model", "all", "--t", "1.7e308"],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert result.returncode == 1
    # the time is refused before any phase is computed, so numpy warns of nothing
    assert result.stderr.startswith("error: time 1.7e+308")
    assert len(result.stderr.splitlines()) == 1
    assert "Warning" not in result.stderr
    assert "nan" not in result.stdout.lower()


@pytest.mark.parametrize("command", ["amplitudes", "verify"])
@pytest.mark.parametrize("t", ["1e15", "-1.5e12"])
def test_time_beyond_the_bound_is_refused(command, t, capsys):
    # beyond |t| = 1e12 the eigenvalues' rounding moves the phases E t by
    # more than 1e-4 rad, and by 1e15 P(t) is noise
    assert main([command, "--n", "9", "--model", "all", f"--t={t}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: time {float(t)!r} is too large")
    assert len(captured.err.splitlines()) == 1


def test_time_at_the_bound_is_accepted(capsys):
    assert main(["amplitudes", "--n", "9", "--model", "all", "--t=-1e12"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"p_nm1_1", "p_nm1_2", "p_n_1", "p_n_2"}


def test_verify_fails_when_the_deviation_exceeds_the_gate():
    # at |E t| ~ 1e8 the eigenvalues' rounding moves every phase by ~1e-8 rad,
    # so the one-excitation amplitudes differ from the oracle's by ~2.5e-8
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "spinrsc", "verify", "--n", "9", "--model", "all", "--t", "1e8"],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert result.returncode == 1
    label, value = result.stdout.split()
    assert label == "max_deviation" and float(value) > 1e-10
    assert result.stderr.startswith("error: deviation exceeds 1e-10")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_domain_error_exit_code(capsys):
    assert main(["hamiltonian", "--n", "3", "--model", "nn"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hamiltonian", "--n", "100000", "--model", "all"],
    ["optimize", "--n", "100000", "--model", "nn"],
])
def test_input_too_large_for_memory_is_an_error_without_traceback(argv, monkeypatch, capsys):
    def refuse(model):
        # what numpy raises for the 100000 x 100000 coupling matrix; nothing is allocated here
        raise MemoryError(
            "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
            "and data type float64"
        )

    monkeypatch.setattr(cli, "build_hamiltonian", refuse)
    monkeypatch.setattr(cli, "chain_decomposition", refuse)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
        "and data type float64\n"
    )


def test_bad_model_list_is_domain_error(capsys):
    assert main(["sweep", "--n-min", "4", "--n-max", "5", "--models", "bogus",
                 "--out", "/dev/null"]) == 1
    assert "nn, all, all+v" in capsys.readouterr().err


def test_sweep_empty_range_is_domain_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n-min", "9", "--n-max", "5", "--out", str(out)]) == 1
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-min", "4", "--n-max", "5"],
    ["region", "--n", "6", "--model", "all", "--step", "0.5"],
])
def test_unwritable_out_is_an_error_without_traceback(argv, tmp_path):
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "spinrsc", *argv, "--out", str(tmp_path / "missing" / "x.csv")],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_critical_length_empty_range_is_domain_error(capsys):
    assert main(["critical-length", "--threshold", "0.5", "--n-min", "9", "--n-max", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty" in captured.err


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_verify_rejects_nan_time(capsys):
    err = _usage_error(["verify", "--n", "6", "--model", "all", "--t", "nan"], capsys)
    assert "--t: must be a finite number" in err


@pytest.mark.parametrize("value, message", [
    pytest.param("nan", "--t: must be a finite number", id="nan"),
    pytest.param("inf", "--t: must be a finite number", id="inf"),
    pytest.param("abc", "--t: invalid number: 'abc'", id="abc"),
])
def test_amplitudes_rejects_non_finite_time(value, message, capsys):
    err = _usage_error(["amplitudes", "--n", "6", "--model", "nn", "--t", value], capsys)
    assert message in err


def test_critical_length_rejects_nan_threshold(capsys):
    err = _usage_error(["critical-length", "--threshold", "nan", "--n-max", "6"], capsys)
    assert "--threshold: must be a finite number" in err


@pytest.mark.parametrize("value", ["-1", "1.1"])
def test_critical_length_rejects_threshold_outside_unit_interval(value, capsys):
    err = _usage_error(["critical-length", "--threshold", value, "--n-max", "6"], capsys)
    assert f"--threshold: must lie in [0, 1], got '{value}'" in err


def _outcome(argv, capsys):
    """``(exit code, stdout, stderr)`` of ``main``, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CHAIN = ["--n", "5", "--model", "nn"]
_ANGLES = ("alpha1", "alpha2", "phi1", "phi2")
_FLOAT_FLAGS = [
    (["amplitudes", *_CHAIN], "t"),
    (["verify", *_CHAIN], "t"),
    (["critical-length", "--n-max", "6"], "threshold"),
    (["region", *_CHAIN, "--out", "{out}"], "step"),
    *[(["create", *_CHAIN, *(f"--{a}=0.5" for a in _ANGLES if a != angle)], angle)
      for angle in _ANGLES],
]


@pytest.mark.parametrize("prefix, flag", _FLOAT_FLAGS)
@pytest.mark.parametrize("value", ["-1e-3", "-5E-324", "-.5e1", "-1.", "-inf"])
def test_a_float_flag_takes_a_negative_value_as_a_separate_token(
    prefix, flag, value, tmp_path, capsys
):
    # argparse would read "-1e-3" after a separate flag as an option and exit 2
    argv = [arg.replace("{out}", str(tmp_path / "out.csv")) for arg in prefix]
    separate = _outcome([*argv, f"--{flag}", value], capsys)
    assert separate == _outcome([*argv, f"--{flag}={value}"], capsys)
    assert "expected one argument" not in separate[2]


def test_a_small_negative_time_in_exponent_form_is_a_time(capsys):
    code, out, err = _outcome(["amplitudes", *_CHAIN, "--t", "-1e-3"], capsys)
    assert (code, err) == (0, "")
    assert set(json.loads(out)) == {"p_nm1_1", "p_nm1_2", "p_n_1", "p_n_2"}


def test_a_negative_angle_in_exponent_form_is_a_range_error(capsys):
    argv = ["create", *_CHAIN, "--alpha1", "0.3", "--alpha2", "-1e-300", "--phi1", "0",
            "--phi2", "0"]
    code, out, err = _outcome(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "alpha2 must lie in [0, 1]" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["hamiltonian", "--n", "4"])  # missing --model
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_console_entry_point_runs():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "spinrsc", "hamiltonian", "--n", "4", "--model", "all"],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) == 4
