"""CLI artifacts compared byte for byte against files under ``tests/golden/``.

Each golden file holds what ``spinrsc <argv>`` printed (or wrote to its
``--out`` path) when the file was recorded.  A golden file changes only
together with a CHANGES.md note saying which artifact moved, by how much
and why; it is never rewritten to make a failing comparison pass.
"""

from pathlib import Path

import pytest

from spinrsc.cli import build_parser, main

pytestmark = pytest.mark.two_blas_threads  # CI runs these under two BLAS threads too

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "{out}"  # replaced by a temporary path for the subcommands that write a file

CONTROLS = ["--alpha1", "0.3", "--alpha2", "0.4", "--phi1", "0.1", "--phi2", "0.7"]

CASES = {
    **{
        f"optimize_{model}{'_v' if with_v else ''}_n{n}.json": [
            "optimize", "--n", str(n), "--model", model, *(["--with-v"] if with_v else [])
        ]
        for model in ("nn", "all")
        for n in (4, 9, 34, 37, 109, 200)
        for with_v in (False, True)
    },
    **{
        f"amplitudes_{model}_n{n}_t{t}.json": [
            "amplitudes", "--n", str(n), "--model", model, "--t", t
        ]
        for model in ("nn", "all")
        for n in (9, 109)
        for t in ("0", "3.7", "250")
    },
    **{
        f"hamiltonian_{model}_n6.csv": ["hamiltonian", "--n", "6", "--model", model]
        for model in ("nn", "all")
    },
    "create_nn_n20.json": ["create", "--n", "20", "--model", "nn", *CONTROLS],
    "create_all_v_n109.json": ["create", "--n", "109", "--model", "all", "--with-v", *CONTROLS],
    "region_nn_n20_step0.02.csv": [
        "region", "--n", "20", "--model", "nn", "--step", "0.02", "--out", OUT
    ],
    "region_all_n37_step0.02.csv": [
        "region", "--n", "37", "--model", "all", "--step", "0.02", "--out", OUT
    ],
    "critical_half_n30_40.csv": [
        "critical-length", "--threshold", "0.5", "--n-min", "30", "--n-max", "40"
    ],
    "critical_half_all_v_n105_112.csv": [
        "critical-length", "--threshold", "0.5", "--n-min", "105", "--n-max", "112",
        "--models", "all+v",
    ],
    "critical_nine_tenths_n4_20.csv": ["critical-length", "--threshold", "0.9", "--n-max", "20"],
}

SUBCOMMANDS = [
    "hamiltonian", "amplitudes", "optimize", "sweep", "critical-length", "region", "create",
    "verify",
]
HELP_CASES = {
    "help.txt": ["--help"],
    **{f"help_{name}.txt": [name, "--help"] for name in SUBCOMMANDS},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifact_matches_golden(name, tmp_path, capsys):
    """The ``--out`` file of a subcommand that writes one, else its stdout."""
    argv = CASES[name]
    out = tmp_path / "artifact"
    assert main([str(out) if arg == OUT else arg for arg in argv]) == 0
    printed = capsys.readouterr().out
    emitted = out.read_bytes() if OUT in argv else printed.encode()
    assert emitted == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_text_matches_golden(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as excinfo:
        main(HELP_CASES[name])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_every_subcommand_has_a_help_golden():
    subs = next(a for a in build_parser()._actions if a.dest == "subcommand")
    assert sorted(subs.choices) == sorted(SUBCOMMANDS)
