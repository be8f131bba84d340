"""CLI start-up in a fresh interpreter: scipy loads only for the quadrature
oracle, no schema library loads at all, and no config section is built at
import.

The in-process suite always has scipy imported (other test modules import
it), so only a child interpreter sees the cold path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from optivote import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def fresh_python(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter with this checkout's src/ on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, cwd=cwd)


def test_importing_the_cli_loads_no_scipy():
    proc = fresh_python("-c", "import sys, optivote.cli; print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] in ('scipy', 'pydantic', 'pydantic_core')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cold_lambda_oracle_matches_in_process(capsys):
    proc = fresh_python("-m", "optivote.cli", "theory", "--op", "lambda_oracle")
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["theory", "--op", "lambda_oracle"]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert json.loads(proc.stdout)["lambda_oracle"] > 0


@pytest.mark.parametrize("argv", [["verify", "--help"], ["theory", "--op", "error_bound"],
                                  ["theory", "--op", "lambda_eff"]])
def test_a_file_named_out_breaks_no_command(tmp_path, argv):
    # output.dir defaults to "out": a section built at import would check it.
    (tmp_path / "out").write_text("not a directory\n")
    proc = fresh_python("-m", "optivote.cli", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == fresh_python("-m", "optivote.cli", *argv, cwd=ROOT).stdout
