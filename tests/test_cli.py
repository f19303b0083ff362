import csv

import numpy as np
import pytest

from xmhd.cli import main
from xmhd.mhd import read_checkpoint


def test_single_run_writes_outputs(tmp_path, capsys):
    code = main(["--problem", "khi", "--case", "III", "--nx", "20", "--ny", "20",
                 "--tf", "0.05", "--tol", "1e-4", "--integrator", "exprb43",
                 "--method", "leja", "--controller", "combined",
                 "--output", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    state, t = read_checkpoint(tmp_path / "final.chk")
    assert state.nx == 20
    assert t == pytest.approx(0.05, abs=1e-12)
    with open(tmp_path / "run.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["scheme"] == "exprb43"
    assert rows[0]["status"] == "ok"


def test_make_reference_mode(tmp_path, capsys):
    code = main(["--problem", "khi", "--case", "III", "--nx", "16", "--ny", "16",
                 "--tf", "0.002", "--make-reference", "--output", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "reference-khi-III.chk").exists()


def test_sweep_mode(tmp_path):
    ref = main(["--problem", "khi", "--case", "III", "--nx", "16", "--ny", "16",
                "--tf", "0.01", "--make-reference", "--output", str(tmp_path)])
    assert ref == 0
    code = main(["--problem", "khi", "--case", "III", "--nx", "16", "--ny", "16",
                 "--tf", "0.01", "--sweep", "tol=1e-3,1e-4",
                 "--reference", str(tmp_path / "reference-khi-III.chk"),
                 "--output", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "work_precision.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["tol"] for r in rows} == {"0.001", "0.0001"}


def test_sweep_without_reference_is_config_error(tmp_path):
    code = main(["--problem", "khi", "--sweep", "tol=1e-3",
                 "--output", str(tmp_path)])
    assert code == 2


def test_bad_flag_exits_two(capsys):
    assert main(["--problem", "nonsense"]) == 2


def test_divb_series_mode(tmp_path):
    code = main(["--problem", "recon", "--case", "VI", "--nx", "24", "--ny", "24",
                 "--tf", "0.4", "--divb-every", "0.1", "--output", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "divb_series.csv").read_text().strip().splitlines()
    assert lines[0] == "t,max_divb"
    assert len(lines) == 1 + 5  # t = 0, 0.1, 0.2, 0.3, 0.4


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=khi\ncase=III\nnx=16\nny=16\ntf=0.02\ntol=1e-3\n")
    code = main(["--config", str(cfg), "--tol", "1e-4", "--output", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "run.csv") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["tol"]) == 1e-4  # command line wins
    assert row["nx"] == "16"


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem khi\n")
    code = main(["--config", str(cfg)])
    assert code == 2


def test_numerical_abort_exit_code(tmp_path):
    code = main(["--problem", "khi", "--case", "III", "--nx", "16", "--ny", "16",
                 "--tf", "5.0", "--tol", "1e-6", "--max-steps", "3",
                 "--output", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("integrator", ["ros-euler"])
def test_integrator_without_error_estimate_is_config_error(tmp_path, capsys,
                                                           monkeypatch, integrator):
    import xmhd.cli

    def no_stepping(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(xmhd.cli, "run", no_stepping)
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.01",
                 "--integrator", integrator, "--output", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
