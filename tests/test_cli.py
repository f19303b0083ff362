import csv
import struct

import pytest

from xmhd.cli import main
from xmhd.mhd import StateGrid, read_checkpoint, write_checkpoint


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
    # the reference run uses its own integrator, whatever --integrator says
    code = main(["--problem", "khi", "--case", "III", "--nx", "16", "--ny", "16",
                 "--tf", "0.002", "--make-reference", "--integrator", "rk43",
                 "--output", str(tmp_path)])
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


@pytest.mark.parametrize("raising,code", [({1e-3, 1e-4}, 3), ({1e-4}, 0)],
                         ids=["every-run-failed", "one-of-two-failed"])
def test_sweep_exits_three_when_every_run_failed(tmp_path, monkeypatch, raising, code):
    import xmhd.harness
    assert main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002",
                 "--make-reference", "--output", str(tmp_path)]) == 0
    original = xmhd.harness.run

    def sometimes_broken(config):
        if config.tol in raising:
            raise RuntimeError("solver exploded")
        return original(config)

    monkeypatch.setattr(xmhd.harness, "run", sometimes_broken)
    assert main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002",
                 "--sweep", "tol=1e-3,1e-4", "--output", str(tmp_path),
                 "--reference", str(tmp_path / "reference-khi-III.chk")]) == code
    with open(tmp_path / "work_precision.csv") as fh:
        statuses = sorted(r["status"] for r in csv.DictReader(fh))
    assert statuses == sorted("failed" if tol in raising else "ok" for tol in (1e-3, 1e-4))


def test_seed_flag_is_gone(capsys):
    # nothing in a run is random
    assert main(["--problem", "khi", "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_sweep_against_reference_of_another_grid_is_config_error(tmp_path, capsys):
    assert main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002",
                 "--make-reference", "--output", str(tmp_path)]) == 0
    out = tmp_path / "sweep"
    code = main(["--problem", "khi", "--nx", "24", "--ny", "24", "--tf", "0.002",
                 "--sweep", "tol=1e-3,1e-4", "--reference",
                 str(tmp_path / "reference-khi-III.chk"), "--output", str(out)])
    assert code == 2
    assert "16x16 grid, the sweep on 24x24" in one_line_error(capsys)
    assert not (out / "work_precision.csv").exists()


@pytest.mark.parametrize("spec,message", [("tol=", "at least one tolerance"),
                                          ("", "sweep spec must look like")],
                         ids=["no-tolerance", "empty-spec"])
def test_empty_sweep_is_config_error(tmp_path, capsys, spec, message):
    # with an existing reference, so that only the sweep spec is wrong
    assert main(["--problem", "khi", "--nx", "8", "--ny", "8", "--tf", "0.001",
                 "--make-reference", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "sweep"
    code = main(["--problem", "khi", "--nx", "8", "--ny", "8", "--tf", "0.001",
                 "--sweep", spec, "--reference", str(tmp_path / "reference-khi-III.chk"),
                 "--output", str(out)])
    assert code == 2
    assert message in one_line_error(capsys)
    assert not out.exists()


def test_sweep_without_reference_is_config_error(tmp_path):
    code = main(["--problem", "khi", "--sweep", "tol=1e-3",
                 "--output", str(tmp_path)])
    assert code == 2


def one_line_error(capsys):
    """The single stderr line of a refused command, checked to be no traceback."""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    return err


def test_sweep_with_malformed_reference_is_config_error(tmp_path, capsys):
    ref = tmp_path / "garbage.chk"
    ref.write_bytes(b"garbage")
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.01",
                 "--sweep", "tol=1e-3", "--reference", str(ref), "--output", str(tmp_path)])
    assert code == 2
    assert "truncated checkpoint header" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == [ref]


def test_sweep_with_a_reference_header_larger_than_its_file_is_config_error(tmp_path, capsys):
    # nx = ny = 2^31 - 1 in the header of a valid checkpoint: the reader
    # refuses the implied payload instead of trying to read it
    ref = tmp_path / "bad.chk"
    write_checkpoint(ref, StateGrid.zeros(4, 4, 0.1, 0.1), 0.0)
    raw = bytearray(ref.read_bytes())
    raw[8:16] = struct.pack("<II", 2 ** 31 - 1, 2 ** 31 - 1)
    ref.write_bytes(bytes(raw))
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002",
                 "--sweep", "tol=1e-3", "--reference", str(ref), "--output", str(tmp_path)])
    assert code == 2
    assert "config error: truncated checkpoint payload" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == [ref]


def test_malformed_sweep_spec_is_config_error(tmp_path, capsys):
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.01",
                 "--sweep", "1e-3,1e-4", "--reference", str(tmp_path / "missing.chk"),
                 "--output", str(tmp_path)])
    assert code == 2
    assert 'sweep spec must look like "tol=' in one_line_error(capsys)


def test_failed_reference_run_is_numerical_abort(tmp_path, capsys):
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.01",
                 "--make-reference", "--max-steps", "1", "--output", str(tmp_path)])
    assert code == 3
    assert "reference run failed" in one_line_error(capsys)
    assert not (tmp_path / "reference-khi-III.chk").exists()


def test_bad_flag_exits_two(capsys):
    assert main(["--problem", "nonsense"]) == 2


def test_divb_series_mode(tmp_path):
    code = main(["--problem", "recon", "--case", "VI", "--nx", "24", "--ny", "24",
                 "--tf", "0.4", "--divb-every", "0.1", "--output", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "divb_series.csv").read_text().strip().splitlines()
    assert lines[0] == "t,max_divb"
    assert len(lines) == 1 + 5  # t = 0, 0.1, 0.2, 0.3, 0.4
    # the series comes in addition to the outputs of every single run
    state, t = read_checkpoint(tmp_path / "final.chk")
    assert t == pytest.approx(0.4, abs=1e-12)
    with open(tmp_path / "run.csv") as fh:
        assert next(csv.DictReader(fh))["status"] == "ok"


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


@pytest.mark.parametrize("extra", [
    ["--tol", "0"],
    ["--nx", "0"],
    ["--tf", "-1"],
    ["--tf", "nan"],
    ["--tf", "inf"],
    ["--problem", "recon", "--ny", "1"],  # one row between reflecting walls
    ["--spectrum-interval", "-3"],
    ["--spectrum-interval", "0"],
    ["--max-steps", "0"],
    ["--checkpoint-every", "-1"],
    ["--divb-every", "-0.5"],
    ["--sweep", "tol=1e-3,0", "--reference", "missing.chk"],
    ["--sweep", "tol=1e-3", "--reference", "missing.chk"],
    ["--make-reference", "--sweep", "tol=1e-3"],
    ["--reference", "missing.chk"],
    ["--make-reference", "--reference", "missing.chk"],
    ["--output", "afile"],
    ["--output", "afile/sub"],
    ["--output", "afile/sub", "--checkpoint-every", "0.005"],
    # flags a mode would drop
    ["--sweep", "tol=1e-3", "--reference", "missing.chk", "--divb-every", "0.001"],
    ["--make-reference", "--divb-every", "0.001"],
    ["--sweep", "tol=1e-3", "--reference", "missing.chk", "--checkpoint-every", "0.005"],
], ids=["tol0", "nx0", "tf-1", "tf-nan", "tf-inf", "recon-ny1", "interval-3", "interval0", "maxsteps0",
        "checkpoint-1", "divb-0.5", "sweep-tol0", "sweep-missing-reference",
        "reference-and-sweep", "reference-without-sweep", "make-reference-with-reference",
        "output-is-a-file", "output-under-a-file",
        "checkpoints-under-a-file", "sweep-with-divb", "make-reference-with-divb",
        "sweep-with-checkpoints"])
def test_out_of_range_config_is_config_error(tmp_path, capsys, monkeypatch, extra):
    # relative paths resolve in tmp_path, which holds one regular file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.01",
                 "--output", str(tmp_path / "out"), *extra])
    assert code == 2
    assert one_line_error(capsys).startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("flag", ["--divb-every", "--checkpoint-every"])
def test_an_interval_that_cannot_advance_its_schedule_is_config_error(tmp_path, capsys,
                                                                       monkeypatch, flag):
    # 0.01 + 1e-20 == 0.01: the run would sample or checkpoint forever
    import xmhd.cli

    def no_stepping(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(xmhd.cli, "run", no_stepping)
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.01",
                 "--output", str(tmp_path / "out"), flag, "1e-20"])
    assert code == 2
    assert "must be 0 or advance a time of t_final" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_every_without_output_is_config_error(tmp_path, capsys, monkeypatch):
    # the checkpoints would have nowhere to go
    monkeypatch.chdir(tmp_path)
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.02",
                 "--checkpoint-every", "0.005"])
    assert code == 2
    assert "--checkpoint-every requires --output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_comments_and_flags(tmp_path):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text("# a reference run\nproblem=khi\n\n  # indented comment\n"
                   "nx=16\nny=16\ntf=0.002\nmake-reference=true\n")
    code = main(["--config", str(cfg), "--output", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "reference-khi-III.chk").exists()


@pytest.mark.parametrize("flag", [["--divb-every", "0.001"], ["--checkpoint-every", "0.001"]],
                         ids=["divb", "checkpoints"])
def test_sweep_refuses_a_per_run_output_flag_before_any_run(tmp_path, capsys, flag):
    # with a valid reference: the sweep would run, write no div B series and
    # let every tolerance write its checkpoints into the one --output
    ref = tmp_path / "ref"
    assert main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002",
                 "--make-reference", "--output", str(ref)]) == 0
    capsys.readouterr()
    out = tmp_path / "sweep"
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002",
                 "--sweep", "tol=1e-3,1e-4", "--reference", str(ref / "reference-khi-III.chk"),
                 "--output", str(out), *flag])
    assert code == 2
    assert one_line_error(capsys) == f"config error: {flag[0]} is not supported with --sweep\n"
    assert not out.exists()


def _offered(flag):
    from xmhd.cli import _build_parser

    return next(a.choices for a in _build_parser()._actions if flag in a.option_strings)


_OFFERED_RUNS = [["--integrator", i, "--controller", c]
                 for i in _offered("--integrator") for c in _offered("--controller")]
_OFFERED_RUNS.append(["--method", "krylov"])


@pytest.mark.parametrize("flags", _OFFERED_RUNS, ids=["-".join(f[1::2]) for f in _OFFERED_RUNS])
def test_every_value_the_cli_offers_runs(capsys, flags):
    code = main(["--problem", "khi", "--nx", "16", "--ny", "16", "--tf", "0.002", *flags])
    assert code == 0
    assert "status=ok" in capsys.readouterr().out
