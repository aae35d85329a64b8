"""Config parsing and command-line interface tests."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ahxray.cli import build_parser, main
from ahxray.config import ExperimentConfig
from ahxray.errors import ConfigError
from ahxray.reconstruct import ReconstructionConfig
from ahxray.transport import TransportConfig

BASE_CONFIG = """
[experiment]
seed = 42

[model]
kind = poincare_disk

[transport]
rho_cut = 1e-6
n_steps = 1024

[connection]
rank = 2
decay = 3
term.0 = dir=0; gen=0,0,1,0,-1,0,0,0; center=0.2,0.1; sigma=0.3; coeff=0.4
term.1 = dir=1; gen=0,1,1,0,-1,0,0,-1; center=-0.2,0.0; sigma=0.35; coeff=0.3

[higgs]
rank = 2
decay = 4
term.0 = gen=0,1,0,0,0,0,0,-1; center=0.1,-0.1; sigma=0.3; coeff=0.5

[fan]
mode = boundary_pairs
count = 12
openings = 3

[grid]
nx = 32
ntheta = 32

[section]
mode = 1
center = 0,0
radius = 0.6
vector = 1,0,0,0
"""

GAUGE_EXTRA = """
[gauge]
decay = 4
term.0 = gen=0,1,0,0,0,0,0,-1; center=0.1,-0.2; sigma=0.35; coeff=0.5
"""

RECON_CONFIG = """
[experiment]
seed = 7

[model]
kind = poincare_disk

[transport]
rho_cut = 1e-6
n_steps = 512

[fan]
mode = boundary_pairs
count = 24
openings = 4

[higgs]
rank = 2
decay = 4
term.0 = gen=0,1,0,0,0,0,0,-1; center=0.2,0.0; sigma=0.3; coeff=0.6
term.1 = gen=0,0,1,0,-1,0,0,0; center=-0.15,0.2; sigma=0.3; coeff=-0.4

[reconstruction]
rank = 2
decay = 4
tikhonov = 1e-10
max_iter = 20
basis.0 = gen=0,1,0,0,0,0,0,-1; center=0.2,0.0; sigma=0.3
basis.1 = gen=0,0,1,0,-1,0,0,0; center=-0.15,0.2; sigma=0.3
"""


# RECON_CONFIG on the perturbed model, which shooting fans reach, with a
# third basis field the data do not hold
SHOOTING_RECON_CONFIG = RECON_CONFIG.replace(
    "kind = poincare_disk",
    "kind = conformal_perturbed\nbump_center = 0.25,-0.1\n"
    "bump_radius = 0.3\nbump_amplitude = 0.04"
).replace("mode = boundary_pairs\ncount = 24\nopenings = 4",
          "mode = shooting\ncount = 40"
).replace("n_steps = 512", "n_steps = 256") \
    + "basis.2 = gen=0,0,0,1,0,1,0,0; center=0.3,-0.1; sigma=0.25\n"


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestConfig:
    def test_round_trip_and_fingerprint(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        assert cfg.seed == 42
        fp = cfg.fingerprint()
        assert len(fp) == 16
        assert ExperimentConfig.from_text(BASE_CONFIG).fingerprint() == fp

    def test_build_pair(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        model, conn, higgs = cfg.build_pair()
        assert conn.rank == 2
        x = np.array([0.2, 0.1])
        assert np.max(np.abs(conn.symbols(x))) > 0

    def test_gauge_block_applies(self):
        plain = ExperimentConfig.from_text(BASE_CONFIG)
        gauged = ExperimentConfig.from_text(BASE_CONFIG + GAUGE_EXTRA)
        _, conn_a, _ = plain.build_pair()
        _, conn_b, _ = gauged.build_pair()
        x = np.array([[0.1, -0.2]])
        assert np.max(np.abs(conn_a.symbols(x) - conn_b.symbols(x))) > 1e-6

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("[model]\nkind = poincare_disk\n")

    def test_malformed_term_diagnostic(self):
        bad = BASE_CONFIG.replace("dir=0; gen=0,0,1,0,-1,0,0,0",
                                  "dir=0; gen=0,0,0,1")
        cfg = ExperimentConfig.from_text(bad)
        with pytest.raises(ConfigError) as err:
            cfg.build_pair()
        assert "matrix needs" in str(err.value)

    def test_numbered_terms_follow_integer_order(self):
        # twelve terms: string order would put basis.10 before basis.2
        head = RECON_CONFIG.split("basis.0")[0]
        centers = [(round(0.3 * math.cos(0.5 * k), 6),
                    round(0.3 * math.sin(0.5 * k), 6)) for k in range(12)]
        gens = ["0,1,0,0,0,0,0,-1", "0,0,1,0,-1,0,0,0", "0,0,0,1,0,1,0,0"]
        lines = [f"basis.{k} = gen={gens[k % 3]}; center={c[0]},{c[1]}; "
                 "sigma=0.3" for k, c in enumerate(centers)]
        cfg = ExperimentConfig.from_text(head + "\n".join(lines) + "\n")
        params, _ = cfg.build_reconstruction()
        assert [b.center for _, b in params.basis] == centers

    @pytest.mark.parametrize("keys", [("basis.0", "basis.x"),
                                      ("basis.2", "basis.02")])
    def test_bad_or_duplicate_term_numbers_rejected(self, keys):
        head = RECON_CONFIG.split("basis.0")[0]
        body = "".join(f"{key} = gen=0,1,0,0,0,0,0,-1; center=0.{i},0; "
                       "sigma=0.3\n" for i, key in enumerate(keys))
        cfg = ExperimentConfig.from_text(head + body)
        with pytest.raises(ConfigError) as err:
            cfg.build_reconstruction()
        assert keys[1] in str(err.value)

    def test_empty_sections_build_dataclass_defaults(self):
        cfg = ExperimentConfig.from_text(
            "[experiment]\nseed = 1\n\n[transport]\n")
        assert cfg.build_transport() == TransportConfig()
        body = RECON_CONFIG.replace("tikhonov = 1e-10\nmax_iter = 20\n", "")
        _, rcfg = ExperimentConfig.from_text(body).build_reconstruction()
        defaults = ReconstructionConfig()
        assert (rcfg.tikhonov, rcfg.max_iter) == \
            (defaults.tikhonov, defaults.max_iter)

    def test_library_and_cli_loops_share_transport_defaults(self):
        body = RECON_CONFIG.replace("rho_cut = 1e-6\nn_steps = 512\n", "")
        assert "[transport]\n\n" in body
        _, rcfg = ExperimentConfig.from_text(body).build_reconstruction()
        # n_steps among them: the library loop ran at 1024, the CLI at 2048
        assert rcfg.transport == ReconstructionConfig().transport

    def test_bad_reconstruction_value_diagnostic(self):
        bad = RECON_CONFIG.replace("max_iter = 20", "max_iter = many")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_text(bad).build_reconstruction()
        assert "max_iter" in str(err.value)

    def test_non_skew_generator_diagnostic(self):
        bad = BASE_CONFIG.replace("gen=0,1,0,0,0,0,0,-1",
                                  "gen=1,0,0,0,0,0,1,0")
        cfg = ExperimentConfig.from_text(bad)
        with pytest.raises(Exception) as err:
            cfg.build_pair()
        assert "skew" in str(err.value)


class TestCommands:
    def test_scatter_writes_dataset(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert main(["scatter", "--config", cfg_file, "--out",
                     str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        head = json.loads(lines[0])
        assert head["rank"] == 2
        assert len(lines) == 13

    def test_scatter_deterministic(self, cfg_file, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        main(["scatter", "--config", cfg_file, "--out", str(out1)])
        main(["scatter", "--config", cfg_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_gauge_check_on_constructed_pair(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(BASE_CONFIG)
        b.write_text(BASE_CONFIG + GAUGE_EXTRA)
        out = tmp_path / "report.json"
        code = main(["gauge-check", "--a", str(a), "--b", str(b),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_frobenius"] < 1e-6
        assert report["records"] == 12
        assert "fingerprint" in report and "version" in report

    @pytest.mark.parametrize("old,new,section", [
        # B on the perturbed model at a quarter of A's steps used to exit 0
        # with max_frobenius 0.0: both datasets were computed on A's model
        ("kind = poincare_disk\n\n[transport]\nrho_cut = 1e-6\n"
         "n_steps = 1024",
         "kind = conformal_perturbed\nbump_center = 0.8,0\n"
         "bump_radius = 0.3\nbump_amplitude = 0.04\n\n[transport]\n"
         "rho_cut = 1e-6\nn_steps = 256", "model"),
        ("count = 12", "count = 10", "fan"),
        ("n_steps = 1024", "n_steps = 512", "transport"),
        ("rho_cut = 1e-6\n", "", "transport"),
    ], ids=["perturbed-model", "fan-count", "transport-steps",
            "transport-default"])
    def test_gauge_check_refuses_another_geometry(self, tmp_path, capsys,
                                                  old, new, section):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        out = tmp_path / "report.json"
        assert old in BASE_CONFIG
        a.write_text(BASE_CONFIG)
        b.write_text(BASE_CONFIG.replace(old, new, 1) + GAUGE_EXTRA)
        code = main(["gauge-check", "--a", str(a), "--b", str(b),
                     "--out", str(out)])
        assert code == 2
        assert f"section [{section}]" in capsys.readouterr().err
        assert not out.exists()

    def test_pestov_report(self, cfg_file, tmp_path):
        out = tmp_path / "pestov.json"
        assert main(["pestov", "--config", cfg_file, "--grid", "48,32",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["levels"]) == 2
        assert report["refinement_decreasing"]
        assert report["levels"][1]["relative_residual"] < 1e-2

    def test_pestov_reads_grid_section(self, tmp_path):
        # without --grid the [grid] level is the fine one; at nx = 24 the
        # coarse companion (nx // 2, at least 24) coincides with it
        path = tmp_path / "exp.cfg"
        path.write_text(BASE_CONFIG.replace("nx = 32\nntheta = 32",
                                            "nx = 24\nntheta = 8"))
        out = tmp_path / "pestov.json"
        assert main(["pestov", "--config", str(path), "--out",
                     str(out)]) == 0
        levels = json.loads(out.read_text())["levels"]
        assert [(lv["nx"], lv["ntheta"]) for lv in levels] == [(24, 8)]

    def test_fourier_csv(self, cfg_file, tmp_path):
        out = tmp_path / "modes.csv"
        assert main(["fourier", "--config", cfg_file, "--out",
                     str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mode,energy"
        energies = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert energies[1] > 0.99 * sum(energies)

    def test_curvature_report(self, cfg_file, tmp_path):
        out = tmp_path / "curv.json"
        assert main(["curvature-report", "--config", cfg_file, "--out",
                     str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["sectional_max"] == pytest.approx(-1.0, abs=1e-9)
        assert report["kappa"] == pytest.approx(1.0, abs=1e-9)

    def test_reconstruct_closed_loop(self, tmp_path):
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        data_path = tmp_path / "data.jsonl"
        assert main(["scatter", "--config", str(cfg_path), "--out",
                     str(data_path)]) == 0
        out = tmp_path / "report.json"
        csv_out = tmp_path / "field.csv"
        code = main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path), "--out", str(out),
                     "--field-csv", str(csv_out)])
        assert code == 0
        report = json.loads(out.read_text())
        coeffs = np.asarray(report["coeffs"])
        assert np.linalg.norm(coeffs - [0.6, -0.4]) < 0.03
        header, *rows = csv_out.read_text().splitlines()
        assert header.startswith("x1,x2,")
        assert rows and all(len(row.split(",")) == len(header.split(","))
                            for row in rows)
        # every cell is a plain number, the coordinates as the phi columns
        assert np.all(np.isfinite([float(cell) for row in rows
                                   for cell in row.split(",")]))

    def test_reconstruct_on_perturbed_shooting_fan(self, tmp_path):
        cfg_path = tmp_path / "shoot.cfg"
        cfg_path.write_text(SHOOTING_RECON_CONFIG)
        data_path = tmp_path / "data.jsonl"
        assert main(["scatter", "--config", str(cfg_path), "--out",
                     str(data_path)]) == 0
        out = tmp_path / "report.json"
        assert main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path), "--out", str(out)]) == 0
        coeffs = np.asarray(json.loads(out.read_text())["coeffs"])
        assert np.linalg.norm(coeffs - [0.6, -0.4, 0.0]) < 1e-8

    def test_boundary_pairs_on_perturbed_model_exit_code(self, tmp_path,
                                                         capsys):
        # a boundary-pair fan has closed-form geodesics on the disk only
        cfg_path = tmp_path / "pairs.cfg"
        cfg_path.write_text(SHOOTING_RECON_CONFIG.replace(
            "mode = shooting\ncount = 40",
            "mode = boundary_pairs\ncount = 24\nopenings = 4"))
        data_path = tmp_path / "data.jsonl"
        data_path.write_text('{"fingerprint": "", "rank": 2, '
                             '"rho_cut": 1e-06}\n')
        for argv in (["scatter"], ["reconstruct", "--data", str(data_path)]):
            assert main(argv + ["--config", str(cfg_path)]) == 2
            assert "boundary-pair fan needs the unperturbed disk" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", [
        '{"bad": 1}', "not json",
        '{"entry_alpha": 0.0, "entry_eta": 0.0, "exit_alpha": 1.0, '
        '"exit_eta": 0.0, "matrix": [1, 0, 0, 0], "unitarity_defect": 0.0}'])
    def test_malformed_dataset_exit_code(self, tmp_path, capsys, bad_line):
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        data_path = tmp_path / "data.jsonl"
        data_path.write_text('{"fingerprint": "", "rank": 2, '
                             '"rho_cut": 1e-06}\n' + bad_line + "\n")
        assert main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("header,record,words", [
        ({}, {"entry_alpha": math.nan, "entry_eta": math.nan},
         "line 2: ValueError: entry_alpha must be finite, got nan"),
        ({"rank": 2.7}, {},
         "line 1: ValueError: rank must be a positive integer, got 2.7"),
    ], ids=["nan-entry-keys", "fractional-rank"])
    def test_malformed_dataset_refused_not_fitted(self, tmp_path, capsys,
                                                  header, record, words):
        # both datasets used to be fitted with exit 0: NaN keys passed the
        # fan check, and rank 2.7 was read as 2
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        data_path = tmp_path / "data.jsonl"
        assert main(["scatter", "--config", str(cfg_path), "--out",
                     str(data_path)]) == 0
        objs = [json.loads(ln) for ln in data_path.read_text().splitlines()]
        objs[0].update(header)
        for obj in objs[1:]:
            obj.update(record)
        data_path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        capsys.readouterr()
        assert main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and words in err

    def test_unreadable_dataset_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        binary = tmp_path / "data.jsonl"
        binary.write_bytes(b"\xff\xfe\n")
        for data in (binary, tmp_path):
            assert main(["reconstruct", "--data", str(data), "--config",
                         str(cfg_path)]) == 2

    def test_dataset_from_another_fan_exit_code(self, tmp_path, capsys):
        # same record count, different openings: refused, not fitted
        other = tmp_path / "other.cfg"
        other.write_text(RECON_CONFIG.replace("openings = 4", "openings = 8"))
        data_path = tmp_path / "data.jsonl"
        assert main(["scatter", "--config", str(other), "--out",
                     str(data_path)]) == 0
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        assert main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path)]) == 2
        assert "entry keys differ" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nseed = 1\n[model]\nkind = nonsense\n")
        assert main(["curvature-report", "--config", str(bad)]) == 2

    def test_missing_file_exit_code(self, capsys):
        assert main(["scatter", "--config", "/nonexistent.cfg"]) == 2


class TestFlagOverrides:
    def test_seed_override_embedded(self, cfg_file, tmp_path):
        out = tmp_path / "curv.json"
        main(["curvature-report", "--config", cfg_file, "--seed", "99",
              "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 99

    def test_inline_section_spec(self, cfg_file, tmp_path):
        out = tmp_path / "modes.csv"
        assert main(["fourier", "--config", cfg_file, "--section",
                     "mode=3; center=0,0; radius=0.6; vector=1,0,0,0",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        energies = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert energies[3] > 0.99 * sum(energies)

    def test_fourier_lists_the_sections_own_mode(self, cfg_file, tmp_path):
        # mode 10 lies above max_exact_degree = 7 of the 32-point fiber
        out = tmp_path / "modes.csv"
        assert main(["fourier", "--config", cfg_file, "--section",
                     "mode=10; center=0,0; radius=0.6; vector=1,0,0,0",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        energies = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(energies) == 11
        assert energies[10] > 0.99 * sum(energies) > 0.0

    def test_basis_file_merge(self, tmp_path):
        cfg_path = tmp_path / "recon.cfg"
        # strip the [reconstruction] block from the main config
        head = RECON_CONFIG.split("[reconstruction]")[0]
        cfg_path.write_text(head)
        basis_path = tmp_path / "basis.cfg"
        basis_path.write_text(
            "[reconstruction]\n" + RECON_CONFIG.split("[reconstruction]")[1])
        data_path = tmp_path / "data.jsonl"
        full = tmp_path / "full.cfg"
        full.write_text(RECON_CONFIG)
        assert main(["scatter", "--config", str(full), "--out",
                     str(data_path)]) == 0
        out = tmp_path / "report.json"
        code = main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path), "--basis", str(basis_path),
                     "--out", str(out)])
        assert code == 0
        coeffs = np.asarray(json.loads(out.read_text())["coeffs"])
        assert np.linalg.norm(coeffs - [0.6, -0.4]) < 0.03


class TestUnknownNamesAndLiteralText:
    """Misspelt names fail with exit 2 instead of leaving a default."""

    @pytest.mark.parametrize("old,new,key", [
        ("tikhonov = 1e-10", "tikhnov = 1e-3", "tikhnov"),
        ("max_iter = 20", "max_iter = 20\nfd_step = 1e-6", "fd_step"),
        ("n_steps = 512", "n_steps = 512\nrichardson = yes", "richardson"),
        ("[transport]", "[trasnport]", None)])
    def test_unknown_key_or_section_rejected(self, old, new, key):
        bad = RECON_CONFIG.replace(old, new)
        assert bad != RECON_CONFIG
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_text(bad)
        assert (key or "trasnport") in str(err.value)

    def test_every_key_a_builder_reads_is_accepted(self):
        # the keys the test configs above do not set
        text = BASE_CONFIG.replace(
            "kind = poincare_disk",
            "kind = conformal_perturbed\nbump_center = 0.25,-0.1\n"
            "bump_radius = 0.3\nbump_amplitude = 0.04\nepsilon0 = 0.1"
        ).replace("mode = boundary_pairs",
                  "mode = shooting\nn_eta = 2\neta_max = 1.5"
        ).replace("ntheta = 32", "ntheta = 32\nrho_grid = 0.05"
        ).replace("vector = 1,0,0,0", "vector = 1,0,0,0\npower = 6")
        cfg = ExperimentConfig.from_text(text + GAUGE_EXTRA)
        model, conn, _ = cfg.build_pair()
        assert cfg.build_fan().mode.value == "shooting"
        # no command reads the adaptive tolerances: they are refused by name
        for key in ("rtol", "atol"):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_text(text.replace(
                    "n_steps = 1024", f"n_steps = 1024\n{key} = 1e-10"))
            assert f"key '{key}'" in str(err.value)
        grid = cfg.build_grid(model)
        assert grid.rho_grid == 0.05
        assert cfg.build_section(grid, conn.rank).compact_support

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG.replace("openings = 3", "opennings = 3"))
        assert main(["scatter", "--config", str(bad)]) == 2
        assert "opennings" in capsys.readouterr().err

    def test_inline_section_unknown_key_exit_code(self, cfg_file, capsys):
        assert main(["fourier", "--config", cfg_file, "--section",
                     "mode=3; raduis=0.6"]) == 2
        assert "raduis" in capsys.readouterr().err

    def test_basis_file_unknown_key_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        basis = tmp_path / "basis.cfg"
        basis.write_text("[reconstruction]\nfd_step = 1e-6\n"
                         + RECON_CONFIG.split("max_iter = 20\n")[1])
        assert main(["reconstruct", "--data", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg_path), "--basis", str(basis)]) == 2
        assert "fd_step" in capsys.readouterr().err

    def test_percent_in_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG.replace("mode = boundary_pairs",
                                           "mode = boundary_pairs %"))
        assert main(["scatter", "--config", str(bad)]) == 2
        assert "boundary_pairs %" in capsys.readouterr().err

    def test_basis_file_without_section_header_exit_code(self, tmp_path,
                                                         capsys):
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        basis = tmp_path / "basis.cfg"
        basis.write_text(RECON_CONFIG.split("[reconstruction]\n")[1])
        assert main(["reconstruct", "--data", str(tmp_path / "none.jsonl"),
                     "--config", str(cfg_path), "--basis", str(basis)]) == 2
        assert "basis.cfg" in capsys.readouterr().err


class TestValueContracts:
    """Malformed values, centers and term fields give exit 2 with the
    offending key named, never a traceback or a silent default."""

    CONFIGS = {"base": BASE_CONFIG, "recon": RECON_CONFIG,
               "gauge": BASE_CONFIG + GAUGE_EXTRA}

    def _run(self, tmp_path, capsys, base, old, new, command, flags=()):
        assert old in self.CONFIGS[base]
        path = tmp_path / "exp.cfg"
        path.write_text(self.CONFIGS[base].replace(old, new, 1))
        argv = [command, "--config", str(path), *flags]
        if command == "reconstruct":
            data = tmp_path / "data.jsonl"
            data.write_text('{"fingerprint": "", "rank": 2, '
                            '"rho_cut": 1e-06}\n')
            argv += ["--data", str(data)]
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("base,old,new,command,key", [
        ("base", "seed = 42", "seed = 4x2", "curvature-report", "seed"),
        ("base", "count = 12", "count = lots", "scatter", "count"),
        ("base", "openings = 3", "openings = ten", "scatter",
         "openings"),
        ("base", "mode = boundary_pairs", "mode = shooting\nn_eta = 2.5",
         "scatter", "n_eta"),
        ("base", "mode = boundary_pairs",
         "mode = shooting\neta_max = far", "scatter", "eta_max"),
        ("base", "nx = 32", "nx = 3.5", "fourier", "nx"),
        ("base", "ntheta = 32", "ntheta = many", "fourier", "ntheta"),
        ("base", "ntheta = 32", "ntheta = 32\nrho_grid = thin",
         "fourier", "rho_grid"),
        ("base", "mode = 1\n", "mode = one\n", "fourier", "mode"),
        ("base", "radius = 0.6", "radius = wide", "fourier", "radius"),
        ("base", "vector = 1,0,0,0", "vector = 1,0,0,0\npower = eight",
         "fourier", "power"),
        ("base", "sigma=0.3; coeff=0.4", "sigma=abc; coeff=0.4",
         "curvature-report", "sigma"),
        ("base", "dir=0;", "dir=x;", "curvature-report", "dir"),
        ("base", "coeff=0.4", "coeff=big", "curvature-report", "coeff"),
        ("recon", "rank = 2\ndecay = 4\ntikhonov",
         "rank = two\ndecay = 4\ntikhonov", "reconstruct", "rank"),
        ("recon", "decay = 4\ntikhonov", "decay = 4.5\ntikhonov",
         "reconstruct", "decay"),
        # non-finite numbers: each used to exit 0 with NaN in the dataset,
        # end in a traceback, or be read as a constant or empty bump
        ("base", "sigma=0.3; coeff=0.4", "sigma=nan; coeff=0.4", "scatter",
         "sigma"),
        ("base", "sigma=0.3; coeff=0.4", "sigma=inf; coeff=0.4", "scatter",
         "sigma"),
        ("base", "center=0.2,0.1;", "center=nan,0;", "scatter", "center"),
        ("base", "coeff=0.4", "coeff=nan", "scatter", "coeff"),
        ("base", "gen=0,0,1,0,-1,0,0,0;", "gen=0,0,nan,0,-1,0,0,0;",
         "scatter", "gen"),
        ("base", "sigma=0.3; coeff=0.5", "sigma=nan; coeff=0.5", "scatter",
         "sigma"),
        ("base", "center=0.1,-0.1;", "center=0.1,inf;", "scatter", "center"),
        ("gauge", "sigma=0.35; coeff=0.5", "sigma=nan; coeff=0.5", "scatter",
         "sigma"),
        ("gauge", "sigma=0.35; coeff=0.5", "sigma=0.35; coeff=inf",
         "scatter", "coeff"),
        ("recon", "tikhonov = 1e-10", "tikhonov = nan", "reconstruct",
         "tikhonov"),
        ("base", "mode = boundary_pairs", "mode = shooting\neta_max = nan",
         "scatter", "eta_max"),
        ("base", "mode = boundary_pairs", "mode = shooting\neta_max = inf",
         "scatter", "eta_max"),
        ("base", "kind = poincare_disk", "kind = conformal_perturbed\n"
         "bump_center = 0.8,0\nbump_radius = 0.3\nbump_amplitude = 0.04\n"
         "epsilon0 = nan", "curvature-report", "epsilon0"),
        ("base", "kind = poincare_disk", "kind = poincare_disk\n"
         "epsilon0 = inf", "curvature-report", "epsilon0"),
        ("base", "center = 0,0", "center = nan,0", "fourier", "center"),
        ("base", "radius = 0.6", "radius = nan", "fourier", "radius"),
    ])
    def test_bad_value_exit_code(self, tmp_path, capsys, base, old, new,
                                 command, key):
        code, err = self._run(tmp_path, capsys, base, old, new, command)
        assert code == 2
        assert re.search(rf"key '[^']*\b{key}'", err), err

    @pytest.mark.parametrize("old,new,command,flags,words", [
        ("openings = 3", "openings = 0", "scatter", (), "fan openings"),
        ("mode = boundary_pairs", "mode = shooting\nn_eta = 0", "scatter",
         (), "fan n_eta"),
        ("kind = poincare_disk", "kind = conformal_perturbed\n"
         "bump_center = 0.25,-0.1\nbump_radius = 0\nbump_amplitude = 0.04",
         "curvature-report", (), "bump radius"),
        ("ntheta = 32", "ntheta = 32\nrho_grid = 2", "fourier", (),
         "rho_grid"),
        ("seed = 42", "seed = 42", "curvature-report", ("--grid-n", "0"),
         "no interior point"),
        ("seed = 42", "seed = 42", "curvature-report", ("--grid-n", "1"),
         "no interior point"),
    ], ids=["openings-0", "n_eta-0", "bump_radius-0", "rho_grid-2",
            "grid-n-0", "grid-n-1"])
    def test_out_of_domain_value_exit_code(self, tmp_path, capsys, old, new,
                                           command, flags, words):
        # each of these used to end in a traceback (division by zero, a
        # math domain error, the minimum of an empty point set)
        code, err = self._run(tmp_path, capsys, "base", old, new, command,
                              flags)
        assert code == 2
        assert "Traceback" not in err
        assert words in err

    @pytest.mark.parametrize("old,new,command,flags,words", [
        ("count = 12", "count = -3", "scatter", (), "fan count"),
        ("count = 12", "count = 0", "scatter", (), "fan count"),
        ("seed = 42", "seed = 42", "scatter", ("--fan", "-1"), "fan count"),
        ("seed = 42", "seed = 42", "scatter", ("--fan", "0"), "fan count"),
        ("vector = 1,0,0,0", "vector = 1,0,0", "fourier", (), "vector"),
        ("rank = 2\ndecay = 3", "rank = 2\ndecay = -2", "scatter", (),
         "decay exponent"),
        ("sigma=0.3; coeff=0.4", "sigma=0; coeff=0.4", "scatter", (),
         "sigma > 0"),
        ("sigma=0.3; coeff=0.4", "sigma=-0.3; coeff=0.4", "scatter", (),
         "sigma > 0"),
        ("rank = 2\ndecay = 4", "rank = 3\ndecay = 4", "scatter", (),
         "the connection has rank 2 (section [higgs], key 'rank')"),
    ], ids=["count-negative", "count-0", "fan-flag-negative", "fan-flag-0",
            "vector-odd", "decay-negative", "sigma-0", "sigma-negative",
            "higgs-rank-other"])
    def test_silently_misread_value_refused(self, tmp_path, capsys, old, new,
                                            command, flags, words):
        # each of these used to exit 0: a negative count kept the first
        # count - 1 pairs of the list, a zero count wrote an empty dataset
        # or fell back to the config's count, an odd vector dropped its
        # last number, a negative decay made fields blow up at the rim, a
        # zero sigma dropped its term, a negative one was read as positive,
        # and a [higgs] rank other than the connection's was ignored
        code, err = self._run(tmp_path, capsys, "base", old, new, command,
                              flags)
        assert code == 2
        assert "Traceback" not in err
        assert words in err

    @pytest.mark.parametrize("command", ["scatter", "curvature-report",
                                         "pestov"])
    @pytest.mark.parametrize("section,rank,text", [
        ("connection", 0, re.sub(r"term\.\d = dir=.*\n", "", BASE_CONFIG)
         .replace("rank = 2\ndecay = 3", "rank = 0\ndecay = 3")),
        ("connection", -2, BASE_CONFIG.replace("rank = 2\ndecay = 3",
                                               "rank = -2\ndecay = 3")),
        ("higgs", 0, RECON_CONFIG.replace("rank = 2\ndecay = 4\nterm",
                                          "rank = 0\ndecay = 4\nterm")),
    ], ids=["connection-0", "connection-negative", "higgs-0"])
    def test_rank_below_one_exit_code(self, tmp_path, capsys, command,
                                      section, rank, text):
        # each used to end in a traceback from a reshape
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == 2
        assert f"rank must be at least 1, got {rank} (section [{section}], " \
            "key 'rank')" in capsys.readouterr().err

    def test_basis_rank_other_than_connection_exit_code(self, tmp_path,
                                                        capsys):
        # a rank-3 basis against rank-2 data and connection used to end in
        # a broadcast traceback
        cfg_path = tmp_path / "recon.cfg"
        cfg_path.write_text(RECON_CONFIG)
        data_path = tmp_path / "data.jsonl"
        assert main(["scatter", "--config", str(cfg_path), "--out",
                     str(data_path)]) == 0
        # diag(i, -i, 0) and the rotation generator in the first two axes
        cfg_path.write_text(RECON_CONFIG.split("[reconstruction]")[0]
                            + "[reconstruction]\nrank = 3\n"
                            "basis.0 = gen=0,1,0,0,0,0,0,0,0,-1" + ",0" * 8
                            + "; center=0.2,0.0; sigma=0.3\n"
                            "basis.1 = gen=0,0,1,0,0,0,-1,0" + ",0" * 10
                            + "; center=-0.15,0.2; sigma=0.3\n")
        assert main(["reconstruct", "--data", str(data_path), "--config",
                     str(cfg_path)]) == 2
        assert "basis rank 3 does not match the connection's rank 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pestov", "fourier"])
    @pytest.mark.parametrize("mode", [16, 40, -16])
    def test_section_mode_beyond_fiber_grid(self, tmp_path, capsys, command,
                                            mode):
        # ntheta = 32 holds |mode| <= 15; mode 40 used to alias to 8 and
        # mode 16 to the Nyquist mode without a word
        code, err = self._run(tmp_path, capsys, "base", "mode = 1\n",
                              f"mode = {mode}\n", command)
        assert code == 2
        assert "section [section], key 'mode'" in err

    def test_section_mode_at_fiber_grid_limit(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, capsys, "base", "mode = 1\n",
                            "mode = -15\n", "pestov")
        assert code == 0

    def test_higgs_decay_below_one_refused(self, tmp_path, capsys):
        # transport marches in z = tanh(t/2), where a Higgs field of decay
        # 0 grows like 2 / rho at the ends: it used to give an error of
        # 1.5e5 there with exit 0
        code, err = self._run(tmp_path, capsys, "base", "rank = 2\ndecay = 4",
                              "rank = 2\ndecay = 0", "scatter")
        assert code == 2
        assert "Traceback" not in err
        assert "the Higgs field decays like rho^0" in err

    @pytest.mark.parametrize("old,new,key", [
        ("n_steps = 1024", "n_steps = 0", "n_steps"),
        ("n_steps = 1024", "n_steps = -8", "n_steps"),
        ("rho_cut = 1e-6", "rho_cut = 1e-6\nrtol = 0", "rtol"),
        ("rho_cut = 1e-6", "rho_cut = 1e-6\natol = -1e-14", "atol"),
    ])
    def test_nonpositive_transport_setting_exit_code(self, tmp_path, capsys,
                                                     old, new, key):
        code, err = self._run(tmp_path, capsys, "base", old, new, "scatter")
        assert code == 2
        if key in ("rtol", "atol"):     # refused by name, whatever the value
            assert f"unknown key; known keys are n_steps, rho_cut " \
                   f"(section [transport], key '{key}')" in err
        else:
            assert f"{key} must be positive" in err

    @pytest.mark.parametrize("base,old,new,command", [
        ("base", "center=0.2,0.1;", "center=0.2;", "curvature-report"),
        ("base", "center=0.1,-0.1;", "center=0.1,-0.1,0;",
         "curvature-report"),
        ("base", "center = 0,0", "center = 0", "fourier"),
        ("base", "center = 0,0", "center = 0,0,1", "fourier"),
        ("recon", "center=0.2,0.0; sigma=0.3\nbasis.1",
         "center=0.2; sigma=0.3\nbasis.1", "reconstruct"),
    ])
    def test_center_needs_two_numbers(self, tmp_path, capsys, base, old, new,
                                      command):
        code, err = self._run(tmp_path, capsys, base, old, new, command)
        assert code == 2
        assert "two numbers" in err

    @pytest.mark.parametrize("base,old,new,command,field", [
        ("base", "coeff=0.4", "coef=0.4", "curvature-report", "coef"),
        ("base", "term.0 = gen=0,1,0,0,0,0,0,-1; center=0.1,-0.1",
         "term.0 = dir=1; gen=0,1,0,0,0,0,0,-1; center=0.1,-0.1",
         "curvature-report", "dir"),
        ("gauge", "sigma=0.35; coeff=0.5",
         "sigma=0.35; coeff=0.5; decay=2", "curvature-report", "decay"),
        ("recon", "sigma=0.3\nbasis.1", "sigma=0.3; coeff=2\nbasis.1",
         "reconstruct", "coeff"),
    ])
    def test_unknown_term_field_exit_code(self, tmp_path, capsys, base, old,
                                          new, command, field):
        code, err = self._run(tmp_path, capsys, base, old, new, command)
        assert code == 2
        assert f"unknown term field '{field}'" in err

    def test_basis_term_needs_its_fields(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "recon",
                              "; sigma=0.3\nbasis.1", "\nbasis.1",
                              "reconstruct")
        assert code == 2
        assert "basis.0" in err

    def test_readme_command_block_matches_parser(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line\n\n```\n")[1] \
            .split("```")[0]
        documented, command = {}, None
        for line in block.splitlines():
            if line.startswith("ahxray "):
                command = line.split()[1]
                documented[command] = set()
            documented[command] |= set(re.findall(r"--[a-z-]+", line))
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parsed = {name: {flag for action in sub._actions
                         for flag in action.option_strings
                         if flag.startswith("--") and flag != "--help"}
                  for name, sub in subparsers.choices.items()}
        assert documented == parsed

    def test_readme_configuration_block_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("```ini\n")[1].split("```")[0]
        cfg = ExperimentConfig.from_text(block)
        assert cfg.seed == 42
        model, conn, higgs = cfg.build_pair()
        assert conn.rank == higgs.rank == 2
        assert cfg.build_transport() == TransportConfig()
        assert len(cfg.build_fan()) == 200
        grid = cfg.build_grid(model, override=(24, 8))
        assert cfg.build_section(grid, conn.rank).compact_support
        params, _ = cfg.build_reconstruction()
        assert len(params.basis) == 1


SCIPY_FREE_RUN = """
import sys
sys.modules["scipy"] = None
from ahxray.cli import main

base, gauged, recon, out = sys.argv[1:]
runs = [
    ["scatter", "--config", base, "--out", out + "/a.jsonl"],
    ["gauge-check", "--a", base, "--b", gauged, "--out", out + "/g.json"],
    ["pestov", "--config", base, "--grid", "24,8", "--out", out + "/p.json"],
    ["fourier", "--config", base, "--out", out + "/f.csv"],
    ["curvature-report", "--config", base, "--out", out + "/c.json"],
    ["scatter", "--config", recon, "--out", out + "/r.jsonl"],
    ["reconstruct", "--data", out + "/r.jsonl", "--config", recon,
     "--out", out + "/r.json"],
]
codes = [main(args) for args in runs]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" and sys.modules[m] is not None)
print(codes, loaded)
sys.exit(0 if codes == [0] * len(runs) and not loaded else 1)
"""


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the library and all six subcommands
    # must work with it unimportable
    import ahxray
    configs = []
    for name, text in (("base", BASE_CONFIG),
                       ("gauged", BASE_CONFIG + GAUGE_EXTRA),
                       ("recon", RECON_CONFIG)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        configs.append(str(path))
    src = str(Path(ahxray.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, *configs, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
