"""Configuration loading and command-line entry points."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pslwave
from pslwave.cli import main
from pslwave.config import ConfigError, ExperimentConfig, load_config, trial_rng


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_subcarriers == 128
        assert cfg.n_antennas == 4
        assert cfg.n_cp == 32
        assert cfg.p == 50
        assert cfg.family == "psk" and cfg.order == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_cp=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_cp=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(workers=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(order=3)
        with pytest.raises(ConfigError):
            ExperimentConfig(l_max=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(cfar_p_fa=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_subcarriers=16, n_cp=8)
        # at N = 128: round(0.996 * 128) = 127 carriers unused still leaves one
        ExperimentConfig(unused_fraction=0.996)
        for bad in (-0.01, 0.997, 1.0, 1.5, float("nan")):
            with pytest.raises(ConfigError):
                ExperimentConfig(unused_fraction=bad)
        # at N = 128 with separation 3: 25 * 5 = 125 < 128 cells, 26 * 5 = 130 do not fit
        ExperimentConfig(n_targets=26)
        for bad in (0, 27, 60):
            with pytest.raises(ConfigError):
                ExperimentConfig(n_targets=bad)

    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[waveform]\nn_subcarriers = 64\nn_cp = 16\n"
            "[optimizer]\naccelerated = no\n"
            "[sensing]\nsense_snr_db = -12 -10 -8\n"
        )
        cfg = load_config(str(path))
        assert cfg.n_subcarriers == 64
        assert cfg.n_cp == 16
        assert cfg.accelerated is False
        assert cfg.sense_snr_db == (-12.0, -10.0, -8.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[waveform]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/does/not/exist.ini")

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[campaign]\nseed = 5\n")
        cfg = load_config(str(path), {"seed": 9, "trials": None})
        assert cfg.seed == 9

    def test_trial_rng_reproducible_and_independent(self):
        a = trial_rng(0, 3).standard_normal(4)
        b = trial_rng(0, 3).standard_normal(4)
        c = trial_rng(0, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], rows[1:]


SMALL = [
    "--seed", "1", "--trials", "2", "--no-timestamp",
]


def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(
        "[waveform]\nn_subcarriers = 32\nn_antennas = 2\nn_cp = 8\n"
        "[optimizer]\nl_max = 1\n"
        "[sensing]\nsense_snr_db = 0\n"
        "[comms]\nber_snr_db = 10\n"
    )
    return str(path)


class TestCliCommands:
    def test_optimize_writes_summary_and_grid(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["optimize", "--config", small_config(tmp_path), "--out", str(out)] + SMALL
        )
        assert code == 0
        header, rows = read_csv(out / "optimize_summary.csv")
        assert header == ["trial", "psl_db_before", "psl_db_after", "iterations", "stop_reason"]
        assert len(rows) == 2
        gheader, grows = read_csv(out / "grid_optimized.csv")
        assert gheader == ["antenna", "subcarrier", "re", "im"]
        assert len(grows) == 32 * 2

    def test_optimize_deterministic(self, tmp_path):
        cfgp = small_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["optimize", "--config", cfgp, "--out", str(out)] + SMALL)
            outs.append(read_csv(out / "optimize_summary.csv")[1])
        assert outs[0] == outs[1]

    def test_sense_schema(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["sense", "--config", small_config(tmp_path), "--out", str(out),
             "--variant", "original", "--variant", "orthogonal"] + SMALL
        )
        assert code == 0
        header, rows = read_csv(out / "sense.csv")
        assert header == ["snr_db", "variant", "dp", "trials"]
        variants = {r[1] for r in rows}
        assert variants == {"original", "orthogonal"}
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0

    def test_ber_schema(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["ber", "--config", small_config(tmp_path), "--out", str(out)] + SMALL
        )
        assert code == 0
        header, rows = read_csv(out / "ber.csv")
        assert header == ["snr_db", "variant", "rho", "ber", "trials"]
        assert {r[1] for r in rows} == {"original", "optimized"}

    def test_verify_passes(self, tmp_path):
        out = tmp_path / "res"
        code = main(["verify", "--out", str(out), "--seed", "0", "--no-timestamp"])
        assert code == 0

    def test_bad_config_exit_code(self, tmp_path):
        code = main(["optimize", "--config", "/missing.ini", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "command,section,body",
        [
            pytest.param("optimize", "waveform", "n_cp = 1", id="waveform-n_cp-1"),
            pytest.param("optimize", "campaign", "workers = 0", id="campaign-workers-0"),
            *(
                pytest.param(cmd, "constellation", "order = 3", id=f"psk-order-3-{cmd}")
                for cmd in ("optimize", "sense", "ber", "verify")
            ),
            *(
                pytest.param(
                    cmd, "constellation", "family = qam\norder = 8", id=f"qam-order-8-{cmd}"
                )
                for cmd in ("optimize", "sense", "ber", "verify")
            ),
            pytest.param("optimize", "optimizer", "p = 1", id="optimizer-p-1"),
            pytest.param("optimize", "constellation", "eps_a = 1.5", id="constellation-eps_a-1.5"),
            pytest.param("sense", "sensing", "cfar_p_fa = 1.5", id="sensing-cfar_p_fa-1.5"),
            pytest.param(
                "sense", "waveform", "n_subcarriers = 16\nn_cp = 8", id="waveform-n_subcarriers-16"
            ),
            *(
                pytest.param(
                    cmd, "constellation", "unused_fraction = 1.5", id=f"unused_fraction-1.5-{cmd}"
                )
                for cmd in ("optimize", "sense", "ber")
            ),
            pytest.param(
                "optimize", "constellation", "unused_fraction = -0.1", id="unused_fraction--0.1"
            ),
            pytest.param(
                "ber", "constellation", "unused_fraction = 0.997", id="unused_fraction-0.997"
            ),
            pytest.param("sense", "sensing", "n_targets = 60", id="sensing-n_targets-60"),
            pytest.param("sense", "sensing", "n_targets = 0", id="sensing-n_targets-0"),
        ],
    )
    def test_bad_value_in_ini_exits_with_message(self, tmp_path, command, section, body):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{body}\n")
        paths = [str(Path(pslwave.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, "-m", "pslwave.cli", command, "--config", str(path),
             "--trials", "1", "--out", str(tmp_path / "res")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "config error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_timestamp_comment(self, tmp_path):
        out = tmp_path / "res"
        main(["optimize", "--config", small_config(tmp_path), "--out", str(out),
              "--seed", "1", "--trials", "1"])
        first = (out / "optimize_summary.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")
