"""Configuration loading and command-line entry points."""

import csv
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pslwave
from pslwave import cli, majorizer
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
        for bad in (
            {"seed": -1},
            {"n_rx": -1},
            {"n_rx": 0},
            {"ber_snr_db": ()},
            {"sense_snr_db": ()},
            {"sense_snr_db": (0.0, float("nan"))},
            {"ber_snr_db": (float("inf"),)},
            {"cfar_n_guard": -1},
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad)
        # n_rx below n_antennas is refused by the ber command only
        ExperimentConfig(n_rx=2)
        ExperimentConfig(cfar_n_guard=0)

    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[waveform]\nn_subcarriers = 64\nn_cp = 16\n"
            "[optimizer]\nl_max = 3\n"
            "[sensing]\nsense_snr_db = -12 -10 -8\n"
        )
        cfg = load_config(str(path))
        assert cfg.n_subcarriers == 64
        assert cfg.n_cp == 16
        assert cfg.l_max == 3
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

    def test_percent_sign_is_literal(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[campaign]\nout_dir = res%x\n")
        assert load_config(str(path)).out_dir == "res%x"

    def test_accelerated_is_not_settable(self, tmp_path):
        # a class constant: neither an INI key nor a constructor argument
        path = tmp_path / "old.ini"
        path.write_text("[optimizer]\naccelerated = no\n")
        proc = run_cli("optimize", "--config", str(path), "--out", str(tmp_path / "res"))
        assert proc.returncode == 1
        assert "config error: unknown key 'accelerated' in section [optimizer]" in proc.stderr
        assert "Traceback" not in proc.stderr
        with pytest.raises(TypeError):
            ExperimentConfig(accelerated=False)

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


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m pslwave.cli ARGS`` in a fresh interpreter, output captured."""
    paths = [str(Path(pslwave.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "pslwave.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


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

    def test_optimize_prints_gain_share_and_stop_reasons(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["optimize", "--out", str(out), "--seed", "1", "--trials", "4",
                     "--no-timestamp", "--config", small_config(tmp_path)])
        assert code == 0
        _, rows = read_csv(out / "optimize_summary.csv")
        gains = [float(r[1]) - float(r[2]) for r in rows]
        share = f"{np.mean(np.array(gains) >= 3.0):.0%}"
        reasons = sorted({r[4] for r in rows})
        counts = ", ".join(f"{x} {sum(r[4] == x for r in rows)}" for x in reasons)
        printed = capsys.readouterr().out
        assert f"trials with a gain >= 3 dB: {share}; stop reasons: {counts}\n" in printed

    def test_optimize_runs_one_optimization_per_trial(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return optimize(*args, **kwargs)

        optimize = cli.optimize
        monkeypatch.setattr(cli, "optimize", counted)
        code = main(["optimize", "--config", small_config(tmp_path), "--out", str(tmp_path / "res"),
                     "--seed", "1", "--trials", "3", "--workers", "1", "--no-timestamp"])
        assert code == 0
        assert len(calls) == 3

    def test_optimize_writes_the_grids_of_trial_zero(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "res"
        args = [a for variant in cli.VARIANTS for a in ("--variant", variant)]
        assert main(["optimize", "--config", cfgp, "--out", str(out)] + SMALL + args) == 0
        grids, _, _, _ = cli._trial_grids(load_config(cfgp, {"seed": 1}), 0, cli.VARIANTS)
        for variant, grid in grids.items():
            _, rows = read_csv(out / f"grid_{variant}.csv")
            written = np.zeros_like(grid.symbols)
            for m, n, re, im in rows:
                written[int(n), int(m)] = complex(float(re), float(im))
            assert np.allclose(written, grid.symbols, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("command,names", [
        ("optimize", ["optimize_summary.csv", "grid_optimized.csv"]),
        ("sense", ["sense.csv"]),
    ])
    def test_worker_count_does_not_change_results(self, tmp_path, monkeypatch, command, names):
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", counted_pool)
        cfgp = small_config(tmp_path)
        written = {}
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            assert main([command, "--config", cfgp, "--out", str(out), "--seed", "3",
                         "--trials", "4", "--workers", workers, "--no-timestamp"]) == 0
            written[workers] = [(out / name).read_bytes() for name in names]
        assert pools == [{"max_workers": 2}]
        assert written["1"] == written["2"]

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

    def test_sense_variant_rows_do_not_depend_on_the_selection(self, tmp_path):
        # each (SNR point, variant) draws its own target and noise stream
        cfgp = tmp_path / "sense.ini"
        cfgp.write_text(
            "[waveform]\nn_subcarriers = 32\nn_antennas = 2\nn_cp = 8\n"
            "[optimizer]\nl_max = 1\n"
            "[sensing]\nsense_snr_db = 0 2 4 6\n"
        )
        rows = {}
        for name, extra in (("all", []), ("one", ["--variant", "optimized"])):
            out = tmp_path / name
            main(["sense", "--config", str(cfgp), "--out", str(out), "--seed", "0",
                  "--trials", "8", "--no-timestamp"] + extra)
            rows[name] = [r for r in read_csv(out / "sense.csv")[1] if r[1] == "optimized"]
        assert len(rows["one"]) == 4
        assert rows["one"] == rows["all"]

    def test_repeated_variant_runs_once(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["sense", "--config", small_config(tmp_path), "--out", str(out),
             "--variant", "optimized", "--variant", "optimized"] + SMALL
        )
        assert code == 0
        _, rows = read_csv(out / "sense.csv")
        assert [r[:2] for r in rows] == [["0.00", "optimized"]]

    @pytest.mark.parametrize("command,output", [
        ("optimize", "grid_optimized.csv"),
        ("sense", "sense.csv"),
        ("ber", "ber.csv"),
        ("verify", None),
    ])
    def test_16qam_runs_through_every_subcommand(self, tmp_path, command, output):
        path = Path(small_config(tmp_path))
        path.write_text(path.read_text() + "[constellation]\nfamily = qam\norder = 16\n")
        out = tmp_path / "res"
        assert main([command, "--config", str(path), "--out", str(out)] + SMALL) == 0
        if output is not None:
            header, rows = read_csv(out / output)
            assert header and rows

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

    def test_verify_prints_each_margin(self, tmp_path, capsys):
        main(["verify", "--out", str(tmp_path / "res"), "--seed", "0", "--no-timestamp"])
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert len(checks) == 14
        assert all("(limit " in line for line in checks)
        assert sum("vs dense oracle" in line for line in checks) == 6

    def test_verify_checks_the_step_bound(self, tmp_path, capsys, monkeypatch):
        main(["verify", "--out", str(tmp_path / "res"), "--seed", "0", "--no-timestamp"])
        lines = capsys.readouterr().out.splitlines()
        for p in (2, 4):
            line = next(x for x in lines if f"step bound L / dense mu_bar (p={p})" in x)
            assert line.startswith("PASS") and "(limit >= 1 - 1e-12)" in line
            # N = 8, M = 2: the bound is exact
            assert float(line.split(": ")[1].split()[0]) == pytest.approx(1.0, rel=1e-9)
        exact = majorizer.lambda_max_bound
        monkeypatch.setattr(majorizer, "lambda_max_bound", lambda b: 0.99 * exact(b))
        code = main(["verify", "--out", str(tmp_path / "res"), "--seed", "0", "--no-timestamp"])
        assert code == 2
        assert "FAIL step bound L / dense mu_bar (p=2)" in capsys.readouterr().out

    def test_verify_fails_on_a_wrong_fast_majorizer(self, tmp_path, capsys, monkeypatch):
        # the one lambda_bar formula, which lambda_bar and the pass's y both read
        exact = majorizer._lambda_bar
        monkeypatch.setattr(majorizer, "_lambda_bar", lambda n, p: 1.01 * exact(n, p))
        code = main(["verify", "--out", str(tmp_path / "res"), "--seed", "0", "--no-timestamp"])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAIL fast lambda_bar vs dense oracle (p=2)" in out
        assert "FAIL fast y vs dense oracle (p=4)" in out

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
            pytest.param("sense", "sensing", "cfar_p_fa = nan", id="sensing-cfar_p_fa-nan"),
            pytest.param("sense", "sensing", "cfar_n_ref = 0", id="sensing-cfar_n_ref-0"),
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
            *(
                pytest.param(cmd, "campaign", "seed = -1", id=f"campaign-seed--1-{cmd}")
                for cmd in ("optimize", "sense", "ber", "verify")
            ),
            pytest.param("ber", "comms", "n_rx = -1", id="comms-n_rx--1"),
            pytest.param("ber", "comms", "n_rx = 2", id="comms-n_rx-below-n_antennas"),
            pytest.param("ber", "comms", "ber_snr_db =", id="comms-ber_snr_db-empty"),
            pytest.param("sense", "sensing", "sense_snr_db = 0 nan", id="sensing-sense_snr_db-nan"),
            pytest.param("ber", "comms", "ber_snr_db = 10 inf", id="comms-ber_snr_db-inf"),
            pytest.param("sense", "sensing", "cfar_n_guard = -1", id="sensing-cfar_n_guard--1"),
            pytest.param("optimize", "optimizer", "p = 2.5", id="optimizer-p-not-int"),
            pytest.param("optimize", "constellation", "rho = abc", id="constellation-rho-not-float"),
        ],
    )
    def test_bad_value_in_ini_exits_with_message(self, tmp_path, command, section, body):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{body}\n")
        proc = run_cli(command, "--config", str(path), "--trials", "1",
                       "--out", str(tmp_path / "res"))
        assert proc.returncode == 1
        assert "config error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"n_cp = 8\n", id="no-section-header"),
            pytest.param(b"[waveform]\nn_cp = 8\nn_cp = 16\n", id="duplicate-key"),
            pytest.param(b"[waveform]\nn_cp = 8\n# \xff\xfe\n", id="non-utf8-bytes"),
        ],
    )
    def test_malformed_ini_exits_with_message(self, tmp_path, content):
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        proc = run_cli("verify", "--config", str(path), "--out", str(tmp_path / "res"))
        assert proc.returncode == 1
        assert "config error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param("[DEFAULT]\nn_cp = 8\n", id="default-only"),
            pytest.param("[DEFAULT]\nn_cp = 8\n[campaign]\nseed = 2\n", id="default-and-section"),
        ],
    )
    def test_default_section_exits_with_message(self, tmp_path, content):
        # configparser would otherwise drop the key alone, or copy it into [campaign]
        path = tmp_path / "bad.ini"
        path.write_text(content)
        proc = run_cli("optimize", "--config", str(path), "--trials", "1",
                       "--out", str(tmp_path / "res"))
        assert proc.returncode == 1
        assert "config error: keys under [DEFAULT] are not supported (n_cp)" in proc.stderr
        assert "unknown key" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_naming_a_file_exits_with_message(self, tmp_path, sub):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_cli("optimize", "--trials", "1", "--out", str(taken / sub))
        assert proc.returncode == 1
        assert "config error: cannot create output directory" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args,message",
        [
            pytest.param(["optimize", "--trials", "abc"], "invalid int value", id="trials-abc"),
            pytest.param([], "required: command", id="no-subcommand"),
            pytest.param(["ber", "--variant", "orthogonal"], "unrecognized arguments",
                         id="ber-variant"),
            pytest.param(["verify", "--variant", "optimized"], "unrecognized arguments",
                         id="verify-variant"),
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, args, message):
        proc = run_cli(*args, "--out", str(tmp_path / "res")) if args else run_cli()
        assert proc.returncode == 1
        assert "error:" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "res").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "-h"])
        assert exc.value.code == 0
        assert "--variant" in capsys.readouterr().out

    def test_timestamp_comment(self, tmp_path):
        out = tmp_path / "res"
        main(["optimize", "--config", small_config(tmp_path), "--out", str(out),
              "--seed", "1", "--trials", "1"])
        first = (out / "optimize_summary.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")
