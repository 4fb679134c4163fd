import os

import numpy as np
import pytest

from cirauth import cli
from cirauth.detect import FusionKind
from cirauth.cli import (
    ConfigError,
    PRESET_NAMES,
    _parse_float_list,
    apply_overrides,
    build_run,
    load_config_file,
    main,
    parse_config,
)

SMALL_CONFIG = """\
# minimal fusion-center scenario
scenario.scheme = fc_raw
scenario.snr_db = 0,5
scenario.trials = 50
scenario.seed = 7
channel.n_nodes = 4
channel.n_taps = 3
channel.rho = 0.5
channel.pdp = 1,1,1
channel.normalize_kronecker = false
detector.delta = 100,120
"""


class TestParsing:
    def test_float_list_forms(self):
        assert _parse_float_list("1,2.5,3") == (1.0, 2.5, 3.0)
        assert _parse_float_list("260:20:340") == (260.0, 280.0, 300.0, 320.0, 340.0)
        assert _parse_float_list("-10:1:-8") == (-10.0, -9.0, -8.0)
        with pytest.raises(ValueError):
            _parse_float_list("0:0.3:1")  # endpoint missed

    def test_unknown_key_line_anchored(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario.scheme = fc_raw\nchanel.rho = 0.9\n", "x.cfg")
        assert "x.cfg:2" in str(err.value)
        assert "chanel.rho" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("channel.rho = 0.5\nchannel.rho = 0.9\n")

    def test_bad_value_reported_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("channel.n_nodes = ten\n", "y.cfg")
        assert "y.cfg:1" in str(err.value)

    def test_comments_and_blanks_ignored(self):
        values = parse_config("# hi\n\nchannel.rho = 0.5  # inline\n")
        assert values == {"channel.rho": 0.5}

    def test_overrides_validate_keys(self):
        values = parse_config(SMALL_CONFIG)
        out = apply_overrides(values, ["scenario.trials=99"])
        assert out["scenario.trials"] == 99
        with pytest.raises(ConfigError):
            apply_overrides(values, ["nope=1"])

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            build_run(parse_config("channel.rho = 0.5\n"))
        assert "scenario.scheme" in str(err.value)


class TestBuildRun:
    def test_multi_delta_becomes_variants(self):
        run = build_run(parse_config(SMALL_CONFIG))
        assert [v.label for v in run.variants] == ["delta=100", "delta=120"]

    def test_local_rules_cross_thresholds(self):
        text = SMALL_CONFIG.replace("fc_raw", "local_fusion").replace(
            "detector.delta = 100,120", "detector.delta_n = 26.2,32.9\ndetector.rules = or,single"
        )
        run = build_run(parse_config(text))
        assert len(run.variants) == 4
        assert run.variants[1].rule.kind is FusionKind.SINGLE

    def test_cs_scheme_requires_m(self):
        text = SMALL_CONFIG.replace("fc_raw", "fc_raw_cs")
        with pytest.raises(ConfigError) as err:
            build_run(parse_config(text))
        assert "cs.m" in str(err.value)

    def test_presets_all_build(self):
        for name in PRESET_NAMES:
            text, display = load_config_file(name)
            run = build_run(parse_config(text, display))
            assert run.scenario.trials >= 1000


class TestThresholdsCommand:
    def test_table_values(self, capsys):
        assert main(["thresholds", "--alpha", "1e-4,1e-3,1e-2", "--dof", "12"]) == 0
        out = capsys.readouterr().out
        assert "39.1344" in out and "32.9095" in out and "26.2170" in out

    def test_median(self, capsys):
        assert main(["thresholds", "--alpha", "0.5", "--dof", "2"]) == 0
        assert "1.3863" in capsys.readouterr().out

    def test_bad_alpha_exit_2(self, capsys):
        assert main(["thresholds", "--alpha", "1.5", "--dof", "12"]) == 2
        assert "alpha" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_csv_with_header(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# cirauth ")
        assert lines[1].startswith("# config_digest: ")
        assert lines[2] == "# seed: 7"
        assert lines[4] == "scheme,label,snr_db,p_d,p_d_stderr,p_fa,p_fa_stderr,trials"
        # 2 curves x 2 SNR points of data rows
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 4
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_digest_stable_and_config_sensitive(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        digests = []
        for name, extra in (("a", []), ("b", []), ("c", ["--set", "detector.delta=100,130"])):
            out = tmp_path / f"{name}.csv"
            assert main(["run", "--config", str(cfg), "--out", str(out), *extra]) == 0
            digests.append(out.read_text().splitlines()[1])
        assert digests[0] == digests[1] != digests[2]

    def test_deterministic_across_workers(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(a), "--workers", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
        assert "# seed: 99" in out.read_text()

    def test_set_overrides_applied(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "out.csv"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--set", "scenario.trials=10"])
        assert rc == 0
        assert "scenario.trials=10" in out.read_text()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG + "bogus.key = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "bogus.key" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", "o.csv"]) == 2

    def test_runtime_failure_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        assert main(["run", "--config", str(cfg), "--out", "/proc/nope/out.csv"]) == 1
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, override",
        [
            ("fig2", "detector.delta=nan"),
            ("fig3", "detector.delta_n=nan"),
            ("fig3", "detector.delta_n=-5"),
            ("fig2", "channel.pdp=1,1,1,1,1,nan"),
            ("fig5", "cs.residual_tol=nan"),
            ("fig5", "cs.max_atoms=0"),
            ("fig2", "scenario.snr_db=inf"),
            ("fig2", "detector.scale=raw_quadratic"),
        ],
    )
    def test_invalid_values_exit_2_without_csv(self, tmp_path, capsys, preset, override):
        out = tmp_path / "o.csv"
        assert main(["run", "--config", preset, "--out", str(out), "--set", override]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_preset_resolves_by_name(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main([
            "run", "--config", "fig2", "--out", str(out),
            "--set", "scenario.trials=20", "--set", "scenario.snr_db=0,5",
        ])
        assert rc == 0
        text = out.read_text()
        assert text.count("fc_raw,delta=") == 10  # 5 thresholds x 2 SNR points

    def test_compare_uncompressed_twin_curves(self, tmp_path):
        out = tmp_path / "fig5.csv"
        rc = main([
            "run", "--config", "fig5", "--out", str(out),
            "--set", "scenario.trials=10", "--set", "scenario.snr_db=0",
            "--set", "detector.delta_n=26.2",
        ])
        assert rc == 0
        text = out.read_text()
        assert "local_fusion_cs,delta_n=26.2 rule=majority,0" in text
        assert "local_fusion,delta_n=26.2 rule=majority no_cs,0" in text

    def test_csv_parses_with_stdlib_reader(self, tmp_path):
        import csv

        out = tmp_path / "fig3.csv"
        rc = main([
            "run", "--config", "fig3", "--out", str(out),
            "--set", "scenario.trials=10", "--set", "scenario.snr_db=0,5",
        ])
        assert rc == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
        parsed = list(csv.DictReader(rows))
        assert len(parsed) == 15 * 2  # 3 thresholds x 5 rules x 2 SNR points
        for row in parsed:
            assert set(row) == {
                "scheme", "label", "snr_db", "p_d", "p_d_stderr",
                "p_fa", "p_fa_stderr", "trials",
            }
            assert None not in row.values()
            float(row["p_d"])  # numeric columns parse cleanly


class TestSelfcheck:
    def test_clean_build_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "7/7 checks passed" in out

    def test_repeat_invocations_identical(self, capsys):
        main(["selfcheck"])
        first = capsys.readouterr().out
        main(["selfcheck"])
        second = capsys.readouterr().out
        assert first == second

    def test_perturbed_quantile_detected(self, capsys, monkeypatch):
        import cirauth.numerics as numerics

        real = numerics.chi2_quantile
        monkeypatch.setattr(numerics, "chi2_quantile", lambda p, dof: real(p, dof) + 0.5)
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL chi2_roundtrip" in out or "FAIL threshold_table" in out
