import dataclasses
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cirauth
from cirauth import channel, cli, numerics, simkit, sparse
from cirauth.detect import FusionKind, FusionRule, solve_threshold
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


def _preset_values(preset: str, overrides: dict) -> dict:
    """A preset's parsed values with overrides applied; an override of None drops the key."""
    text, display = load_config_file(preset)
    values = apply_overrides(parse_config(text, display), [f"{k}={v}" for k, v in overrides.items() if v])
    return {k: v for k, v in values.items() if overrides.get(k, "") is not None}


# Config key that sets a dataclass field -> (preset of its family, a valid value
# other than the field's default, further overrides that value needs).
_NON_DEFAULT = {
    "scenario.scheme": ("fig2", "fc_raw_cs", {"cs.m": "30"}),
    "scenario.snr_db": ("fig2", "1,2.5", {}),
    "scenario.trials": ("fig2", "7", {}),
    "scenario.seed": ("fig2", "123", {}),
    "channel.n_nodes": ("fig2", "4", {}),
    "channel.n_taps": ("fig2", "3", {"channel.pdp": "1,1,1"}),
    "channel.rho": ("fig2", "0.5", {}),
    "channel.pdp": ("fig2", "1,2,3,4,5,6", {}),
    "channel.normalize_kronecker": ("fig2", "false", {}),
    "detector.delta": ("fig2", "111,222", {}),
    "detector.target_pfa": ("fig2", "0.01,0.001", {"detector.delta": None}),
    "detector.delta_n": ("fig3", "20,30", {}),
    "detector.target_pfa_n": ("fig3", "0.01,0.001", {"detector.delta_n": None}),
    "detector.avg_threshold": ("fig3", "0.3", {}),
    "cs.m": ("fig5", "60", {}),
    "cs.basis": ("fig4", "identity", {}),
    "cs.max_atoms": ("fig5", "20", {}),
    "cs.residual_tol": ("fig5", "0.001", {}),
}


class TestParsing:
    def test_float_list_forms(self):
        assert _parse_float_list("1,2.5,3") == (1.0, 2.5, 3.0)
        assert _parse_float_list("260:20:340") == (260.0, 280.0, 300.0, 320.0, 340.0)
        assert _parse_float_list("-10:1:-8") == (-10.0, -9.0, -8.0)
        with pytest.raises(ValueError):
            _parse_float_list("0:0.3:1")  # endpoint missed

    def test_range_past_the_grid_cap_rejected_before_building(self):
        with pytest.raises(ValueError, match="more than"):
            _parse_float_list("0:1:2000000")

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

    def test_labels_keep_ten_significant_digits(self):
        run = build_run(_preset_values("fig2", {"detector.delta": "300.0001,300.0002"}))
        assert [v.label for v in run.variants] == ["delta=300.0001", "delta=300.0002"]

    def test_labels_that_still_collide_name_their_key(self):
        with pytest.raises(ConfigError, match="detector.delta "):
            build_run(_preset_values("fig2", {"detector.delta": "300.00000000001,300.00000000002"}))

    def test_grid_past_the_substream_packing_names_its_key(self):
        values = _preset_values("fig2", {})
        values["scenario.snr_db"] = tuple(float(i % 10) for i in range(simkit._MAX_SNR_POINTS + 1))
        with pytest.raises(ConfigError) as err:
            build_run(values)
        assert str(err.value).startswith("scenario.snr_db ")

    @pytest.mark.parametrize("preset, key, dropped, dof", [
        ("fig2", "detector.target_pfa", "detector.delta", 2 * 10 * 6),  # the fusion center tests 2NL dof
        ("fig3", "detector.target_pfa_n", "detector.delta_n", 2 * 6),  # a node tests 2L
    ])
    def test_target_rates_solve_each_variants_threshold(self, preset, key, dropped, dof):
        run = build_run(_preset_values(preset, {key: "1e-2,1e-3", dropped: None}))
        per_level = len(run.variants) // 2  # fig3 crosses each level with its five rules
        assert [v.threshold for v in run.variants] == [
            solve_threshold(alpha, dof) for alpha in (1e-2, 1e-3) for _ in range(per_level)
        ]

    @pytest.mark.parametrize("preset, overrides", [
        ("fig2", {"detector.target_pfa": "0.01"}),
        ("fig2", {"detector.delta": None}),
        ("fig3", {"detector.target_pfa_n": "0.01"}),
        ("fig3", {"detector.delta_n": None}),
    ])
    def test_scheme_needs_exactly_one_threshold_key(self, preset, overrides):
        key = "detector.delta / detector.target_pfa" if preset == "fig2" else "detector.delta_n / detector.target_pfa_n"
        with pytest.raises(ConfigError, match=f"needs exactly one of {key}$"):
            build_run(_preset_values(preset, overrides))

    @pytest.mark.parametrize("key", [key for key, spec in cli._SCHEMA.items() if spec.field])
    def test_every_field_key_reaches_its_field(self, key):
        preset, raw, extra = _NON_DEFAULT[key]
        run = build_run(_preset_values(preset, {key: raw, **extra}))
        field, want = cli._SCHEMA[key].field, cli._SCHEMA[key].parse(raw)
        holders = [run.scenario, run.scenario.channel, run.scenario.codec]
        holders += [part for v in run.variants for part in (v, v.rule)]
        landed = [getattr(h, field) for h in holders if hasattr(h, field)]
        if field == "threshold":  # one threshold per variant
            landed = [tuple(dict.fromkeys(landed))]
            if "target_" in key:  # solved at fig2's 2NL or fig3's 2L degrees of freedom
                want = tuple(solve_threshold(a, 120 if preset == "fig2" else 12) for a in want)
        assert landed and all(got == want for got in landed), (landed, want)

    def test_keys_without_a_field(self):
        assert [key for key, spec in cli._SCHEMA.items() if not spec.field] == [
            "detector.scale", "detector.rules", "cs.compare_uncompressed"
        ]

    @pytest.mark.parametrize("key", [key for key, spec in cli._SCHEMA.items() if spec.required])
    def test_missing_required_key_exit_2(self, tmp_path, capsys, key):
        preset = "fig5" if cli._SCHEMA[key].family == "cs" else "fig2"
        text, hits = re.subn(rf"(?m)^{re.escape(key)} = .*$", "", load_config_file(preset)[0])
        assert hits == 1
        cfg, out = tmp_path / "c.cfg", tmp_path / "o.csv"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "missing required config key" in err and key in err
        assert not out.exists()


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

    def test_infinite_alpha_range_exit_2(self, capsys):
        assert main(["thresholds", "--alpha", "0:1:inf", "--dof", "12"]) == 2
        assert "--alpha" in capsys.readouterr().err


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

    def test_workers_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # os.sched_getaffinity exists only on Linux; elsewhere the CPU count caps the pool
        monkeypatch.delattr(os, "sched_getaffinity")
        self.test_deterministic_across_workers(tmp_path)

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

    @pytest.mark.parametrize("target", ["dir", "file/x.csv", "file/sub/x.csv"])
    def test_unusable_out_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch, target):
        def no_trials(*args, **kwargs):
            raise AssertionError("estimate_curves ran before --out was checked")

        monkeypatch.setattr(simkit, "estimate_curves", no_trials)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        assert main(["run", "--config", "fig2", "--out", str(tmp_path / target)]) == 2
        assert "error: --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_missing_out_directory_created(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "a" / "b" / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("# cirauth")

    @pytest.mark.parametrize(
        "preset, override",
        [
            ("fig2", "detector.delta=nan"),
            ("fig3", "detector.delta_n=nan"),
            ("fig3", "detector.delta_n=-5"),
            ("fig2", "channel.pdp=1,1,1,1,1,nan"),
            ("fig5", "cs.residual_tol=nan"),
            ("fig4", "cs.residual_tol=1e300"),
            ("fig4", "cs.residual_tol=2"),
            ("fig5", "cs.residual_tol=1"),
            ("fig5", "cs.max_atoms=0"),
            ("fig5", "cs.max_atoms=71"),
            ("fig2", "scenario.snr_db=inf"),
            ("fig5", "scenario.seed=-1"),
            ("fig5", "cs.m=700"),
            ("fig2", "detector.scale=raw_quadratic"),
            ("fig5", "cs.basis=dct"),
            ("fig2", "detector.delta=,"),
            ("fig3", "detector.rules=,"),
            ("fig2", "scenario.snr_db=0:1:inf"),
            ("fig2", "scenario.snr_db=0:inf:10"),
            ("fig3", "detector.delta_n=1:1:inf"),
            ("fig2", "scenario.snr_db=-4000"),
            ("fig2", "scenario.snr_db=4000"),
            ("fig4", "cs.basis=foo"),
            ("fig3", "detector.delta_n=5,5"),
            ("fig3", "detector.rules=or,OR"),
        ],
    )
    def test_invalid_values_exit_2_without_csv(self, tmp_path, capsys, preset, override):
        out = tmp_path / "o.csv"
        assert main(["run", "--config", preset, "--out", str(out), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert override.partition("=")[0] in err  # the message names the config key
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, key, value",
        [
            ("fig2", "detector.target_pfa", "0"),
            ("fig2", "detector.target_pfa", "1"),
            ("fig2", "detector.target_pfa", "nan"),
            ("fig3", "detector.target_pfa_n", "0"),
            ("fig3", "detector.target_pfa_n", "1.5"),
        ],
    )
    def test_target_rate_out_of_range_exit_2_without_csv(self, tmp_path, capsys, preset, key, value):
        # the target replaces the preset's threshold line, as a config that gives only a target would
        threshold_key = "detector.delta" if preset == "fig2" else "detector.delta_n"
        text, hits = re.subn(rf"(?m)^{re.escape(threshold_key)} = .*$", f"{key} = {value}", load_config_file(preset)[0])
        assert hits == 1
        cfg, out = tmp_path / "c.cfg", tmp_path / "o.csv"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must lie in (0, 1), got ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, overrides",
        [
            ("fig2", ["detector.delta_n=5", "detector.rules=bogus", "cs.m=3"]),
            ("fig2", ["detector.target_pfa_n=0.01"]),
            ("fig2", ["detector.avg_threshold=0.3"]),
            ("fig2", ["cs.compare_uncompressed=false"]),
            ("fig3", ["detector.delta=5"]),
            ("fig3", ["detector.target_pfa=0.01"]),
            ("fig3", ["cs.max_atoms=4"]),
            ("fig4", ["detector.rules=or"]),
            ("fig5", ["detector.delta=5"]),
        ],
    )
    def test_keys_of_another_scheme_exit_2_without_csv(self, tmp_path, capsys, preset, overrides):
        out = tmp_path / "o.csv"
        argv = ["run", "--config", preset, "--out", str(out)] + [a for o in overrides for a in ("--set", o)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scheme ")
        assert all(o.partition("=")[0] in err for o in overrides)  # names every key the scheme ignores
        assert not out.exists()

    @pytest.mark.parametrize("rules", ["or", "majority,single", None])  # None: the default majority
    def test_avg_threshold_without_weighted_average_exits_2(self, tmp_path, capsys, rules):
        out = tmp_path / "o.csv"
        sets = ["detector.avg_threshold=0.3"] + ([f"detector.rules={rules}"] if rules else [])
        text = load_config_file("fig3")[0].replace("detector.rules =", "# detector.rules =")
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text(text)
        argv = ["run", "--config", str(cfg), "--out", str(out)] + [a for o in sets for a in ("--set", o)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "detector.avg_threshold" in err and "weighted_average" in err
        assert not out.exists()

    @pytest.mark.parametrize("rules", ["weighted_average", "or,weighted_average"])
    def test_avg_threshold_with_weighted_average_runs(self, tmp_path, rules):
        out = tmp_path / "o.csv"
        argv = ["run", "--config", "fig3", "--out", str(out), "--set", "scenario.trials=2",
                "--set", "scenario.snr_db=0", "--set", f"detector.rules={rules}",
                "--set", "detector.avg_threshold=0.3"]
        assert main(argv) == 0
        assert "detector.avg_threshold=0.3" in out.read_text()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_scale_applies_to_every_scheme(self, tmp_path, preset):
        argv = ["run", "--config", preset, "--out", str(tmp_path / "o.csv"),
                "--set", "detector.scale=chi2", "--set", "scenario.trials=1", "--set", "scenario.snr_db=0"]
        assert main(argv) == 0

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_nonpositive_workers_exit_2_without_csv(self, tmp_path, capsys, workers):
        out = tmp_path / "o.csv"
        assert main(["run", "--config", "fig2", "--out", str(out), "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
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


_PROBS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1.0, 0, 1]), st.floats(0.0, 1.0))
_SNRS = st.one_of(
    st.sampled_from([-1000.0, 1000.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, -10.0]),
    st.integers(-1000, 1000),
    st.floats(-1000.0, 1000.0),
)


class TestCsvRows:
    @settings(max_examples=300, deadline=None)
    @given(
        points=st.lists(st.tuples(_SNRS, _PROBS, _PROBS, _PROBS, _PROBS), min_size=1, max_size=6),
        trials=st.integers(1, 1 << 31),
    )
    def test_rows_equal_per_field_join(self, points, trials):
        curve = simkit.DetectionCurve("fc_raw", "delta=1e+300 no_cs", *map(tuple, zip(*points)), trials=trials)
        want = [
            ",".join((curve.scheme, curve.label, *(cli._format_float(x) for x in point), str(curve.trials)))
            for point in points
        ]
        assert cli._csv_rows(curve) == want


class TestWriteCsv:
    @pytest.mark.parametrize("sep", [",", "\n", "\r"], ids=["comma", "lf", "cr"])
    def test_identifier_that_would_split_a_row_rejected(self, tmp_path, sep):
        # built by hand: a Variant already rejects such a label, so estimate_curves cannot make this curve
        curves = [simkit.DetectionCurve("fc_raw", f"x{sep}y", (0.0,), (1.0,), (0.0,), (0.0,), (0.0,), trials=3)]
        with pytest.raises(ValueError, match="comma or line break"):
            cli.write_csv(str(tmp_path / "o.csv"), curves, "text", 1)
        assert list(tmp_path.iterdir()) == []  # no CSV and no temp file


class TestSelfcheck:
    def test_clean_build_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "8/8 checks passed" in out

    def test_repeat_invocations_identical(self, capsys):
        main(["selfcheck"])
        first = capsys.readouterr().out
        main(["selfcheck"])
        second = capsys.readouterr().out
        assert first == second

    def test_perturbed_quantile_detected(self, capsys, monkeypatch):
        import cirauth.detect as detect

        real = detect.solve_threshold
        monkeypatch.setattr(detect, "solve_threshold", lambda alpha, dof: real(alpha, dof) + 0.5)
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL threshold_roundtrip" in out or "FAIL threshold_table" in out

    def test_broken_clamped_cholesky_detected(self, capsys, monkeypatch):
        # positive-definite correlations factor as before; the singular rho = 1 one loses every column
        real = channel._correlation_factor
        monkeypatch.setattr(channel, "_correlation_factor", lambda n, rho: real(n, rho) * (rho < 1.0))
        assert _selfcheck_failures(capsys)[0] == {"correlation_factor"}

    def test_shifted_recovery_detected(self, capsys, monkeypatch):
        real = sparse._batch_omp

        def batch_omp(*args):  # every coefficient one atom to the right
            res = real(*args)
            return dataclasses.replace(res, coeffs=np.roll(res.coeffs, 1, axis=-1))

        monkeypatch.setattr(sparse, "_batch_omp", batch_omp)
        assert _selfcheck_failures(capsys)[0] == {"omp_single_atom"}

    def test_swapped_cutoffs_detected(self, capsys, monkeypatch):
        real, swap = FusionRule.cutoff, {FusionKind.AND: FusionKind.OR, FusionKind.OR: FusionKind.AND}
        monkeypatch.setattr(FusionRule, "cutoff", lambda rule, n: real(FusionRule(swap.get(rule.kind, rule.kind)), n))
        assert _selfcheck_failures(capsys)[0] == {"fusion_identities"}

    def test_reordered_stream_rows_detected(self, capsys, monkeypatch):
        real = numerics.standard_normal_rows
        monkeypatch.setattr(numerics, "standard_normal_rows", lambda seed, ids, width: real(seed, list(ids)[::-1], width))
        assert _selfcheck_failures(capsys)[0] == {"rng_determinism"}

    @pytest.mark.parametrize("owner, name", [
        (cli, "measure_block"), (sparse, "compress"), (sparse, "reconstruct_raw"), (sparse, "reconstruct_decisions"),
    ])
    def test_block_height_dependence_detected(self, capsys, monkeypatch, owner, name):
        real = getattr(owner, name)

        @functools.wraps(real)
        def height_dependent(x, *args):  # a block's last output row moves; one-row calls are exact
            out = real(x, *args)
            if np.ndim(x) == 2 and len(x) > 1:
                for part in out if isinstance(out, tuple) else (out,):
                    part[-1] += 1
            return out

        monkeypatch.setattr(owner, name, height_dependent)
        failed, out = _selfcheck_failures(capsys)
        assert failed == {"block_rows_exact"} and f"FAIL block_rows_exact: {name} rows differ" in out

    def test_checks_hold_under_optimize(self):
        # python -O strips assert statements: the checks must still fail a perturbed quantile
        # and pass a clean build
        perturbed = _run_fresh(["selfcheck"], script=_PERTURBED_SELFCHECK, flags=["-O"])
        assert perturbed.returncode == 1, perturbed.stdout + perturbed.stderr
        assert "FAIL threshold_roundtrip" in perturbed.stdout
        clean = _run_fresh(["selfcheck"], flags=["-O"])
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "8/8 checks passed" in clean.stdout


def _selfcheck_failures(capsys) -> tuple[set, str]:
    """The names of the checks ``cirauth selfcheck`` fails, and its output; its exit code must say whether any did."""
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    failed = {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("FAIL ")}
    assert rc == (1 if failed else 0)
    return failed, out


# Runs cli.main in a fresh interpreter, then lists the heavy modules it loaded.
_FOOTPRINT_SCRIPT = """
import sys
from cirauth import cli
rc = cli.main(sys.argv[1:])
heavy = [m for m in sys.modules if m.partition(".")[0] == "scipy" or m == "concurrent.futures.process"]
print("heavy:", *sorted(heavy))
sys.exit(rc)
"""


# The same, with ``detect.solve_threshold`` off by 0.5.
_PERTURBED_SELFCHECK = """
import sys
from cirauth import cli, detect
real = detect.solve_threshold
detect.solve_threshold = lambda alpha, dof: real(alpha, dof) + 0.5
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_fresh(args, script=_FOOTPRINT_SCRIPT, flags=()):
    env = dict(os.environ)
    src = str(Path(cirauth.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestRunPathImports:
    """A run with given thresholds loads numpy and the stdlib only; scipy stays lazy."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_serial_preset_run_loads_no_scipy(self, tmp_path, preset):
        out = tmp_path / "o.csv"
        proc = _run_fresh([
            "run", "--config", preset, "--out", str(out), "--workers", "1",
            "--set", "scenario.trials=1", "--set", "scenario.snr_db=0",
        ])
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert proc.stdout.splitlines()[-1] == "heavy:"  # no scipy, no process pool

    def test_target_pfa_run_still_solves_its_threshold(self, tmp_path):
        text, _ = load_config_file("fig2")
        text, hits = re.subn(r"(?m)^detector\.delta = .*$", "detector.target_pfa = 1e-3", text)
        assert hits == 1
        cfg, out = tmp_path / "tpfa.cfg", tmp_path / "o.csv"
        cfg.write_text(text)
        proc = _run_fresh([
            "run", "--config", str(cfg), "--out", str(out), "--workers", "1",
            "--set", "scenario.trials=1", "--set", "scenario.snr_db=0",
        ])
        assert proc.returncode == 0, proc.stderr
        assert "fc_raw,pfa=0.001,0," in out.read_text()
