import io
import json
from pathlib import Path

import numpy as np
import pytest

from roughmv.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**overrides):
    cfg = {
        "market": {
            "nu0": 0.04, "kappa": 0.3, "phi": 0.04, "sigma": 0.3, "rho": -0.7,
            "theta": 1.5, "rate": 0.0,
            "kernel": {"variant": "fractional", "c": 1.0, "hurst": 0.1},
        },
        "objective": {"variant": "const_mv", "gamma": 0.5, "horizon": 3.0},
        "grid": {"steps_per_year": 250},
        "hurst_values": [0.1, 0.3, 0.5],
        "output": {"directory": "unused", "formats": ["csv", "json"]},
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    text = Path(path).read_text()
    header = text.splitlines()[0].split(",")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestHedgeCurve:
    def test_three_hurst_files_and_heston_value(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["hedge-curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        files = sorted(p.name for p in (tmp_path / "o").glob("hedge_curve_*.csv"))
        assert files == ["hedge_curve_H0.1.csv", "hedge_curve_H0.3.csv", "hedge_curve_H0.5.csv"]
        header, data = read_csv(tmp_path / "o" / "hedge_curve_H0.5.csv")
        assert header == ["t", "myopic", "hedge", "total"]
        # hedge at t=0 for the classic branch, frozen from the exp oracle
        assert data[0, 2] == pytest.approx(2.8997551742491674, rel=1e-12)
        assert data[:, 3] == pytest.approx(data[:, 1] + data[:, 2])

    def test_zero_correlation_zeroes_hedge(self, tmp_path):
        cfg_payload = base_config()
        cfg_payload["market"]["rho"] = 0.0
        cfg = write_config(tmp_path, cfg_payload)
        assert main(["hedge-curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        _, data = read_csv(tmp_path / "o" / "hedge_curve_H0.1.csv")
        assert np.all(data[:, 2] == 0.0)

    def test_short_vs_long_horizon_ordering(self, tmp_path):
        # T=1: rough demands more everywhere; T=10: smooth demands more early
        outs = {}
        for horizon in (1.0, 10.0):
            payload = base_config()
            payload["objective"]["horizon"] = horizon
            payload["hurst_values"] = [0.1, 0.5]
            cfg = write_config(tmp_path, payload, name=f"cfg{horizon}.json")
            out = tmp_path / f"o{horizon}"
            assert main(["hedge-curve", "--config", cfg, "--out", str(out)]) == 0
            _, rough = read_csv(out / "hedge_curve_H0.1.csv")
            _, smooth = read_csv(out / "hedge_curve_H0.5.csv")
            outs[horizon] = (rough[:, 3], smooth[:, 3])
        rough1, smooth1 = outs[1.0]
        assert np.all(rough1[:-1] > smooth1[:-1])
        rough10, smooth10 = outs[10.0]
        assert rough10[0] < smooth10[0]


class TestCrossover:
    def test_gamma_ladder(self, tmp_path):
        payload = base_config(hurst_values=[0.1, 0.5],
                              gamma_values=[0.1, 1.0, 10.0])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["crossover", "--config", cfg, "--out", str(out)]) == 0
        header, data = read_csv(out / "crossover.csv")
        assert header == ["gamma", "t_star_const_mv", "t_star_log_mv"]
        # const-MV column constant across gamma, log-MV strictly decreasing
        assert np.max(data[:, 1]) - np.min(data[:, 1]) <= 3.0 / 750.0
        assert data[0, 2] > data[1, 2] > data[2, 2]

    def test_wrong_kernel_count_is_config_error(self, tmp_path):
        payload = base_config(hurst_values=[0.1, 0.3, 0.5])
        cfg = write_config(tmp_path, payload)
        assert main(["crossover", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSimulate:
    def _sim_config(self, **market_overrides):
        payload = base_config()
        payload["market"].update(market_overrides)
        payload["objective"] = {"variant": "const_mv", "gamma": 0.5, "horizon": 1.0}
        payload["sim"] = {"scheme": "lifted", "n_factors": 10, "rate_spread": 1e4,
                         "n_paths": 200, "seed": 7, "write_paths": True}
        payload["grid"] = {"steps_per_year": 100}
        return payload

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self._sim_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("terminal_stats.json", "paths.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stats_payload_shape(self, tmp_path):
        cfg = write_config(tmp_path, self._sim_config())
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        stats = json.loads((out / "terminal_stats.json").read_text())
        assert stats["n_paths"] == 200
        assert sum(stats["histogram"]["counts"]) == 200
        assert len(stats["histogram"]["bin_edges"]) == len(stats["histogram"]["counts"]) + 1

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, self._sim_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        a = json.loads((out1 / "terminal_stats.json").read_text())
        b = json.loads((out2 / "terminal_stats.json").read_text())
        assert a["mean"] != b["mean"]


class TestNonExp:
    def test_consumption_outputs_and_invariance(self, tmp_path):
        payload = base_config(hurst_values=[0.1, 0.5])
        payload["objective"] = {
            "variant": "nonexp_log",
            "discount": {"variant": "exponential", "rate": 0.0},
            "horizon": 3.0,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["nonexp", "--config", cfg, "--out", str(out)]) == 0
        header, data = read_csv(out / "nonexp_strategy.csv")
        assert header == ["t", "consumption_rate", "investment_coefficient", "V1"]
        assert data[0, 1] == 0.25  # 1/V1(0) with h = 1 and T = 3
        assert np.all(data[:, 2] == 1.5)
        diff = json.loads((out / "kernel_invariance.json").read_text())
        assert diff["bitwise_identical"] is True


class TestStrategyCommand:
    def test_full_columns_and_lossless_parse(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert main(["strategy", "--config", cfg, "--out", str(out)]) == 0
        header, data = read_csv(out / "strategy.csv")
        assert header == ["t", "myopic", "hedge", "total", "V1", "V2", "V0", "g1", "g2", "g0"]
        payload = json.loads((out / "strategy.json").read_text())
        np.testing.assert_array_equal(np.array(payload["total"]), data[:, 3])

    def test_steps_per_year_flag(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert main(["strategy", "--config", cfg, "--out", str(out),
                     "--steps-per-year", "100"]) == 0
        _, data = read_csv(out / "strategy.csv")
        assert data.shape[0] == 301


class TestConfigHandling:
    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_config(bogus_field=1))
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_market_field_rejected(self, tmp_path):
        payload = base_config()
        payload["market"]["vol_of_vol"] = 0.3
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["strategy", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["strategy", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_objective_is_config_error(self, tmp_path):
        payload = base_config()
        payload["objective"] = {"variant": "const_mv", "gamma": -1.0, "horizon": 3.0}
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "payload,field",
        [
            ([1, 2], "config"),
            ({"market": 5}, "config.market"),
            ({"market": None}, "config.market"),
            ({"objective": 5}, "config.objective"),
            ({"grid": {"steps_per_year": "x"}}, "grid.steps_per_year"),
            ({"grid": {"steps_per_year": 2.5}}, "grid.steps_per_year"),
            ({"market": {"nu0": "NaN"}}, "nu0"),
            ({"market": {"kappa": "NaN"}}, "kappa"),
            ({"market": {"theta": "Infinity"}}, "theta"),
            ({"objective": {"variant": "const_mv", "gamma": "NaN", "horizon": 3.0}},
             "gamma"),
            ({"objective": {"variant": "log_mv", "gamma": 0.5, "horizon": "inf"}},
             "horizon"),
            ({"objective": {"variant": "log_mv", "gamma": 0.5, "horizon": 3.0,
                            "delta": "NaN"}}, "delta"),
            ({"market": {"rate": "x"}}, "market.rate"),
            ({"market": {"rate": [1, "x"]}}, "market.rate"),
            ({"market": {"rate": {"times": 5, "rates": [0]}}}, "market.rate"),
            ({"market": {"rate": {"times": [0.0]}}}, "market.rate"),
            ({"market": {"rate": "NaN"}}, "market.rate"),
            ({"market": {"rate": {"times": [0.0, "Infinity"], "rates": [0.01, 0.02]}}},
             "times must be finite"),
            ({"market": {"rate": {"times": [0.0], "rates": ["NaN"]}}},
             "rates must be finite"),
        ],
    )
    def test_malformed_or_non_finite_input_exits_2(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1 = tmp_path / "a"
        assert main(["strategy", "--config", cfg, "--out", str(out1)]) == 0
        manifest = out1 / "manifest.json"
        out2 = tmp_path / "b"
        assert main(["strategy", "--config", str(manifest), "--out", str(out2)]) == 0
        assert (out1 / "strategy.csv").read_bytes() == (out2 / "strategy.csv").read_bytes()
        assert (out1 / "strategy.json").read_bytes() == (out2 / "strategy.json").read_bytes()

    def test_manifest_records_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert main(["strategy", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "strategy"
        assert manifest["seed"] == 99
        assert manifest["config"]["sim"]["seed"] == 99
        assert "version" in manifest


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name,command",
        [
            ("hedge_curves.json", "hedge-curve"),
            ("crossover.json", "crossover"),
            ("nonexp_consumption.json", "nonexp"),
        ],
    )
    def test_configs_load_and_run(self, tmp_path, name, command):
        cfg = str(CONFIG_DIR / name)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--steps-per-year", "50"]) == 0

    def test_simulation_comparison_config_loads(self, tmp_path):
        # full run is exercised by the acceptance suite; here a reduced pass
        cfg = str(CONFIG_DIR / "simulation_comparison.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--paths", "50", "--steps-per-year", "25"]) == 0


class TestSubObjectValidation:
    def test_unknown_kernel_field_rejected(self, tmp_path):
        payload = base_config()
        payload["market"]["kernel"] = {"variant": "fractional", "c": 1.0,
                                       "hurst": 0.1, "roughness": 9}
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_discount_field_rejected(self, tmp_path):
        payload = base_config()
        payload["objective"] = {
            "variant": "nonexp_log", "horizon": 3.0,
            "discount": {"variant": "exponential", "rate": 0.1, "half_life": 2},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["nonexp", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSimulateOtherObjectives:
    def _cfg(self, objective):
        payload = base_config()
        payload["objective"] = objective
        payload["sim"] = {"scheme": "lifted", "n_factors": 10, "rate_spread": 1e4,
                         "n_paths": 100, "seed": 3, "write_paths": False}
        payload["grid"] = {"steps_per_year": 100}
        return payload

    def test_log_mv_simulation(self, tmp_path):
        payload = self._cfg({"variant": "log_mv", "gamma": 0.5, "horizon": 1.0})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        stats = json.loads((out / "terminal_stats.json").read_text())
        assert stats["mean"] > 0.0  # proportional strategies keep wealth positive

    def test_nonexp_simulation(self, tmp_path):
        payload = self._cfg({
            "variant": "nonexp_log", "horizon": 1.0,
            "discount": {"variant": "exponential", "rate": 0.1},
        })
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        stats = json.loads((out / "terminal_stats.json").read_text())
        assert stats["mean"] > 0.0
