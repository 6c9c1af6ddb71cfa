import errno
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import roughmv.cli as cli
import roughmv.montecarlo as montecarlo
from roughmv import simulate_variance, simulate_wealth, terminal_stats
from roughmv.cli import (
    _strategy_for,
    _with_hurst,
    build_grid,
    build_market,
    build_objective,
    build_sim,
    load_config,
    main,
)
from roughmv.montecarlo import PATH_BLOCK, PATHS_CSV_HEADER, bundle_csv_rows
from roughmv.strategies import (
    StrategyCurve,
    nonexp_log_strategy,
    nonexp_v1,
    strategy_columns,
    strategy_text,
    strategy_to_csv,
    strategy_to_json,
)

from conftest import disk_full_at_part

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# a value for each field of the variant sections, and the variant fields that
# may be missing: fractional c and log_mv delta have defaults, and fractional
# takes hurst or alpha ("market.kernel needs hurst or alpha" without either)
VARIANT_FIELDS = {
    "market.kernel.c": 0.7, "market.kernel.beta": 1.5, "market.kernel.weights": [0.7],
    "market.kernel.rates": [1.5],
    "objective.gamma": 0.5, "objective.horizon": 3.0, "objective.delta": 2.0,
    "objective.discount": {"variant": "exponential", "rate": 0.1},
    "objective.discount.rate": 0.1, "objective.discount.a": 0.5, "objective.discount.b": 0.8,
    "objective.discount.times": [0.0, 1.0], "objective.discount.values": [1.0, 0.5],
}
VARIANT_DEFAULTS = {("fractional", "c"), ("fractional", "hurst"), ("fractional", "alpha"),
                    ("log_mv", "delta")}


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


    def test_failure_at_a_later_hurst_leaves_no_data_file(self, tmp_path, capsys):
        # the H = 0.5 file used to be written before E_{0.55,1} overflowed
        # at H = 0.05, and stayed without a manifest
        payload = base_config(hurst_values=[0.5, 0.05])
        payload["market"].update(sigma=10.0, rho=-0.9, theta=2.5)
        payload["objective"]["horizon"] = 4.0
        payload["grid"] = {"steps_per_year": 50}
        cfg = write_config(tmp_path, payload)
        assert main(["hedge-curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("hursts", [[0.1, 0.1000001], [0.3, 0.1, 0.3]],
                             ids=["near", "exact"])
    def test_two_values_naming_one_file_exit_2(self, tmp_path, capsys, monkeypatch, hursts):
        # 0.1000001 was written over the H0.1 file, which the manifest did not say
        monkeypatch.setattr(cli, "_strategy_for", lambda *a: pytest.fail("curve computed"))
        cfg = write_config(tmp_path, base_config(hurst_values=hursts))
        out = tmp_path / "o"
        assert main(["hedge-curve", "--config", cfg, "--out", str(out)]) == 2
        assert "hurst_values" in capsys.readouterr().err
        assert not out.exists()

    def test_nonexp_objective(self, tmp_path):
        # the consumption problem's investment is the Merton fraction, unhedged
        out = tmp_path / "o"
        assert main(["hedge-curve", "--config", str(CONFIG_DIR / "nonexp_consumption.json"),
                     "--out", str(out)]) == 0
        for hurst in ("0.1", "0.5"):
            header, data = read_csv(out / f"hedge_curve_H{hurst}.csv")
            assert header == ["t", "myopic", "hedge", "total"]
            assert np.all(data[:, 1] == 1.5) and np.all(data[:, 3] == 1.5)
            assert not data[:, 2].any()


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

    def test_equal_hurst_values_exit_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # a curve cannot cross itself: [0.1, 0.1] exited 0 with "0.5,," for every gamma
        monkeypatch.setattr(cli, "_strategy_for", lambda *args: pytest.fail("solved"))
        cfg = write_config(tmp_path, base_config(hurst_values=[0.1, 0.1]))
        assert main(["crossover", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: crossover needs exactly two hurst_values, got [0.1, 0.1]\n")
        assert not (tmp_path / "o").exists()


class TestOneDispatch:
    """Every command reaches the strategy functions through cli._strategy_for."""

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_main_builds_each_input_once(self, tmp_path, monkeypatch, command):
        calls = dict.fromkeys(["build_market", "build_objective", "build_grid", "build_sim"], 0)
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cli, name, counted)
        payload = base_config(hurst_values=[0.1, 0.5], grid={"steps_per_year": 20},
                              sim={"n_factors": 8, "n_paths": 20})
        payload["objective"] = TestAllOrNothing.NONEXP
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == dict.fromkeys(calls, 1)

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"const_mv": 0, "log_mv": 0}
        for kind in calls:
            original = getattr(cli, f"{kind}_strategy")

            def counted(*args, _kind=kind, _original=original, **kwargs):
                calls[_kind] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, f"{kind}_strategy", counted)
        return calls

    def test_crossover(self, tmp_path, monkeypatch):
        calls = self._count_calls(monkeypatch)
        cfg = str(CONFIG_DIR / "crossover.json")
        assert main(["crossover", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # one curve per gamma (6), Hurst value (2) and objective
        assert calls == {"const_mv": 12, "log_mv": 12}

    @pytest.mark.parametrize("variant", ["const_mv", "log_mv"])
    @pytest.mark.parametrize("command", ["strategy", "hedge-curve", "simulate"])
    def test_other_commands(self, tmp_path, monkeypatch, command, variant):
        calls = self._count_calls(monkeypatch)
        payload = base_config(hurst_values=[0.1, 0.5], grid={"steps_per_year": 50})
        payload["objective"] = {"variant": variant, "gamma": 0.5, "horizon": 1.0}
        cfg = write_config(tmp_path, payload)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--paths", "20"]
        assert main(argv) == 0
        assert calls[variant] >= 1


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

    def test_nonexp_objective_writes_the_consumption_rate(self, tmp_path):
        cfg_path = str(CONFIG_DIR / "nonexp_consumption.json")
        out = tmp_path / "o"
        assert main(["strategy", "--config", cfg_path, "--out", str(out)]) == 0
        header, data = read_csv(out / "strategy.csv")
        assert header == ["t", "myopic", "hedge", "total", "consumption"]
        cfg = load_config(cfg_path)
        objective = build_objective(cfg)
        curve = nonexp_log_strategy(build_market(cfg), objective.discount,
                                    build_grid(cfg, objective.horizon))
        p_hat = curve.consumption
        assert data[:, 4].tobytes() == p_hat.tobytes()
        assert data[:, 3].tobytes() == curve.total.tobytes() and not data[:, 2].any()
        payload = json.loads((out / "strategy.json").read_text())
        assert np.array(payload["consumption"]).tobytes() == p_hat.tobytes()
        assert payload["kind"] == "nonexp_log"

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

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"sim": {"seed": ' + "9" * 5000 + "}}",  # past int()'s digit limit
        '{"notes": ' + "[" * 200_000 + "]" * 200_000 + "}",  # past the recursion limit
    ], ids=["syntax", "long_integer", "deep_nesting"])
    def test_invalid_json_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        assert main(["strategy", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
            ({"market": {"nu0": math.nan}}, "nu0"),
            ({"market": {"kappa": math.nan}}, "kappa"),
            ({"market": {"theta": math.inf}}, "theta"),
            ({"objective": {"variant": "const_mv", "gamma": math.nan, "horizon": 3.0}},
             "gamma"),
            ({"objective": {"variant": "log_mv", "gamma": 0.5, "horizon": math.inf}},
             "horizon"),
            ({"objective": {"variant": "log_mv", "gamma": 0.5, "horizon": 3.0,
                            "delta": math.nan}}, "delta"),
            ({"market": {"rate": "x"}}, "market.rate"),
            ({"market": {"rate": [1, "x"]}}, "market.rate"),
            ({"market": {"rate": {"times": 5, "rates": [0]}}}, "market.rate"),
            ({"market": {"rate": {"times": [0.0]}}}, "market.rate"),
            ({"market": {"rate": math.nan}}, "market.rate"),
            ({"market": {"rate": {"times": [0.0, math.inf], "rates": [0.01, 0.02]}}},
             "times must be finite"),
            ({"market": {"rate": {"times": [0.0], "rates": [math.nan]}}},
             "rates must be finite"),
            ({"sim": {"n_paths": "x"}}, "sim.n_paths"),
            ({"sim": {"n_factors": "x"}}, "sim.n_factors"),
            ({"sim": {"seed": "x"}}, "sim.seed"),
            ({"sim": {"seed": -1}}, "sim.seed"),
            ({"sim": {"rate_spread": math.nan}}, "sim.rate_spread"),
            ({"sim": {"n_paths": 2.5}}, "sim.n_paths"),
            ({"sim": {"write_paths": "no"}}, "sim.write_paths"),
            ({"sim": {"n_paths": 1}}, "sim.n_paths"),
            ({"sim": {"scheme": "exact"}}, "sim.scheme"),
            ({"hurst_values": [0.1, math.nan]}, "hurst_values"),
            ({"hurst_values": [0.1, 0.9]}, "hurst_values"),
            ({"hurst_values": 0.1}, "hurst_values"),
            ({"gamma_values": [0.5, "x"]}, "gamma_values"),
            ({"gamma_values": [0.5, -1]}, "gamma_values"),
            ({"gamma_values": [0.5, 1e400]}, "gamma_values"),
            ({"output": {"formats": 5}}, "output.formats"),
            ({"output": {"formats": ["xml"]}}, "output.formats"),
            ({"output": {"formats": []}}, "output.formats"),
            ({"market": {"kernel": {"variant": "fractional", "c": math.nan, "hurst": 0.1}}},
             "kernel weight c must be finite"),
            ({"market": {"kernel": {"variant": "exponential", "c": 1.0, "beta": math.nan}}},
             ("bad market.kernel", "kernel rates must be finite, got nan")),
            ({"market": {"kernel": {"variant": "sum_of_exponentials", "weights": [1, math.nan],
                                    "rates": [1, 2]}}}, "kernel weights must be finite"),
            ({"market": {"kernel": {"variant": "sum_of_exponentials", "weights": [1, 2],
                                    "rates": [1, math.inf]}}}, "kernel rates must be finite"),
            # market scalars that are no numbers were float() tracebacks
            ({"market": {"kappa": None}}, "market.kappa"),
            ({"market": {"sigma": []}}, "market.sigma"),
            ({"market": {"rho": {}}}, "market.rho"),
            ({"market": {"nu0": 10**400}}, "market.nu0"),
            ({"market": {"kernel": {"variant": "constant", "c": math.nan}}},
             ("bad market.kernel", "kernel weights must be finite, got nan")),
            ({"market": {"kernel": {"variant": "exponential", "c": 1.0, "beta": -1.0}}},
             ("bad market.kernel", "kernel rates must be finite and >= 0")),
            ({"market": {"kernel": {"variant": "exponential", "c": 10**400, "beta": 1.0}}},
             "market.kernel"),
            # a kernel weight c <= 0 ran on to V2 near 1e286, or exit 3
            ({"market": {"kernel": {"variant": "fractional", "c": -5.0, "alpha": 0.6}}},
             "market.kernel.c must be > 0 for the fractional kernel"),
            ({"market": {"kernel": {"variant": "fractional", "c": 0.0, "hurst": 0.1}}},
             "market.kernel.c must be > 0"),
            ({"market": {"kernel": {"variant": "constant", "c": -1.0}}},
             "market.kernel.c must be > 0 for the constant kernel"),
            ({"market": {"kernel": {"variant": "exponential", "c": -math.inf, "beta": 1.0}}},
             "market.kernel.c must be > 0 for the exponential kernel"),
            # the variant sections: an unknown variant, an unknown field, no object
            ({"market": {"kernel": {"variant": "rough", "c": 1.0}}},
             "unknown market.kernel.variant 'rough'"),
            ({"market": {"kernel": {"c": 1.0, "hurst": 0.1}}},
             "unknown market.kernel.variant None"),
            ({"market": {"kernel": {"variant": "constant", "c": 1.0, "hurst": 0.1}}},
             "unknown config field 'config.market.kernel.hurst'"),
            ({"market": {"kernel": None}}, "'config.market.kernel' must be an object"),
            ({"objective": {"variant": "power", "gamma": 0.5, "horizon": 3.0}},
             "unknown objective.variant 'power'"),
            ({"objective": {"variant": "const_mv", "gamma": 0.5, "horizon": 3.0, "delta": 2.0}},
             "unknown config field 'config.objective.delta'"),
            ({"objective": [1]}, "'config.objective' must be an object"),
            ({"objective": {"variant": "nonexp_log", "horizon": 3.0,
                            "discount": {"variant": "quasi", "a": 0.5}}},
             "unknown objective.discount.variant 'quasi'"),
            ({"objective": {"variant": "nonexp_log", "horizon": 3.0,
                            "discount": {"variant": "exponential", "rate": 0.1, "b": 0.5}}},
             "unknown config field 'config.objective.discount.b'"),
            ({"objective": {"variant": "nonexp_log", "horizon": 3.0, "discount": 0.1}},
             "'config.objective.discount' must be an object"),
            # an integer beyond the float range: spy x horizon overflowed, exit 3
            ({"grid": {"steps_per_year": 10**400}}, "grid.steps_per_year"),
            ({"sim": {"seed": 10**400}}, "sim.seed"),
            # each was "kappa, phi, sigma must all be > 0", whichever was at fault
            ({"market": {"kappa": -1}}, "kappa must be finite and > 0, got -1.0"),
            ({"market": {"sigma": 0}}, "sigma must be finite and > 0, got 0.0"),
            ({"market": {"phi": -0.04}}, "phi must be finite and > 0, got -0.04"),
            # both ran at hurst and dropped alpha; neither was "bad market.kernel ...: 'alpha'"
            ({"market": {"kernel": {"variant": "fractional", "c": 1.0, "hurst": 0.1,
                                    "alpha": 0.9}}},
             "market.kernel takes hurst or alpha, not both"),
            ({"market": {"kernel": {"variant": "fractional", "c": 1.0}}},
             "market.kernel needs hurst or alpha"),
            # one value of a wrong kind per kind: true ran as 1, a string of
            # digits as its number, and "12" as the list (1, 2)
            ({"market": {"rho": True}}, "market.rho must be a number, got True"),
            ({"objective": {"variant": "const_mv", "gamma": True, "horizon": 3.0}},
             "objective.gamma must be a number, got True"),
            ({"market": {"rho": "0.5"}}, "market.rho must be a number, got '0.5'"),
            ({"market": {"kernel": {"variant": "sum_of_exponentials", "weights": "12",
                                    "rates": [1.0, 2.0]}}},
             "market.kernel.weights must be a non-empty list, got '12'"),
            ({"objective": {"variant": "nonexp_log", "horizon": 3.0,
                            "discount": {"variant": "tabulated", "times": "01",
                                         "values": [1.0, 0.5]}}},
             "objective.discount.times must be a non-empty list, got '01'"),
            ({"market": {"rate": {"times": "01", "rates": [0.01, 0.02]}}},
             "market.rate.times must be a non-empty list, got '01'"),
            ({"notes": 5}, "notes must be a string, got 5"),
            ({"sim": {"write_paths": 1}}, "sim.write_paths must be true or false, got 1"),
            ({"output": {"formats": ["csv", True]}}, "unknown output.formats True"),
            ({"grid": {"steps_per_year": True}},
             "grid.steps_per_year must be an integer, got True"),
            # the rate table: an unknown field ran, and a missing one read "... : 'rates'"
            ({"market": {"rate": {"times": [0.0], "rates": [0.01], "x": 1}}},
             "unknown config field 'config.market.rate.x'"),
            ({"market": {"rate": {"times": [0.0]}}},
             "market.rate.rates must be a non-empty list, got None"),
        ],
        ids=lambda value: " / ".join(value) if isinstance(value, tuple) else None,
    )
    def test_malformed_or_non_finite_input_exits_2(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in ((field,) if isinstance(field, str) else field))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, variant, field", [
        (section.removesuffix(".variant"), variant, field)
        for section, kind in cli._LEAVES.items() if isinstance(kind, dict)
        for variant, fields in kind.items() for field in sorted(fields)
        if (variant, field) not in VARIANT_DEFAULTS
    ], ids=lambda value: value)
    def test_a_missing_variant_field_is_named(self, tmp_path, capsys, section, variant, field):
        # each was "bad <section> <spec>: '<field>'", the bare KeyError
        spec = {"variant": variant, **{name: VARIANT_FIELDS[f"{section}.{name}"]
                                       for name in cli._LEAVES[f"{section}.variant"][variant]
                                       if name != field}}
        payload = base_config()
        if section == "market.kernel":
            payload["market"]["kernel"] = spec
        elif section == "objective":
            payload["objective"] = spec
        else:
            payload["objective"] = {"variant": "nonexp_log", "horizon": 3.0, "discount": spec}
        out = tmp_path / "o"
        assert main(["strategy", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {section}.{field} is missing\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hedge-curve", "crossover", "nonexp"])
    def test_bad_sweep_stops_sweeping_commands_before_writing(self, tmp_path, capsys, command):
        # a string hurst used to end in a TypeError traceback, an out-of-range
        # one in exit 3
        for hursts in ([0.1, "0.3"], [0.1, math.nan], [0.1, 0.9]):
            cfg = write_config(tmp_path, base_config(hurst_values=hursts))
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert "hurst_values" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_output_directory_must_be_a_path(self, tmp_path, capsys):
        payload = base_config()
        payload["output"]["directory"] = 5
        assert main(["strategy", "--config", write_config(tmp_path, payload)]) == 2
        assert "output.directory" in capsys.readouterr().err

    @pytest.mark.parametrize("sim, reason", [
        ({"n_factors": 500}, "< 500): try fewer factors"),
        ({"n_factors": 10**30}, f"(rank <= 400 < {10**30}): try fewer factors"),
        ({"rate_spread": 1.0}, "(rank 1 < 20): the rates coincide; widen rate_spread"),
        ({"n_factors": 400}, "(rank 49 < 400): try fewer factors"),
    ], ids=["too_many_factors", "far_too_many_factors", "unit_rate_spread", "rank_short"])
    def test_degenerate_kernel_fit_exits_2_naming_the_fields(self, tmp_path, capsys, sim,
                                                             reason):
        # 500 factors and the unit spread exited 3 as numeric errors, the unit
        # spread advising fewer factors; 10^30 factors read "not an integer"
        cfg = write_config(tmp_path, {"sim": dict(sim, n_paths=50)})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sim.n_factors = ")
        assert "sim.rate_spread = " in err and reason in err
        assert not (tmp_path / "o").exists()

    def test_bad_sim_field_stops_simulate_before_writing(self, tmp_path, capsys):
        # a string write_paths used to count as true and write paths.csv
        cfg = write_config(tmp_path, {"sim": {"write_paths": "no", "n_paths": 50}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "sim.write_paths" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "discount",
        [
            {"variant": "exponential", "rate": math.nan},
            {"variant": "hyperbolic", "a": math.inf, "b": 0.5},
            {"variant": "tabulated", "times": [0.0, 1.0, 2.0], "values": [1.0, math.nan, 0.5]},
        ],
    )
    def test_non_finite_discount_exits_2(self, tmp_path, capsys, discount):
        payload = base_config(hurst_values=[0.1, 0.5])
        payload["objective"] = {"variant": "nonexp_log", "discount": discount, "horizon": 3.0}
        cfg = write_config(tmp_path, payload)
        assert main(["nonexp", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "objective.discount" in err and "must be finite" in err
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

    def test_an_override_leaves_the_defaults_as_they_were(self, tmp_path):
        # the merged config shared the default sections, so --seed and --out
        # on a config without them changed the defaults of every later run
        cfg = write_config(tmp_path, {"objective": {"variant": "const_mv", "gamma": 0.5,
                                                    "horizon": 0.5}})
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "99"]) == 0
        assert load_config(None) == cli.DEFAULT_CONFIG
        assert cli.DEFAULT_CONFIG["sim"]["seed"] == 12345
        assert cli.DEFAULT_CONFIG["output"]["directory"] == "out"

    @pytest.mark.parametrize("n_paths", [100_000_000_000, 10**30])
    def test_n_paths_over_the_memory_budget_exits_2_before_the_strategy(
        self, tmp_path, capsys, monkeypatch, n_paths
    ):
        # 10^11 paths were refused as out of memory (exit 3) at the terminal
        # vector, after the strategy was solved; 10^30 as "not an integer"
        monkeypatch.setattr(cli, "_strategy_for", lambda *a: pytest.fail("strategy computed"))
        cfg = write_config(tmp_path, {"sim": {"n_paths": n_paths}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: sim.n_paths = {n_paths} exceeds the memory budget of "
            f"{montecarlo.MAX_ELEMENTS} terminal values\n")

    def test_a_kernel_that_needs_no_fit_simulates_with_any_factor_count(self, tmp_path):
        payload = base_config(sim={"n_factors": 10**30, "n_paths": 20},
                              grid={"steps_per_year": 20})
        payload["market"]["kernel"] = {"variant": "exponential", "c": 0.7, "beta": 1.5}
        payload["objective"]["horizon"] = 1.0
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under-file"])
    def test_output_path_that_cannot_be_a_directory_exits_2(
        self, tmp_path, capsys, monkeypatch, out
    ):
        # these were FileExistsError / NotADirectoryError tracebacks, the first
        # only after the strategy had been computed
        (tmp_path / "taken").write_text("keep")
        monkeypatch.setattr(cli, "_strategy_for", lambda *a: pytest.fail("strategy computed"))
        cfg = write_config(tmp_path, base_config())
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / out)]) == 2
        assert "output.directory" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize("flags,message", [
        (["--paths", "1"], "sim.n_paths must be >= 2, got 1"),
        (["--seed", "-1"], "sim.seed must be >= 0, got -1"),
        (["--steps-per-year", "0"], "grid.steps_per_year must be >= 1, got 0"),
        (["--out", ""], "output.directory must be a path, got ''"),
    ])
    def test_a_flag_is_checked_as_its_leaf(self, tmp_path, capsys, flags, message):
        cfg = write_config(tmp_path, base_config())
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_readme_table_names_every_leaf(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        table = readme[readme.index("| leaf | kind | range |"):].split("\n\n")[0]
        leaves = [row.split("`")[1] for row in table.splitlines()[2:]]
        assert sorted(leaves) == sorted(cli._LEAVES)

    def test_config_path_that_cannot_be_read_exits_2(self, tmp_path, capsys):
        # a directory was an IsADirectoryError traceback
        assert main(["strategy", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestKernelSpellings:
    """One kernel gives the same data files whatever its config spelling."""

    SPELLINGS = {
        "constant": [
            {"variant": "constant", "c": 0.7},
            {"variant": "fractional", "c": 0.7, "hurst": 0.5},
            {"variant": "sum_of_exponentials", "weights": [0.7], "rates": [0]},
        ],
        "exponential": [
            {"variant": "exponential", "c": 0.7, "beta": 1.5},
            {"variant": "sum_of_exponentials", "weights": [0.7], "rates": [1.5]},
        ],
    }

    @staticmethod
    def _data_files(tmp_path, command, kernel, objective, tag):
        payload = base_config(objective=objective)
        payload["market"]["kernel"] = kernel
        payload["grid"] = {"steps_per_year": 100}
        payload["sim"] = {"scheme": "lifted", "n_factors": 5, "rate_spread": 1e4,
                          "n_paths": 40, "seed": 11, "write_paths": True}
        out = tmp_path / tag
        cfg = write_config(tmp_path, payload, name=f"{tag}.json")
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    @pytest.mark.parametrize("kernel", sorted(SPELLINGS))
    @pytest.mark.parametrize("command,objective", [
        ("strategy", {"variant": "const_mv", "gamma": 0.5, "horizon": 2.0}),
        ("strategy", {"variant": "log_mv", "gamma": 0.5, "horizon": 2.0}),
        ("simulate", {"variant": "log_mv", "gamma": 0.5, "horizon": 1.0}),
    ], ids=["const-mv", "log-mv", "simulate"])
    def test_byte_identical_files(self, tmp_path, kernel, command, objective):
        runs = [self._data_files(tmp_path, command, spec, objective, f"s{k}")
                for k, spec in enumerate(self.SPELLINGS[kernel])]
        expected = {"strategy": {"strategy.csv", "strategy.json"},
                    "simulate": {"terminal_stats.json", "paths.csv"}}[command]
        assert set(runs[0]) == expected
        for other in runs[1:]:
            assert other == runs[0]

    def test_rate_far_below_the_grid_spacing(self, tmp_path):
        # a rate of 1e-300 ended in a ZeroDivisionError traceback; it is the
        # constant kernel to double precision
        objective = {"variant": "log_mv", "gamma": 0.5, "horizon": 1.0}
        kernels = {"tiny": {"variant": "sum_of_exponentials", "weights": [1.0], "rates": [1e-300]},
                   "flat": {"variant": "constant", "c": 1.0}}
        files = {(command, tag): self._data_files(tmp_path, command, spec, objective,
                                                   f"{command}-{tag}")
                 for command in ("strategy", "simulate") for tag, spec in kernels.items()}
        for command in ("strategy", "simulate"):
            assert files[command, "tiny"].keys() == files[command, "flat"].keys()
        got, want = (np.loadtxt(io.BytesIO(files["strategy", tag]["strategy.csv"]),
                                delimiter=",", skiprows=1) for tag in kernels)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kappa", [0.3, 1.0])
    @pytest.mark.parametrize("command", ["strategy", "simulate"])
    def test_alpha_far_below_one_runs(self, tmp_path, command, kappa):
        # alpha = 1e-20 ended in an IndexError traceback at kappa = 0.3 and in
        # exit 3 ("failed to converge") at kappa = 1, where the series converges
        payload = base_config(objective={"variant": "const_mv", "gamma": 0.5, "horizon": 1.0})
        payload["market"].update(kappa=kappa, kernel={"variant": "fractional", "alpha": 1e-20})
        payload["grid"] = {"steps_per_year": 100}
        payload["sim"] = {"n_paths": 40, "seed": 11}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


class TestParser:
    def test_built_once(self):
        assert cli.make_parser() is cli.make_parser()


class TestGridBudget:
    """A grid over cli.MAX_GRID_STEPS cells exits 2 before its nodes are allocated."""

    @pytest.fixture(autouse=True)
    def no_nodes_are_allocated(self, monkeypatch):
        # if the check let the grid through, fail at once instead of
        # allocating hundreds of millions of nodes
        def refused(grid):
            pytest.fail(f"nodes of {grid} allocated")

        monkeypatch.setattr(cli.TimeGrid, "nodes", refused)

    @pytest.mark.parametrize("command", ["strategy", "crossover", "hedge-curve", "simulate"])
    def test_huge_horizon_exits_2_naming_the_fields(self, tmp_path, capsys, command):
        # "horizon": 1e6 is 2.5e8 steps; strategy and crossover were killed
        payload = base_config(hurst_values=[0.1, 0.5])
        payload["objective"]["horizon"] = 1e6
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        for name in ("grid.steps_per_year", "objective.horizon", "250000000 steps",
                     str(cli.MAX_GRID_STEPS)):
            assert name in err
        assert not (tmp_path / "o").exists()

    def test_the_rounded_count_is_checked(self):
        # 1000 x 1000.0004 rounds to the budget, which the grid holds; it was
        # refused as "1000 x 1000 = 1e+06 steps exceeds the budget"
        cfg = load_config(None)
        cfg["grid"]["steps_per_year"] = 1000
        assert build_grid(cfg, 1000.0004).n_steps == cli.MAX_GRID_STEPS
        with pytest.raises(cli.ConfigError, match="1000 x 1000.0006 rounds to 1000001 steps"):
            build_grid(cfg, 1000.0006)

    def test_a_count_past_the_float_range_exits_2(self, tmp_path, capsys):
        # round() of the infinite product raises OverflowError, which exits 3
        payload = base_config()
        payload["grid"]["steps_per_year"] = 10**300
        payload["objective"]["horizon"] = 1e10
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "rounds to inf steps" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_steps_per_year_flag_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())  # horizon 3
        steps = str(cli.MAX_GRID_STEPS // 3 + 1)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--steps-per-year", steps]) == 2
        assert "grid.steps_per_year" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestNumericErrors:
    def test_float_overflow_exits_3_before_writing(self, tmp_path, capsys):
        # numpy only warned, and the run went on with inf and NaN until a
        # later check failed
        payload = base_config()
        payload["market"].update(theta=5e16, kernel={"variant": "exponential", "c": 0.7,
                                                     "beta": 1.5})
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numeric error: overflow" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_positive_kernel_weight_exits_2_naming_it(self, tmp_path, capsys):
        # a negative kernel weight made kappa K * V2 grow like exp(232 t): the
        # run exited 0 with V2 up to 2.6e286, or 3 where the solve left the
        # floats, depending on the grid
        payload = base_config()
        payload["market"].update(kappa=1.0, sigma=1.0, rho=-1.0, theta=0.999,
                                 kernel={"variant": "fractional", "c": -20.0, "hurst": 0.05})
        cfg = write_config(tmp_path, payload)
        assert main(["strategy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: market.kernel.c must be > 0 for the fractional kernel, got -20.0\n")
        assert not (tmp_path / "o").exists()

    def test_unbinnable_terminal_wealth_exits_3_naming_it(self, tmp_path, capsys):
        # every path ends at the same value near 5e300, a range numpy cannot
        # split into 50 bins
        cfg = write_config(tmp_path, {"market": {"phi": 1e300}, "sim": {"n_paths": 50},
                                      "grid": {"steps_per_year": 25}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "terminal wealth" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestWriteErrors:
    """An OSError while writing an output file exits 3 with one line naming it."""

    def assert_io_error(self, capsys, path):
        err = capsys.readouterr().err
        assert err == f"io error: {path}: {os.strerror(errno.ENOSPC)}\n"

    def test_strategy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        with disk_full_at_part(0):
            assert main(["strategy", "--config", cfg, "--out", str(out)]) == 3
        self.assert_io_error(capsys, out / "strategy.csv.part")

    def test_simulate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sim": {"n_paths": 20, "write_paths": False}})
        out = tmp_path / "o"
        with disk_full_at_part(0):
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--steps-per-year", "25"]) == 3
        self.assert_io_error(capsys, out / "terminal_stats.json.part")

    def test_simulate_streamed_paths(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sim": {"n_paths": 20, "write_paths": True}})
        out = tmp_path / "o"
        with disk_full_at_part(0):
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--steps-per-year", "25"]) == 3
        self.assert_io_error(capsys, out / "paths.csv.part")
        assert not out.exists()


class TestAllOrNothing:
    """A run commits all its data files and the manifest, or leaves the
    output directory as it was, whichever part fails to be written."""

    NONEXP = {"variant": "nonexp_log", "horizon": 1.0,
              "discount": {"variant": "hyperbolic", "a": 0.5, "b": 0.8}}

    def config(self, tmp_path, command, steps_per_year):
        payload = base_config(grid={"steps_per_year": steps_per_year},
                              sim={"n_factors": 8, "n_paths": 20, "write_paths": True})
        payload["objective"]["horizon"] = 1.0
        if command == "crossover":
            payload["hurst_values"] = [0.1, 0.5]
        if command == "nonexp":
            payload["objective"] = self.NONEXP
        return write_config(tmp_path, payload, f"{command}-{steps_per_year}.json")

    @staticmethod
    def snapshot(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    @pytest.mark.parametrize("at", ["open", "write"])
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_a_failed_part_leaves_the_directory_as_it_was(self, tmp_path, capsys, command, at):
        out = tmp_path / "o"
        assert main([command, "--config", self.config(tmp_path, command, 12),
                     "--out", str(out)]) == 0
        before = self.snapshot(out)
        argv = [command, "--config", self.config(tmp_path, command, 13)]
        with disk_full_at_part() as opened:
            assert main([*argv, "--out", str(tmp_path / "probe")]) == 0
        parts = [name for name, _ in opened]
        assert parts[-1] == "manifest.json.part"
        assert len(parts) == len(before)  # each file of the first run is rewritten
        capsys.readouterr()
        for k, part in enumerate(parts):
            for target in (out, tmp_path / "fresh" / "sub"):
                with disk_full_at_part(k, at) as opened:
                    assert main([*argv, "--out", str(target)]) == 3
                assert capsys.readouterr().err == (
                    f"io error: {target / part}: {os.strerror(errno.ENOSPC)}\n")
                assert all(fh.closed for _, fh in opened)
            assert self.snapshot(out) == before
            assert not (tmp_path / "fresh").exists()


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


def _per_element_csv(cols):
    """CSV rendered one numpy scalar at a time, the reference for columns_to_csv."""
    lines = [",".join(cols)]
    arrays = list(cols.values())
    for i in range(len(arrays[0])):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    return "\n".join(lines) + "\n"


def _assert_same_doubles(csv_text, json_text):
    """Every CSV column parses to its JSON column bit for bit."""
    header, *rows = csv_text.splitlines()
    payload = json.loads(json_text)
    for j, name in enumerate(header.split(",")):
        from_csv = np.array([float(row.split(",")[j]) for row in rows])
        assert from_csv.tobytes() == np.array(payload[name], dtype=float).tobytes(), name


class TestCsvJsonAgreement:
    """strategy.csv and strategy.json are written from one text of the curve."""

    @pytest.mark.parametrize("objective", [
        {"variant": "const_mv", "gamma": 0.5, "horizon": 3.0},
        {"variant": "log_mv", "gamma": 0.5, "horizon": 3.0, "delta": 2.0},
        {"variant": "nonexp_log", "horizon": 3.0,
         "discount": {"variant": "hyperbolic", "a": 0.5, "b": 0.8}},
    ], ids=["const_mv", "log_mv", "nonexp"])
    def test_strategy_files_hold_the_same_doubles(self, tmp_path, objective):
        cfg = write_config(tmp_path, base_config(objective=objective))
        out = tmp_path / "o"
        assert main(["strategy", "--config", cfg, "--out", str(out)]) == 0
        _assert_same_doubles((out / "strategy.csv").read_text(),
                             (out / "strategy.json").read_text())

    def test_edge_values(self, grid750):
        n = grid750.n_steps + 1
        odd = np.linspace(-1.0, 1.0, n)
        odd[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        curve = StrategyCurve(grid750, np.ones(n), np.zeros(n),
                              {"V1": odd, "g0": np.full(n, 1e300)}, kind="edge")
        text = strategy_text(curve)
        csv_text, json_text = strategy_to_csv(text), strategy_to_json(text)
        _assert_same_doubles(csv_text, json_text)
        v1 = [row.split(",")[4] for row in csv_text.splitlines()[1:6]]
        assert v1 == ["nan", "inf", "-inf", "-0.0", "5e-324"]
        assert '"V1": [\n    NaN,\n    Infinity,\n    -Infinity,\n    -0.0,' in json_text


class TestCurveFileFormatting:
    """The curve files equal a per-element rendering of the library's arrays."""

    def _setup(self, cfg_path):
        cfg = load_config(cfg_path)
        objective = build_objective(cfg)
        return cfg, build_market(cfg), objective, build_grid(cfg, objective.horizon)

    @pytest.mark.parametrize("name", ["hedge_curves.json", "crossover.json",
                                      "simulation_comparison.json", "log_mv"])
    def test_strategy_files(self, tmp_path, name):
        if name == "log_mv":
            payload = base_config()
            payload["objective"] = {"variant": "log_mv", "gamma": 0.5, "horizon": 3.0,
                                    "delta": 2.0}
            cfg_path = write_config(tmp_path, payload)
        else:
            cfg_path = str(CONFIG_DIR / name)
        out = tmp_path / "o"
        assert main(["strategy", "--config", cfg_path, "--out", str(out),
                     "--format", "csv"]) == 0
        assert main(["strategy", "--config", cfg_path, "--out", str(out),
                     "--format", "json"]) == 0
        _, market, objective, grid = self._setup(cfg_path)
        curve = _strategy_for(market, objective, grid)
        cols = strategy_columns(curve)
        assert (out / "strategy.csv").read_text() == _per_element_csv(cols)
        payload = {k: list(map(float, v)) for k, v in cols.items()}
        payload["kind"] = curve.kind
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert (out / "strategy.json").read_text() == expected

    def test_hedge_curve_files(self, tmp_path):
        cfg_path = str(CONFIG_DIR / "hedge_curves.json")
        out = tmp_path / "o"
        assert main(["hedge-curve", "--config", cfg_path, "--out", str(out)]) == 0
        cfg, market, objective, grid = self._setup(cfg_path)
        for hurst in cfg["hurst_values"]:
            curve = _strategy_for(_with_hurst(market, hurst), objective, grid)
            cols = {"t": grid.nodes(), "myopic": curve.myopic, "hedge": curve.hedge,
                    "total": curve.total}
            text = (out / f"hedge_curve_H{hurst:g}.csv").read_text()
            assert text == _per_element_csv(cols)

    def test_nonexp_file(self, tmp_path):
        cfg_path = str(CONFIG_DIR / "nonexp_consumption.json")
        out = tmp_path / "o"
        assert main(["nonexp", "--config", cfg_path, "--out", str(out)]) == 0
        cfg, market, objective, grid = self._setup(cfg_path)
        curve = nonexp_log_strategy(
            _with_hurst(market, cfg["hurst_values"][0]), objective.discount, grid,
        )
        p_hat = curve.consumption
        # V1 is the library's, bit for bit; 1 / (1 / V1) was 1 ulp off in 43
        # of this config's 751 values
        v1 = nonexp_v1(objective.discount, grid)
        assert np.any(v1 != 1.0 / p_hat)
        cols = {"t": grid.nodes(), "consumption_rate": p_hat,
                "investment_coefficient": curve.total, "V1": v1}
        assert (out / "nonexp_strategy.csv").read_text() == _per_element_csv(cols)


class TestSimulateBlocks:
    """simulate runs in blocks of PATH_BLOCK paths; its files do not show it."""

    def _payload(self, n_paths, objective=None):
        payload = base_config()
        payload["objective"] = objective or {"variant": "log_mv", "gamma": 0.5,
                                             "horizon": 1.0, "delta": 2.0}
        payload["sim"] = {"scheme": "lifted", "n_factors": 8, "rate_spread": 1e4,
                          "n_paths": n_paths, "seed": 5, "write_paths": True}
        payload["grid"] = {"steps_per_year": 12}
        return payload

    NONEXP = {"variant": "nonexp_log", "horizon": 1.0,
              "discount": {"variant": "hyperbolic", "a": 0.5, "b": 0.8}}

    def test_paths_csv_matches_one_unblocked_call(self, tmp_path):
        self.assert_files_match_one_call(tmp_path)

    def test_nonexp_files_match_one_unblocked_call(self, tmp_path):
        self.assert_files_match_one_call(tmp_path, self.NONEXP)

    def test_the_removed_exact_kernel_scheme_exits_2(self, tmp_path, capsys):
        payload = self._payload(PATH_BLOCK + 3)
        payload["sim"]["scheme"] = "euler_convolution"
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown sim.scheme 'euler_convolution'\n")
        assert not out.exists()

    def assert_files_match_one_call(self, tmp_path, objective=None):
        n_paths = PATH_BLOCK + 3  # two blocks, the second ragged
        cfg_path = write_config(tmp_path, self._payload(n_paths, objective))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "paths.csv", "terminal_stats.json"]

        cfg = load_config(cfg_path)
        market, objective = build_market(cfg), build_objective(cfg)
        grid, scheme = build_grid(cfg, objective.horizon), build_sim(cfg)
        bundle = simulate_variance(market, scheme, grid, n_paths, cfg["sim"]["seed"])
        bundle = simulate_wealth(bundle, market, _strategy_for(market, objective, grid),
                                 objective, 1.0)
        assert (out / "paths.csv").read_text() == PATHS_CSV_HEADER + "".join(bundle_csv_rows(bundle))
        stats = terminal_stats(bundle.wealth[:, -1])
        payload = json.loads((out / "terminal_stats.json").read_text())
        assert payload["mean"] == stats.mean and payload["variance"] == stats.variance
        assert payload["histogram"]["counts"] == stats.histogram[1].tolist()

    @pytest.mark.parametrize("objective", [
        {"variant": "const_mv", "gamma": 0.5, "horizon": 1.0},
        {"variant": "log_mv", "gamma": 0.5, "horizon": 1.0, "delta": 2.0},
    ], ids=["const_mv", "log_mv_delta2"])
    def test_terminal_stats_do_not_depend_on_write_paths(self, tmp_path, objective):
        # without paths.csv the wealth march keeps two rows, not the paths
        payload = self._payload(PATH_BLOCK + 3, objective)
        stats = []
        for write_paths in (True, False):
            payload["sim"]["write_paths"] = write_paths
            cfg_path = write_config(tmp_path, payload, name=f"{write_paths}.json")
            out = tmp_path / f"o-{write_paths}"
            assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
            assert (out / "paths.csv").exists() == write_paths
            stats.append((out / "terminal_stats.json").read_bytes())
        assert stats[0] == stats[1]

    def test_no_call_exceeds_one_block(self, tmp_path, monkeypatch):
        seen = []
        original = cli.simulate_variance

        def spy(market, scheme, grid, paths, seed):
            seen.append(paths)
            return original(market, scheme, grid, paths, seed)

        monkeypatch.setattr(cli, "simulate_variance", spy)
        payload = self._payload(2 * PATH_BLOCK + 1)
        payload["sim"]["write_paths"] = False
        assert main(["simulate", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "o")]) == 0
        assert [len(r) for r in seen] == [PATH_BLOCK, PATH_BLOCK, 1]
        assert [i for r in seen for i in r] == list(range(2 * PATH_BLOCK + 1))

    def test_blocks_shrink_to_the_memory_budget(self, tmp_path, monkeypatch):
        # a grid on which PATH_BLOCK paths would exceed montecarlo.MAX_ELEMENTS
        # runs in smaller blocks, and its files do not show it
        cfg_path = write_config(tmp_path, self._payload(20))
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
        seen = []
        original = cli.simulate_variance

        def spy(market, scheme, grid, paths, seed):
            seen.append(paths)
            return original(market, scheme, grid, paths, seed)

        monkeypatch.setattr(cli, "simulate_variance", spy)
        # a lifted block writing paths.csv holds 4 arrays: 6 paths of 13 nodes
        assert montecarlo.block_arrays(True) == 4
        monkeypatch.setattr(montecarlo, "MAX_ELEMENTS", 4 * 13 * 6 + 4)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
        assert [len(r) for r in seen] == [6, 6, 6, 2]
        for name in ("paths.csv", "terminal_stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_run_leaves_no_partial_paths_file(self, tmp_path, monkeypatch, capsys):
        original = cli.simulate_wealth

        def fail_on_second_block(bundle, *args, **kwargs):
            if bundle.paths.start > 0:
                raise FloatingPointError("injected failure")
            return original(bundle, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_wealth", fail_on_second_block)
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, self._payload(PATH_BLOCK + 3))
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 3
        assert "injected failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("objective", [
        {"variant": "const_mv", "gamma": 0.5, "horizon": 3.0},
        {"variant": "log_mv", "gamma": 0.5, "horizon": 3.0, "delta": 1.0},
    ], ids=["const_mv", "log_mv_delta1"])
    def test_memory_is_bounded_by_the_block(self, tmp_path, objective):
        # 5000 paths x 750 lifted steps: whole-array simulation peaked at
        # about 143 MB under tracemalloc.  One block's arrays take about 6 MB
        # each, and without paths.csv a block holds two: dW1, and the
        # variance stored over dB, for a peak of 12.7 MB (0.9 MB more where
        # the run imports numpy.random).  A third array, dB apart from the
        # variance, peaked at 18.6 MB; full wealth paths, two for log-MV, at
        # 24.3 and 29.4 MB.
        import tracemalloc

        payload = self._payload(5000, objective=objective)
        payload["grid"] = {"steps_per_year": 250}
        payload["sim"]["n_factors"] = 20
        payload["sim"]["write_paths"] = False
        cfg_path = write_config(tmp_path, payload)
        tracemalloc.start()
        try:
            rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")])
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak_mb < 15.0


class TestExtremeMarkets:
    """Perfect correlation, near-zero roughness index and a start far above phi."""

    @staticmethod
    def _payload(rho, hurst, nu0_factor, objective="const_mv"):
        payload = base_config()
        payload["market"].update(rho=rho, nu0=nu0_factor * payload["market"]["phi"],
                                 kernel={"variant": "fractional", "c": 1.0, "hurst": hurst})
        payload["objective"] = {"variant": objective, "gamma": 0.5, "horizon": 1.0}
        payload["grid"] = {"steps_per_year": 100}
        payload["sim"] = {"n_paths": 200}
        return payload

    @pytest.mark.parametrize("objective", ["const_mv", "log_mv"])
    @pytest.mark.parametrize("nu0_factor", [1, 100])
    @pytest.mark.parametrize("hurst", [0.01, 0.1])
    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_strategy_and_simulate_write_finite_files(self, tmp_path, rho, hurst,
                                                      nu0_factor, objective):
        cfg = write_config(tmp_path, self._payload(rho, hurst, nu0_factor, objective))
        for command in ("strategy", "simulate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        _, data = read_csv(tmp_path / "strategy" / "strategy.csv")
        assert np.all(np.isfinite(data))
        payload = json.loads((tmp_path / "strategy" / "strategy.json").read_text())
        assert all(np.all(np.isfinite(v)) for k, v in payload.items() if k != "kind")
        stats = json.loads((tmp_path / "simulate" / "terminal_stats.json").read_text())
        assert np.all(np.isfinite([stats["mean"], stats["variance"],
                                   *stats["histogram"]["bin_edges"]]))

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    @pytest.mark.parametrize("nu0_factor", [1, 100])
    def test_truncation_reached_only_from_phi(self, tmp_path, rho, nu0_factor):
        cfg = load_config(write_config(tmp_path, self._payload(rho, 0.01, nu0_factor)))
        bundle = simulate_variance(build_market(cfg), build_sim(cfg), build_grid(cfg, 1.0),
                                   cfg["sim"]["n_paths"], cfg["sim"]["seed"])
        truncated = np.mean(bundle.variance[:, 1:] == 0.0)
        if nu0_factor == 1:
            assert truncated > 0.0
        else:
            assert truncated == 0.0


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

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_log_mv_delta_at_most_half_refused(self, tmp_path, capsys, delta):
        # delta = 0.1 overflowed in the wealth march (exit 3); at 0.5 the march
        # took 0 at nu = 0 for coefficients whose limits there are not 0
        objective = {"variant": "log_mv", "gamma": 0.5, "horizon": 1.0, "delta": delta}
        cfg = write_config(tmp_path, self._cfg(objective))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "objective.delta" in capsys.readouterr().err
        assert not out.exists()
        for command in ("strategy", "hedge-curve"):  # a curve needs only delta > 0
            assert main([command, "--config", cfg, "--out", str(out)]) == 0

    def test_log_mv_delta_just_above_half(self, tmp_path):
        objective = {"variant": "log_mv", "gamma": 0.5, "horizon": 1.0, "delta": 0.51}
        cfg = write_config(tmp_path, self._cfg(objective))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        stats = json.loads((out / "terminal_stats.json").read_text())
        assert np.all(np.isfinite([stats["mean"], stats["variance"],
                                   *stats["histogram"]["bin_edges"]]))

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
