import argparse
import json
import math
import sys
import threading
import time

import jsonschema
import pytest

import spectral_mask
from spectral_mask import bounds, cli, montecarlo, oracle, verify
from spectral_mask.cli import (
    CROSSOVER_HEADER,
    PSI2_HEADER,
    TAILS_HEADER,
    GridSpec,
    build_config,
    _tail_bound_cells,
    load_config,
)
from spectral_mask.model import ModelParams, Part
from spectral_mask.oracle import exact_tail_curve


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def exit_code(argv):
    """The exit status of the CLI on argv: what main returns, or the code
    of the SystemExit the argument parser raises on a usage error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def fresh_mc_results(monkeypatch):
    """Empty the CLI's Monte Carlo results cache, so the next command
    computes every Monte Carlo result instead of reading a kept one."""
    monkeypatch.setattr(cli, "_MC_RESULTS", oracle._ByteCache(cli.MC_RESULTS_BYTES))


def shipped_schema(name):
    ref = cli.importlib.resources.files("spectral_mask") / "schemas" / name
    return json.loads(ref.read_text())


class TestConfig:
    def test_defaults(self):
        cfg = build_config({})
        assert cfg.n_grid == tuple(range(3, 13))
        assert cfg.t_grid.points == 50

    def test_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(jsonschema.ValidationError):
            load_config(path)

    def test_rejects_bad_types(self, tmp_path):
        data = {"n_grid": ["three"], "mc": {"samples": -1}}
        path = write_config(tmp_path, data)
        with pytest.raises(jsonschema.ValidationError) as raised:
            load_config(path)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(data, shipped_schema("config.schema.json"))
        assert str(raised.value) == str(reference.value)

    @pytest.mark.parametrize("name", ["config.schema.json", "summary.schema.json"])
    def test_shipped_schema_is_valid(self, name):
        schema = shipped_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_grid_resolution(self):
        grid = GridSpec(spacing="sqrt-n-scaled", min=0.0, max=2.0, points=50)
        ts = grid.resolve(9)
        assert len(ts) == 50
        assert ts[0] == 0.0
        assert ts[1] == pytest.approx((1 / 50) * 2 * 3.0)
        assert ts[-1] == pytest.approx((49 / 50) * 2 * 3.0)
        linear = GridSpec(spacing="linear", values=(0.5, 1.5))
        assert list(linear.resolve(100)) == [0.5, 1.5]

    def test_iter_params_expands_all(self):
        cfg = build_config({"n_grid": [4], "l_grid": "all", "m_grid": [2, 99]})
        assert cfg.iter_params() == [ModelParams(4, l, 2) for l in (1, 2, 3)]


class TestMainEntry:
    def test_missing_config_file(self, capsys):
        assert cli.main(["verify", "--config", "/nonexistent/config.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, {"max_enum_n": 99})
        assert cli.main(["verify", "--config", path]) == 2

    def test_unknown_suite_flag(self, tmp_path, capsys):
        assert cli.main(["verify", "--suites", "nope", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--samples", "-5"],
            ["--seed", "-1"],
            ["--max-enum-n", "99"],
            ["--max-enum-n", "0"],
            ["--suites", "crossover,nope"],
            ["--suites", ","],
        ],
        ids=[
            "negative-samples", "negative-seed", "guard-above-cap", "guard-zero",
            "unknown-suite", "no-suite",
        ],
    )
    def test_bad_flag_rejected(self, tmp_path, capsys, flags):
        # Flags pass the same schema as the config file they override; the
        # deleted guard flag is refused by the parser before it.
        path = write_config(
            tmp_path, {"n_grid": [4], "l_grid": [1], "m_grid": [1], "suites": ["crossover"]}
        )
        out = tmp_path / "out"
        for command in ("verify", "tails", "psi2"):
            assert exit_code([command, "--config", path, "--out", str(out), *flags]) == 2
            assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_file(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "mc": {"samples": 7, "seed": 1, "confidence": 0.95},
                "suites": ["moments"],
                "output_dir": str(tmp_path / "elsewhere"),
            },
        )
        argv = [
            "verify", "--config", path, "--out", str(tmp_path), "--samples", "0",
            "--seed", "9", "--suites", "crossover,qfunction",
        ]
        assert cli.main(argv) == 0
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert config["mc"] == {"samples": 0, "seed": 9, "confidence": 0.95}
        assert config["suites"] == ["crossover", "qfunction"]
        assert config["output_dir"] == str(tmp_path)
        assert "max_enum_n" not in config

    def test_enum_guard_key_rejected(self, tmp_path, capsys):
        # The oracle's own limits decide what is exact: a config that still
        # sets the old N guard, at any value, is refused with nothing written.
        out = tmp_path / "out"
        for value in (24, 26, 6):
            path = write_config(tmp_path, {"n_grid": [4], "max_enum_n": value})
            for command in ("verify", "tails", "psi2"):
                assert cli.main([command, "--config", path, "--out", str(out)]) == 2
                assert "max_enum_n" in capsys.readouterr().err
        assert not out.exists()

    def test_mc_batch_rejected(self, tmp_path, capsys):
        # Every run draws one stream, so the schema has no batch size.
        path = write_config(tmp_path, {"mc": {"samples": 1_000, "batch": 500}})
        for command in ("verify", "tails", "psi2"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
            assert "batch" in capsys.readouterr().err

    def test_unknown_formula_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--formula", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_invalid_thread_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.THREADS_ENV_VAR, "zero")
        path = write_config(tmp_path, {"n_grid": [4], "l_grid": [1], "m_grid": [1]})
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 2

    def test_thread_cap_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV_VAR, "2")
        path = write_config(
            tmp_path,
            {"n_grid": [5], "l_grid": [1], "m_grid": [2], "mc": {"samples": 0}},
        )
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0


    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        # Repeated calls parse with one parser: none builds another, and
        # each prints and returns what the first call did.
        path = write_config(
            tmp_path,
            {"n_grid": [4, 8], "t_grid": {"spacing": "linear", "values": [0.5, 1.0]}},
        )
        calls = [
            ["scan", "--formula", "tail_bound_uv", "--config", path, "--out", str(tmp_path)],
            ["tails", "--config", path, "--out", str(tmp_path / "no"), "--samples", "-5"],
            ["scan", "--formula", "nope", "--out", str(tmp_path)],
        ]

        def run(argv):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = ("exit", exc.code)
            out = capsys.readouterr()
            return rc, out.out, out.err

        first = [run(argv) for argv in calls]
        assert [rc for rc, _, _ in first] == [0, 2, ("exit", 2)]
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        again = [run(argv) for _ in range(3) for argv in calls]
        assert built == []
        assert again == first * 3


class TestVerifyCommand:
    def test_small_verify_passes_and_validates(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "suites": ["crossover", "qfunction", "montecarlo"],
                "mc": {"samples": 50_000, "seed": 42},
                "output_dir": str(tmp_path),
            },
        )
        assert cli.main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "suite crossover: PASS" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, shipped_schema("summary.schema.json"))
        assert summary["all_passed"] is True
        assert summary["environment"]["rng_algorithm"] == "philox4x64-10"
        assert summary["environment"]["mc_algorithm"] == "prefix8-tie56-chunk-fold-class-v1"
        assert summary["environment"]["law_algorithm"] == "cyclotomic-keys-count-tails-v1"
        assert summary["environment"]["package_version"] == spectral_mask.__version__
        assert set(summary["suites"]) == {"crossover", "qfunction", "montecarlo"}

    def test_montecarlo_suite_draws_every_run(self, tmp_path, monkeypatch):
        # Its repeat-run and worker-count checks compare fresh draws: three
        # runs of one chunk each, in every verify of one process.
        draws = []
        real_draw = montecarlo._draw_unit

        def spy(N, columns, seed, unit):
            draws.append((N, unit))
            return real_draw(N, columns, seed, unit)

        monkeypatch.setattr(montecarlo, "_draw_unit", spy)
        path = write_config(
            tmp_path,
            {"suites": ["montecarlo"], "mc": {"samples": 4_000, "seed": 3}},
        )
        for runs in (1, 2):
            assert cli.main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
            assert draws == [(12, (0, 4_000))] * 3 * runs

    def test_verify_deterministic_output(self, tmp_path):
        path = write_config(
            tmp_path,
            {"suites": ["crossover"], "output_dir": str(tmp_path)},
        )
        assert cli.main(["verify", "--config", path]) == 0
        first = (tmp_path / "summary.json").read_bytes()
        assert cli.main(["verify", "--config", path]) == 0
        assert (tmp_path / "summary.json").read_bytes() == first

    def test_corrupted_bound_fails_suite(self, tmp_path, monkeypatch):
        # Deliberately corrupt one bound: the tails suite must exit 1.
        monkeypatch.setattr(bounds, "tail_bound_uv", lambda N, t: 0.0)
        path = write_config(
            tmp_path,
            {"suites": ["tails"], "output_dir": str(tmp_path)},
        )
        assert cli.main(["verify", "--config", path]) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is False
        assert summary["suites"]["tails"]["failed"] > 0

    def test_failure_messages_built_only_when_recorded(self, monkeypatch):
        # A zero modulus bound fails every modulus_centered check with a
        # positive exact tail; the real and imaginary checks still pass.
        monkeypatch.setattr(bounds, "tail_bound_mod", lambda N, t: 0.0)
        built = {True: 0, False: 0}
        check = verify.SuiteResult.check

        def counting(self, condition, message):
            def counted():
                built[bool(condition)] += 1
                return message()

            check(self, condition, counted)

        monkeypatch.setattr(verify.SuiteResult, "check", counting)
        result = verify.suite_tails()
        expected = []
        for params in verify.criterion_params():
            ts = verify.t_grid(params.N)
            exact = oracle.exact_tail_curve(params, Part.MODULUS_CENTERED, ts)
            for t, ex in zip(ts, exact):
                if ex > verify.DOMINATION_EPS:
                    expected.append(
                        f"exact tail {ex:.6g} exceeds bound {0.0:.6g} at t={t:.6g}, "
                        f"modulus_centered, {params}"
                    )
        assert result.failed == len(expected) > verify._FAILURE_CAP
        assert result.passed > 0
        assert result.failures == expected[: verify._FAILURE_CAP] + ["... further failures elided"]
        assert built == {True: 0, False: verify._FAILURE_CAP}


class TestTailsCommand:
    def test_small_grid_file(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "n_grid": [8],
                "l_grid": [1],
                "m_grid": [3],
                "parts": ["real"],
                "mc": {"samples": 20_000, "seed": 5},
            },
        )
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        csv_path = tmp_path / "tails_N8_l1_m3_real.csv"
        header, rows = read_csv(csv_path)
        assert header == TAILS_HEADER
        assert len(rows) == 50
        exact = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-15 for a, b in zip(exact, exact[1:]))
        for r in rows:
            assert float(r[1]) <= float(r[4]) + 1e-12  # exact <= thm23
            assert r[2] != "" and r[3] != ""  # mc columns filled
        assert rows[0][7] == ""  # q_form empty at t=0
        assert rows[1][7] != ""

    def test_over_guard_leaves_exact_empty(self, tmp_path):
        # Past N = 33 the int32 counts refuse every law at once.
        path = write_config(
            tmp_path,
            {
                "n_grid": [34],
                "l_grid": [7],
                "m_grid": [5],
                "parts": ["real"],
                "mc": {"samples": 10_000, "seed": 5},
            },
        )
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "tails_N34_l7_m5_real.csv")
        for r in rows:
            assert r[1] == ""  # exact empty, never approximated
            assert r[2] != ""  # mc filled

    def test_guard_override_flag(self, tmp_path, capsys):
        # The N guard and its override flag are gone: the flag, at any
        # value, is a usage error (exit 2) and nothing is written.
        path = write_config(
            tmp_path,
            {"n_grid": [8], "l_grid": [1], "m_grid": [3], "parts": ["real"], "mc": {"samples": 0}},
        )
        out = tmp_path / "out"
        for value in ("6", "24", "99", "0"):
            for command in ("verify", "tails", "psi2"):
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, "--config", path, "--out", str(out), "--max-enum-n", value])
                assert exc.value.code == 2
                assert "--max-enum-n" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_column_where_float_grouping_was_refused(self, tmp_path):
        # Distinct real outcomes at N = 23 lie 8.5e-8 apart; exact keys group them.
        path = write_config(
            tmp_path,
            {"n_grid": [23], "l_grid": [1], "m_grid": [3], "parts": ["real"], "mc": {"samples": 0}},
        )
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "tails_N23_l1_m3_real.csv")
        assert len(rows) == 50 and all(r[1] != "" for r in rows)
        # 354,293 outcomes, summed as 24 popcount terms of exact counts.
        assert abs(float(rows[0][1]) - 1.0) <= 4 * 2.0**-52

    def test_law_over_byte_budget_leaves_exact_empty(self, tmp_path, monkeypatch):
        # The complex sum at N = 17 passes 256 KiB of counts after 13 atoms,
        # so the modulus law of class (17, 1) is refused: built once for the
        # whole process, every point of tails and psi2 keeps its exact cells
        # empty, modulus_centered is centered by Monte Carlo, and both exit 0.
        builds = []
        real_build = oracle._build_law

        def counted(*key):
            builds.append(key)
            return real_build(*key)

        monkeypatch.setattr(oracle, "LAW_BYTES", 1 << 18)
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(1 << 18))
        monkeypatch.setattr(oracle, "_build_law", counted)
        fresh_mc_results(monkeypatch)
        path = write_config(
            tmp_path,
            {
                "n_grid": [17],
                "l_grid": [1, 2],
                "m_grid": [3, 4],
                "parts": ["modulus", "modulus_centered"],
                "mc": {"samples": 2_000, "seed": 5},
            },
        )
        for command in ("tails", "psi2"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        assert builds == [(17, 1, Part.MODULUS)]
        files = sorted(tmp_path.glob("tails_*.csv"))
        assert len(files) == 2 * 2 * 2
        for f in files:
            _, rows = read_csv(f)
            assert all(r[1] == "" and r[2] != "" for r in rows), f.name
        _, rows = read_csv(tmp_path / "psi2.csv")
        assert len(rows) == 8
        assert all(r[4] == "" and r[6] == "" and r[5] != "" for r in rows)

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        path = write_config(
            tmp_path,
            {
                "n_grid": [6],
                "l_grid": [1],
                "m_grid": [2],
                "parts": ["real", "modulus_centered"],
                "mc": {"samples": 5_000, "seed": 11},
            },
        )
        fresh_mc_results(monkeypatch)
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("tails_*.csv"))
        first = {f.name: f.read_bytes() for f in files}
        fresh_mc_results(monkeypatch)
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        assert {f.name: f.read_bytes() for f in sorted(tmp_path.glob('tails_*.csv'))} == first

    def test_degenerate_l_leaves_bounds_empty(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "n_grid": [8],
                "l_grid": [4],
                "m_grid": [3],
                "parts": ["real"],
                "mc": {"samples": 0},
            },
        )
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "tails_N8_l4_m3_real.csv")
        for r in rows:
            assert r[4] == "" and r[5] == "" and r[6] == "" and r[7] == ""
            assert r[1] != ""


class TestWorkerInvariance:
    def test_tails_and_psi2_bytes_independent_of_workers(self, tmp_path, monkeypatch):
        # N past the int32 counts: the centering pass and mc_psi2 both run,
        # over six 1000-row chunks, for two points at once.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 34 * 1_000)
        outputs = {}
        for workers in (1, 3):
            fresh_mc_results(monkeypatch)
            path = write_config(
                tmp_path,
                {
                    "n_grid": [34],
                    "l_grid": [1],
                    "m_grid": [2, 3],
                    "parts": ["real", "modulus_centered"],
                    "mc": {"samples": 6_000, "seed": 4},
                    "workers": workers,
                },
            )
            out = tmp_path / f"workers{workers}"
            for command in ("tails", "psi2"):
                argv = [command, "--config", path, "--out", str(out)]
                assert cli.main(argv) == 0
            outputs[workers] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        assert len(outputs[1]) == 5  # four tails files and psi2.csv
        assert outputs[1] == outputs[3]
        _, rows = read_csv(tmp_path / "workers1" / "tails_N34_l1_m2_modulus_centered.csv")
        assert all(r[1] == "" and r[2] != "" for r in rows)


    def test_shared_draws_bytes_independent_of_workers(self, tmp_path, monkeypatch):
        # Past the int32 counts at N = 256: three chunks, shared by six
        # points in the centering, tails and psi2 passes.
        outputs = {}
        for workers in (1, 3):
            fresh_mc_results(monkeypatch)
            path = write_config(
                tmp_path,
                {
                    "n_grid": [256],
                    "l_grid": [1, 5],
                    "m_grid": [8, 32, 128],
                    "parts": ["real", "modulus_centered"],
                    "mc": {"samples": 36_000, "seed": 6},
                    "workers": workers,
                },
            )
            out = tmp_path / f"workers{workers}"
            for command in ("tails", "psi2"):
                assert cli.main([command, "--config", path, "--out", str(out)]) == 0
            outputs[workers] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        assert len(outputs[1]) == 13  # twelve tails files and psi2.csv
        assert outputs[1] == outputs[3]


class TestClassCaches:
    def test_warm_caches_write_cold_bytes(self, tmp_path, monkeypatch):
        # Several l per frequency class at N = 10 and 12, l = 0 and N = 2l
        # among them, every real-valued part; Monte Carlo reads no cache and
        # is off.  One process
        # runs verify, tails, psi2 and verify again on shared caches; each l
        # then runs alone on fresh caches, and all l once more in reverse.
        ls = [1, 5, 7, 11, 2, 10, 3, 9, 4, 8, 6, 0]

        def fresh():
            monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(oracle.LAW_BYTES))
            monkeypatch.setattr(cli, "_TAIL_COLUMNS", oracle._ByteCache(cli.TAIL_COLUMNS_BYTES))

        def run(out, l_grid, psi2_rows):
            path = write_config(
                tmp_path,
                {
                    "n_grid": [10, 12],
                    "l_grid": l_grid,
                    "m_grid": [1, 3, 6, 12],
                    "parts": ["real", "imag", "modulus", "modulus_centered"],
                    "mc": {"samples": 0},
                },
            )
            for command in ("tails", "psi2"):
                assert cli.main([command, "--config", path, "--out", str(out)]) == 0
            psi2_rows += (out / "psi2.csv").read_text().splitlines()[1:]

        def tails_files(out):
            return {f.name: f.read_bytes() for f in sorted(out.glob("tails_*.csv"))}

        (tmp_path / "verify").mkdir()
        verify = write_config(tmp_path / "verify", {"suites": ["tails", "psi2"]})
        summaries = []

        def run_verify():
            assert cli.main(["verify", "--config", verify, "--out", str(tmp_path / "verify")]) == 0
            summaries.append((tmp_path / "verify" / "summary.json").read_bytes())

        fresh()
        run_verify()
        warm_rows: list[str] = []
        run(tmp_path / "warm", ls, warm_rows)
        run_verify()
        cold_rows: list[str] = []
        for l in ls:
            fresh()
            run(tmp_path / "cold", [l], cold_rows)
        fresh()
        run_verify()
        reversed_rows: list[str] = []
        run(tmp_path / "reversed", ls[::-1], reversed_rows)

        warm = tails_files(tmp_path / "warm")
        assert len(warm) == (10 * 3 + 12 * 4) * 4  # N = 10: ten l and three m
        assert tails_files(tmp_path / "cold") == warm
        assert tails_files(tmp_path / "reversed") == warm
        assert sorted(cold_rows) == sorted(reversed_rows) == sorted(warm_rows)
        assert len(warm_rows) == len(warm)
        assert summaries[0] == summaries[1] == summaries[2]

    def test_tails_builds_each_law_once(self, tmp_path, monkeypatch):
        # Several l of the classes gcd = 1 and 2 at N = 12, three workers,
        # Monte Carlo on: the exact cells and centers read laws built on the
        # calling thread, each law once.  The modulus is built straight from
        # the convolution, not from a complex law.
        builds = []
        threads = set()
        real_build = oracle._build_law

        def spy(*key):
            builds.append(key)
            threads.add(threading.get_ident())
            return real_build(*key)

        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(oracle.LAW_BYTES))
        monkeypatch.setattr(oracle, "_build_law", spy)
        fresh_mc_results(monkeypatch)
        path = write_config(
            tmp_path,
            {
                "n_grid": [12],
                "l_grid": [1, 5, 7, 11, 2, 10],
                "m_grid": [3, 4],
                "parts": ["real", "modulus_centered"],
                "mc": {"samples": 2_000, "seed": 3},
                "workers": 3,
            },
        )
        assert cli.main(["tails", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("tails_*.csv"))) == 6 * 2 * 2
        want = {(12, g, part) for g in (1, 2) for part in (Part.REAL, Part.MODULUS)}
        assert len(builds) == len(set(builds)) and set(builds) == want
        assert threads == {threading.get_ident()}


class TestMcResults:
    """Monte Carlo results kept across commands, one per class point, write
    the bytes that cold runs write."""

    # N = 8, exact, and N = 36, past the int32 counts, where modulus_centered
    # adds the centering pass; l = 1, 3, 5, 7 share a class at N = 8, and
    # l = 1, 5, 7 at N = 36; l = 0 and N = 2l among them.
    CONFIG = {
        "n_grid": [8, 36],
        "l_grid": [0, 1, 2, 3, 4, 5, 6, 7],
        "m_grid": [2, 5],
        "parts": ["real", "imag", "modulus_centered"],
        "mc": {"samples": 3_000, "seed": 9},
    }

    def run(self, tmp_path, command, out, l_grid=None):
        data = dict(self.CONFIG, l_grid=l_grid or self.CONFIG["l_grid"])
        path = write_config(tmp_path, data)
        argv = [command, "--config", path, "--out", str(out)]
        assert cli.main(argv) == 0

    def test_warm_runs_write_cold_bytes(self, tmp_path, monkeypatch):
        draws = []
        real_draw = montecarlo._draw_unit

        def spy(N, columns, seed, unit):
            draws.append(N)
            return real_draw(N, columns, seed, unit)

        monkeypatch.setattr(montecarlo, "_draw_unit", spy)
        # Warm: tails, psi2 and tails again on one cache.
        fresh_mc_results(monkeypatch)
        self.run(tmp_path, "tails", tmp_path / "warm")
        self.run(tmp_path, "psi2", tmp_path / "warm")
        drawn = len(draws)
        self.run(tmp_path, "tails", tmp_path / "again")
        assert len(draws) == drawn > 0  # the second tails reads every result
        # Cold: each l alone, each command on an empty cache.
        psi2_rows = []
        for l in self.CONFIG["l_grid"]:
            for command in ("tails", "psi2"):
                fresh_mc_results(monkeypatch)
                self.run(tmp_path, command, tmp_path / "cold", [l])
            psi2_rows += (tmp_path / "cold" / "psi2.csv").read_text().splitlines()[1:]

        def tails_files(out):
            return {f.name: f.read_bytes() for f in sorted(out.glob("tails_*.csv"))}

        warm = tails_files(tmp_path / "warm")
        assert len(warm) == (8 + 8) * 2 * 3
        assert tails_files(tmp_path / "cold") == warm == tails_files(tmp_path / "again")
        warm_rows = (tmp_path / "warm" / "psi2.csv").read_text().splitlines()[1:]
        assert sorted(psi2_rows) == sorted(warm_rows)
        assert len(warm_rows) == 16 * 2 * 3

    def test_results_bounded_in_bytes(self, tmp_path, monkeypatch):
        fresh_mc_results(monkeypatch)
        self.run(tmp_path, "tails", tmp_path / "kept")
        self.run(tmp_path, "psi2", tmp_path / "kept")
        cache = cli._MC_RESULTS
        entries = list(cache._entries.items())
        # Per m: centering at N = 36, tails, and psi2 for three parts, one
        # entry per class point (four at N = 8, six at N = 36).
        assert len(entries) == 2 * (6 + (4 + 6) + (4 + 6) * 3)
        assert cache.nbytes == sum(entry.nbytes for _, entry in entries) <= cli.MC_RESULTS_BYTES
        for key, entry in entries:
            kept = entry.value
            assert entry.nbytes == kept.nbytes == cli._held_bytes(key, kept.value)
            if isinstance(kept.value, montecarlo.Accumulator):
                hits = kept.value.threshold_hits
                floor = sys.getsizeof(hits) + sum(map(sys.getsizeof, hits)) + sys.getsizeof(key)
                assert kept.nbytes > floor
        # A bound too small for any result keeps none and writes the same
        # bytes.
        monkeypatch.setattr(cli, "_MC_RESULTS", oracle._ByteCache(1))
        self.run(tmp_path, "tails", tmp_path / "unkept")
        self.run(tmp_path, "psi2", tmp_path / "unkept")
        assert cli._MC_RESULTS.nbytes == 0 and not cli._MC_RESULTS._entries
        for name in ("tails_N36_l7_m5_modulus_centered.csv", "psi2.csv"):
            unkept, kept = (tmp_path / out / name for out in ("unkept", "kept"))
            assert unkept.read_bytes() == kept.read_bytes()


class TestRegistration:
    def test_tails_passes_register_only_what_they_read(self, tmp_path, monkeypatch):
        # N past the int32 counts: the centering pass reads the mean modulus,
        # the main pass reads tail hits only.
        runs = []
        real_mc_run_many = cli.mc_run_many

        def spy(run_list, cfg, **kwargs):
            accs = real_mc_run_many(run_list, cfg, **kwargs)
            for (_, queries), acc in zip(run_list, accs):
                runs.append((queries.parts, set(acc.power_sums)))
            return accs

        monkeypatch.setattr(cli, "mc_run_many", spy)
        fresh_mc_results(monkeypatch)
        path = write_config(
            tmp_path,
            {
                "n_grid": [34],
                "l_grid": [1],
                "m_grid": [2],
                "parts": ["real", "modulus_centered"],
                "mc": {"samples": 2_000, "seed": 3},
            },
        )
        argv = ["tails", "--config", path, "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert runs == [
            ((Part.MODULUS,), {(Part.MODULUS, 1), (Part.MODULUS, 2)}),
            ((Part.REAL, Part.MODULUS_CENTERED), set()),
        ]


class TestCrossoverCommand:
    def test_named_rows_present(self, tmp_path):
        path = write_config(tmp_path, {"n_grid": [12], "m_grid": [3]})
        assert cli.main(["crossover", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "crossover.csv")
        assert header == CROSSOVER_HEADER
        table = {(int(r[0]), int(r[1])): r for r in rows}
        assert table[(2304, 48)][4] == "second_for_all_t"
        assert table[(470, 10)][4] == "first_beyond_t_star"
        assert table[(2256, 48)][4] == "first_beyond_t_star"
        assert table[(480, 10)][4] == "second_for_all_t"
        assert table[(960, 20)][4] == "second_for_all_t"
        assert table[(12, 3)][4] == "first_beyond_t_star"
        assert float(table[(470, 10)][5]) > 0

    def test_hypothesis_violations_get_reason(self, tmp_path):
        path = write_config(tmp_path, {"n_grid": [8], "m_grid": [4]})
        assert cli.main(["crossover", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "crossover.csv")
        row = next(r for r in rows if r[0] == "8" and r[1] == "4")
        assert row[4] == "" and row[6] != ""


class TestPsi2Command:
    def test_table(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "n_grid": [2],
                "l_grid": [1],
                "m_grid": [1],
                "parts": ["real"],
                "mc": {"samples": 100_000, "seed": 17},
            },
        )
        assert cli.main(["psi2", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "psi2.csv")
        assert header == PSI2_HEADER
        row = rows[0]
        target = 1.0 / math.sqrt(math.log(3.0))
        assert float(row[4]) == pytest.approx(target, abs=1e-9)
        assert float(row[5]) == pytest.approx(target, abs=0.05)
        assert float(row[4]) <= float(row[7]) <= float(row[8]) + 1e-12
        assert float(row[6]) <= 1.0  # moment-sup norm under the sup norm

    def test_over_guard_exact_empty(self, tmp_path):
        # Past N = 33 the int32 counts refuse every law at once.
        path = write_config(
            tmp_path,
            {
                "n_grid": [34],
                "l_grid": [7],
                "m_grid": [5],
                "parts": ["real"],
                "mc": {"samples": 5_000, "seed": 3},
            },
        )
        assert cli.main(["psi2", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "psi2.csv")
        assert rows[0][4] == "" and rows[0][6] == ""
        assert rows[0][5] != ""

    def test_sample_bytes_refused(self, tmp_path, capsys):
        # 1e9 samples would hold 24 GB: refused at once, nothing written.
        path = write_config(
            tmp_path, {"n_grid": [8], "parts": ["real", "modulus_centered"]}
        )
        out = tmp_path / "out"
        start = time.perf_counter()
        code = cli.main(
            ["psi2", "--config", path, "--out", str(out), "--samples", "1000000000"]
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert not (out / "psi2.csv").exists()
        assert "budget" in capsys.readouterr().err


class TestScanCommand:
    def test_scan_uv(self, tmp_path):
        path = write_config(
            tmp_path,
            {"n_grid": [4, 8], "t_grid": {"spacing": "linear", "values": [0.5, 1.0]}},
        )
        assert cli.main(
            ["scan", "--formula", "tail_bound_uv", "--config", path, "--out", str(tmp_path)]
        ) == 0
        header, rows = read_csv(tmp_path / "scan_tail_bound_uv.csv")
        assert header == ["N", "t", "value", "reason"]
        assert len(rows) == 4
        assert float(rows[0][2]) == pytest.approx(bounds.tail_bound_uv(4, 0.5))

    def test_scan_entropy_reports_violations(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "n_grid": [6],
                "m_grid": [2, 3],
                "t_grid": {"spacing": "linear", "values": [1.0]},
            },
        )
        assert cli.main(
            ["scan", "--formula", "tail_bound_entropy", "--config", path, "--out", str(tmp_path)]
        ) == 0
        _, rows = read_csv(tmp_path / "scan_tail_bound_entropy.csv")
        ok_row = next(r for r in rows if r[1] == "2")
        bad_row = next(r for r in rows if r[1] == "3")
        assert ok_row[3] != "" and ok_row[4] == ""
        assert bad_row[3] == "" and bad_row[4] != ""


class TestBoundReport:
    def test_applicable_bounds_and_domination(self):
        params = ModelParams(8, 1, 3)
        cells = _tail_bound_cells(params, Part.REAL, 1.0)  # thm23, eq9, eq10, q_form
        assert None not in cells
        assert all(exact_tail_curve(params, Part.REAL, [1.0])[0] <= c for c in cells)
        assert _tail_bound_cells(params, Part.IMAG, 0.0)[0] == 2.0
        assert _tail_bound_cells(params, Part.IMAG, 0.0)[3] is None  # q_form needs t > 0
        assert _tail_bound_cells(params, Part.MODULUS_CENTERED, 1.0) == [
            bounds.tail_bound_mod(8, 1.0), None, None, None
        ]
        assert _tail_bound_cells(params, Part.MODULUS, 1.0) == [None] * 4
        assert _tail_bound_cells(ModelParams(8, 4, 3), Part.REAL, 1.0) == [None] * 4
        assert _tail_bound_cells(ModelParams(8, 1, 4), Part.REAL, 1.0)[1:3] == [None, None]
