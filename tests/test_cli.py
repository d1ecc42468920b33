import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gameclust import Dataset, Ds1Config, cli, drivers, generate_ds1, load_csv, save_csv
from gameclust.cli import execute, main, parse_invocation


def null_wall_times(obj):
    """Recursively zero every wall-time field so byte comparisons ignore timing."""
    if isinstance(obj, dict):
        return {
            key: (0.0 if "wall_time" in key else null_wall_times(value))
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [null_wall_times(v) for v in obj]
    return obj


@pytest.fixture(autouse=True)
def no_output_dir(monkeypatch):
    """Results go where each test says, whatever $GAMECLUST_OUTPUT_DIR the caller's shell sets."""
    monkeypatch.delenv("GAMECLUST_OUTPUT_DIR", raising=False)


@pytest.fixture
def ran(monkeypatch):
    """The k of every run the CLI starts, in order; the runs still happen."""
    ks = []
    run_algorithm = drivers.run_algorithm

    def recording(dataset, config):
        ks.append(config.k)
        return run_algorithm(dataset, config)

    monkeypatch.setattr(drivers, "run_algorithm", recording)
    return ks


class TestParseInvocation:
    def test_full_bench_matrix(self):
        inv = parse_invocation(
            "bench --ds1 --k 4..8 --algo gtkmeans,pkgame --ns 0,2,3 --seed 7..56 --out r.json".split()
        )
        assert inv.subcommand == "bench"
        assert inv.ds1 is True
        assert inv.k == (4, 5, 6, 7, 8)
        assert inv.algo == ("gtkmeans", "pkgame")
        assert inv.ns == (None, 2, 3)
        assert inv.seed == tuple(range(7, 57))
        assert inv.out == "r.json"

    def test_single_run(self):
        # one value per flag: a grid of one variant and one seed
        inv = parse_invocation("bench --data gtd.csv --k 5 --algo pkgame --ns 3".split())
        assert inv.subcommand == "bench"
        assert inv.data == "gtd.csv"
        assert inv.ds1 is False
        assert inv.k == (5,)
        assert inv.algo == ("pkgame",)
        assert inv.ns == (3,)
        assert len(inv.seed) == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_invocation("bench --ds1 --k 4 --bogus".split())
        assert err.value.code == 2

    def test_unparsable_number_rejected(self):
        with pytest.raises(SystemExit):
            parse_invocation("bench --ds1 --k four".split())

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("bench --ds1 --k 4 --seed 3..x", "--seed: cannot parse range '3..x'"),
            ("bench --ds1 --k 4 --seed 5..3", "--seed: empty range '5..3'"),
            ("bench --ds1 --k 4 --ns -1", "--ns: values must be >= 0, got -1"),
            # sized before it is expanded, so this returns at once
            ("bench --ds1 --k 4 --seed 0..1000000000000", "--seed: more than 100,000 values, at '0..1000000000000'"),
            ("bench --ds1 --k 4 --seed 0..59999,60000..100000", "--seed: more than 100,000 values, at '60000..100000'"),
        ],
        ids=["seed-range-unparsable", "seed-range-empty", "ns-negative", "seed-range-too-long", "seed-list-too-long"],
    )
    def test_bad_value_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            parse_invocation(argv.split())
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_needs_exactly_one_source(self, capsys):
        for argv, message in (
            ("bench --k 4", "one of the arguments --data --ds1 is required"),
            ("bench --ds1 --data x.csv --k 4", "argument --data: not allowed with argument --ds1"),
        ):
            with pytest.raises(SystemExit) as err:
                parse_invocation(argv.split())
            assert err.value.code == 2
            assert message in capsys.readouterr().err

    def test_explicit_seed_list(self):
        inv = parse_invocation("bench --ds1 --k 4 --seed 5,9,13".split())
        assert inv.seed == (5, 9, 13)

    def test_seed_range_at_the_value_bound(self):
        inv = parse_invocation(f"bench --ds1 --k 4 --seed 1..{cli.MAX_FLAG_VALUES}".split())
        assert inv.seed == tuple(range(1, cli.MAX_FLAG_VALUES + 1))

    def test_reps_is_not_an_option(self, tmp_path):
        # nor --ds1-seed: --ds1 is the pinned instance, and another comes from gen --seed N and --data;
        # nor the run subcommand: bench with one value per flag is a single run
        out = tmp_path / "r.json"
        for argv in (
            ["bench", "--ds1", "--k", "4", "--reps", "2"],
            ["bench", "--ds1", "--k", "4", "--ds1-seed", "3"],
            ["run", "--ds1", "--k", "4"],
        ):
            with pytest.raises(SystemExit) as err:
                main([*argv, "--out", str(out)])
            assert err.value.code == 2
            assert not out.exists()

    def test_defaults_pass_through_the_flag_types(self):
        inv = parse_invocation("bench --ds1 --k 4".split())
        assert (inv.algo, inv.ns, inv.seed) == (("gtkmeans", "pkgame"), (None,), (0,))

    def test_repeated_seeds_keep_their_first_occurrence(self):
        inv = parse_invocation("bench --ds1 --k 4 --seed 3,1..4,2".split())
        assert inv.seed == (3, 1, 2, 4)

    def test_repeated_algorithms_keep_their_first_occurrence(self):
        inv = parse_invocation("bench --ds1 --k 4 --algo pkgame,gtkmeans,pkgame,gtkmeans".split())
        assert inv.algo == ("pkgame", "gtkmeans")

    def test_gen_invocation(self):
        # every gen flag reaches Ds1Config
        inv = parse_invocation("gen --out d.csv --seed 3 --n 60 --dim 3 --blobs 4 --std 1.5".split())
        assert inv.subcommand == "gen"
        assert inv.gen == Ds1Config(n_points=60, dim=3, blob_count=4, std_dev=1.5, seed=3)

    def test_gen_defaults_are_the_ds1_defaults(self):
        assert parse_invocation(["gen", "--out", "x.csv"]).gen == Ds1Config()


class TestExecute:
    def test_gen_then_load_round_trip(self, tmp_path):
        out = tmp_path / "blobs.csv"
        status = main(["gen", "--out", str(out), "--seed", "3", "--n", "40", "--blobs", "4"])
        assert status == 0
        ds = load_csv(str(out))
        assert ds.n == 40
        assert ds.dim == 2
        assert np.array_equal(ds.points, generate_ds1(Ds1Config(seed=3, n_points=40, blob_count=4)).points)

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        for data in (str(tmp_path / "absent.csv"), ""):  # an empty path is a file that cannot be read
            status = main(["bench", "--data", data, "--k", "4", "--out", str(tmp_path / "o.json")])
            assert status == 2
            assert not (tmp_path / "o.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: cannot read") for line in err)

    @pytest.mark.parametrize(
        "content",
        [b"1.0,2.0\n\xe9,3\n", b"1,2\n" + b"9" * 200_000 + b",3\n"],
        ids=["not-utf8", "oversized-field"],
    )
    def test_unreadable_csv_exits_2_without_output(self, tmp_path, capsys, content):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        out = tmp_path / "o.json"
        status = main(["bench", "--data", str(data), "--k", "2", "--out", str(out)])
        assert status == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_k_exceeding_n_exits_2(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        status = main(["bench", "--data", str(data), "--k", "4", "--out", str(tmp_path / "o.json")])
        assert status == 2

    def test_k_above_n_in_a_bench_grid_exits_2_before_any_run(self, tmp_path, capsys, ran):
        out = tmp_path / "k.json"
        argv = ["bench", "--ds1", "--k", "4,200", "--seed", "0..1", "--algo", "gtkmeans", "--ns", "0", "--out", str(out)]
        assert main(argv) == 2
        assert ran == []
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "k <= n" in err[0]

    @pytest.mark.parametrize(
        "argv, message",
        [("--k 0", "k must be >= 1, got 0"), ("--k 4 --algo turbo", "algorithm must be one of")],
        ids=["k-zero", "unknown-algorithm"],
    )
    def test_bad_k_or_algorithm_exits_2_before_any_run(self, tmp_path, capsys, ran, argv, message):
        out = tmp_path / "r.json"
        assert main(["bench", "--ds1", *argv.split(), "--out", str(out)]) == 2
        assert ran == []
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    def test_missing_output_directory_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, ran):
        missing, existing = tmp_path / "absent", tmp_path / "present"
        existing.mkdir()
        for out in (str(missing / "r.json"), str(existing), ""):  # also a directory, and no name at all
            assert main(["bench", "--ds1", "--k", "4", "--out", out]) == 2
        monkeypatch.setenv("GAMECLUST_OUTPUT_DIR", str(missing))
        assert main(["bench", "--ds1", "--k", "4"]) == 2
        assert ran == []
        assert not missing.exists()
        assert list(existing.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("error:") for line in err)
        assert all(name in line for name, line in zip(("absent", "present", "''", "absent"), err))

    def test_run_emits_single_row_table(self, tmp_path):
        out = tmp_path / "r.json"
        status = main(
            ["bench", "--ds1", "--k", "4", "--algo", "pkgame", "--ns", "2", "--seed", "11", "--out", str(out)]
        )
        assert status == 0
        table = json.loads(out.read_text())
        assert table["schema_version"] == 2
        assert len(table["rows"]) == 1
        assert len(table["raw"]) == 1
        row = table["rows"][0]
        assert (row["algorithm"], row["ns"], row["k"]) == ("pkgame", 2, 4)
        assert table["raw"][0]["seed"] == 11

    def test_reps_one_raw_equals_means(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["bench", "--ds1", "--k", "4", "--algo", "gtkmeans", "--seed", "2", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        row, raw = table["rows"][0], table["raw"][0]
        assert row["mean_sse_improvement_pct"] == raw["sse_improvement_pct"]
        assert row["mean_l_improvement_pct"] == raw["l_improvement_pct"]
        assert row["mean_strategies_per_player"] == raw["avg_strategies_per_player"]
        assert row["mean_payoff_entries"] == raw["total_payoff_entries"]

    def test_means_recomputable_from_raw(self, tmp_path):
        out = tmp_path / "b.json"
        status = main(
            ["bench", "--ds1", "--k", "4,5", "--algo", "gtkmeans,pkgame", "--ns", "0,3",
             "--seed", "1..3", "--out", str(out)]
        )
        assert status == 0
        table = json.loads(out.read_text())
        assert len(table["rows"]) == 2 * 2 * 2
        assert len(table["raw"]) == 2 * 2 * 2 * 3
        pairs = {
            "mean_wall_time_s": "wall_time_s",
            "mean_strategies_per_player": "avg_strategies_per_player",
            "mean_payoff_entries": "total_payoff_entries",
            "mean_sse_improvement_pct": "sse_improvement_pct",
            "mean_l_improvement_pct": "l_improvement_pct",
        }
        for row in table["rows"]:
            key = (row["algorithm"], row["ns"], row["k"])
            records = [r for r in table["raw"] if (r["algorithm"], r["ns"], r["k"]) == key]
            assert len(records) == 3
            for mean_field, raw_field in pairs.items():
                values = [r[raw_field] for r in records if r[raw_field] is not None]
                expected = sum(values) / len(values)
                assert row[mean_field] == pytest.approx(expected, rel=1e-9), mean_field

    def test_fairness_columns_present(self, tmp_path):
        out = tmp_path / "b.json"
        main(["bench", "--ds1", "--k", "5", "--algo", "gtkmeans", "--seed", "0..1", "--out", str(out)])
        row = json.loads(out.read_text())["rows"][0]
        assert 0.0 <= row["jain_index"] <= 1.0
        assert row["geometric_mean_index"] >= 0.0

    def test_csv_projection_of_means(self, tmp_path):
        out = tmp_path / "b.csv"
        status = main(
            ["bench", "--ds1", "--k", "4", "--algo", "gtkmeans", "--ns", "0,2",
             "--seed", "3", "--format", "csv", "--out", str(out)]
        )
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,ns,k,reps,mean_wall_time_s")
        assert len(lines) == 3  # header + two rows
        assert lines[1].split(",")[:3] == ["gtkmeans", "0", "4"]
        assert lines[2].split(",")[:3] == ["gtkmeans", "2", "4"]

    @pytest.mark.parametrize(
        "fmt, grid",
        [
            ("json", ["bench", "--k", "2", "--algo", "gtkmeans"]),
            ("csv", ["bench", "--k", "2", "--algo", "gtkmeans"]),
            ("json", ["bench", "--k", "2,3", "--seed", "0..2", "--algo", "gtkmeans,pkgame"]),
        ],
        ids=["json", "csv", "bench"],
    )
    def test_non_finite_result_exits_2_without_output(self, tmp_path, capsys, fmt, grid):
        # squared distances of coordinates near 1e200 overflow, so SSE is inf:
        # the first run's objectives fail, with no numpy warning before the error
        data = tmp_path / "huge.csv"
        data.write_text("1e200,0\n2e200,0\n3e200,1\n-1e200,5\n4e200,2\n5e200,3\n")
        out = tmp_path / f"o.{fmt}"
        status = main([*grid, "--data", str(data), "--format", fmt, "--out", str(out)])
        assert status == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]

    def test_overflowing_payoff_exits_2_without_output(self, ds1, tmp_path, capsys):
        # ds1 scaled by 8e151: the objectives are finite, but a game's costs overflow
        data = tmp_path / "scaled.csv"
        save_csv(Dataset(ds1.points * 8e151), str(data))
        out = tmp_path / "o.json"
        status = main(["bench", "--data", str(data), "--k", "4", "--seed", "1", "--algo", "gtkmeans", "--out", str(out)])
        assert status == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not finite at a feasible joint" in err[0]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_holding_inf_is_a_dataset_failure(self, tmp_path, capsys, monkeypatch, fmt):
        # the objectives of a run are checked already; this is the last guard
        table = {"rows": [{"algorithm": "gtkmeans", "mean_sse_improvement_pct": float("inf")}], "raw": []}
        monkeypatch.setattr(cli, "build_result_table", lambda invocation: table)
        out = tmp_path / f"o.{fmt}"
        status, _ = execute(parse_invocation(["bench", "--ds1", "--k", "4", "--format", fmt, "--out", str(out)]))
        assert status == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not finite" in err[0]

    def test_gen_with_infinite_std_is_usage_error(self, tmp_path):
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as err:
            main(["gen", "--out", str(out), "--std", "inf"])
        assert err.value.code == 2
        assert not out.exists()

    def test_gen_overflowing_points_exit_2_without_output(self, tmp_path, capsys):
        # a finite std of 1e308 draws noise beyond the float range
        out = tmp_path / "g.csv"
        status = main(["gen", "--out", str(out), "--std", "1e308"])
        assert status == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_gen_with_negative_seed_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        with pytest.raises(SystemExit) as err:
            main(["gen", "--out", str(out), "--seed", "-1"])
        assert err.value.code == 2
        assert not out.exists()
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "seed must be >= 0" in errors[0]

    def test_execute_returns_table(self):
        for k in (4, 1):  # k = 1 is one balanced cluster, so no game is played
            status, table = execute(parse_invocation(f"bench --ds1 --k {k} --algo gtkmeans --seed 1".split()))
            assert status == 0
            assert table is not None and len(table["rows"]) == 1
        assert table["raw"][0]["games_played"] == 0

    def test_internal_error_exits_3_without_output(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli, "paired_compare", boom)
        out = tmp_path / "x.json"
        status = main(["bench", "--ds1", "--k", "4", "--out", str(out)])
        assert status == 3
        assert not out.exists()

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["bench", "--ds1", "--k", "4", "--algo", "gtkmeans", "--seed", "1"]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["schema_version"] == 2

    def test_module_entry_point_prints_a_table(self, monkeypatch):
        src = Path(__file__).resolve().parent.parent / "src"
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "gameclust", "bench", "--ds1", "--k", "4", "--algo", "gtkmeans", "--seed", "1"]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["schema_version"] == 2

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMECLUST_OUTPUT_DIR", str(tmp_path))
        assert main(["bench", "--ds1", "--k", "4", "--algo", "gtkmeans", "--seed", "1"]) == 0
        table = json.loads((tmp_path / "results.json").read_text())
        assert table["schema_version"] == 2


class TestDeterminism:
    def test_identical_invocations_byte_identical_modulo_wall_time(self, tmp_path):
        args = ["bench", "--ds1", "--k", "4,5", "--algo", "gtkmeans,pkgame", "--ns", "0,2",
                "--seed", "5..6"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        a = json.dumps(null_wall_times(json.loads(out_a.read_text())), sort_keys=True)
        b = json.dumps(null_wall_times(json.loads(out_b.read_text())), sort_keys=True)
        assert a == b
        # and the timing fields were really the only difference
        assert json.loads(out_a.read_text())["config"] == json.loads(out_b.read_text())["config"]

    def test_bench_output_pinned(self, tmp_path):
        # sha256 of the canonical JSON, wall times zeroed, of this grid: any
        # change outside the *wall_time* fields changes the digest
        out = tmp_path / "pin.json"
        args = ["bench", "--ds1", "--k", "4,8", "--algo", "gtkmeans,pkgame", "--ns", "0,3",
                "--seed", "1..2", "--out", str(out)]
        assert main(args) == 0
        canonical = json.dumps(null_wall_times(json.loads(out.read_text())), sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == "e7c8e4916c340a94bb5aa1eef8956ecb8d267316c5a0ad3332dc587cbb9d6dc1"
