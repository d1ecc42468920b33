import hashlib
import json

import pytest

from gameclust import load_csv
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


class TestParseInvocation:
    def test_full_bench_matrix(self):
        inv = parse_invocation(
            "bench --ds1 --k 4..8 --algo gtkmeans,pkgame --ns 0,2,3 --reps 50 --seed 7 --out r.json".split()
        )
        assert inv.subcommand == "bench"
        assert inv.use_ds1 is True
        assert inv.k_values == (4, 5, 6, 7, 8)
        assert inv.algorithms == ("gtkmeans", "pkgame")
        assert inv.ns_values == (None, 2, 3)
        assert inv.reps == 50
        assert inv.seeds == tuple(range(7, 57))
        assert inv.out_path == "r.json"

    def test_single_run(self):
        inv = parse_invocation("run --data gtd.csv --k 5 --algo pkgame --ns 3".split())
        assert inv.subcommand == "run"
        assert inv.data_path == "gtd.csv"
        assert inv.k_values == (5,)
        assert inv.algorithms == ("pkgame",)
        assert inv.ns_values == (3,)
        assert inv.reps == 1

    @pytest.mark.parametrize(
        "grid", ["--k 4,8", "--algo gtkmeans,pkgame", "--ns 0,3", "--seed 1,2", "--k 4..6", "--seed 0..3"]
    )
    def test_run_with_several_values_is_usage_error(self, grid):
        with pytest.raises(SystemExit) as err:
            parse_invocation(f"run --ds1 --k 4 {grid}".split())
        assert err.value.code == 2

    def test_run_with_a_list_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(f"run --ds1 --k 4,8 --algo gtkmeans,pkgame --ns 0,3 --seed 1,2 --out {out}".split())
        assert err.value.code == 2
        assert not out.exists()

    def test_k_zero_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_invocation("run --ds1 --k 0".split())
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_invocation("run --ds1 --k 4 --bogus".split())
        assert err.value.code == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            parse_invocation("run --ds1 --k 4 --algo turbo".split())

    def test_unparsable_number_rejected(self):
        with pytest.raises(SystemExit):
            parse_invocation("bench --ds1 --k four".split())

    def test_needs_exactly_one_source(self):
        with pytest.raises(SystemExit):
            parse_invocation("run --k 4".split())
        with pytest.raises(SystemExit):
            parse_invocation("run --ds1 --data x.csv --k 4".split())

    def test_explicit_seed_list(self):
        inv = parse_invocation("bench --ds1 --k 4 --seed 5,9,13".split())
        assert inv.seeds == (5, 9, 13)
        assert inv.reps == 3

    def test_seed_list_conflicting_reps(self):
        with pytest.raises(SystemExit):
            parse_invocation("bench --ds1 --k 4 --seed 5,9 --reps 3".split())

    def test_gen_invocation(self):
        inv = parse_invocation("gen --out d.csv --seed 3 --n 60 --blobs 4".split())
        assert inv.subcommand == "gen"
        assert inv.gen is not None
        assert inv.gen.n_points == 60
        assert inv.gen.blob_count == 4


class TestExecute:
    def test_gen_then_load_round_trip(self, tmp_path):
        out = tmp_path / "blobs.csv"
        status = main(["gen", "--out", str(out), "--seed", "3", "--n", "40", "--blobs", "4"])
        assert status == 0
        ds = load_csv(str(out))
        assert ds.n == 40
        assert ds.dim == 2

    def test_missing_dataset_exits_2(self, tmp_path):
        status = main(
            ["run", "--data", str(tmp_path / "absent.csv"), "--k", "4", "--out", str(tmp_path / "o.json")]
        )
        assert status == 2
        assert not (tmp_path / "o.json").exists()

    def test_k_exceeding_n_exits_2(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("1,2\n3,4\n5,6\n")
        status = main(["run", "--data", str(data), "--k", "4", "--out", str(tmp_path / "o.json")])
        assert status == 2

    def test_run_emits_single_row_table(self, tmp_path):
        out = tmp_path / "r.json"
        status = main(
            ["run", "--ds1", "--k", "4", "--algo", "pkgame", "--ns", "2", "--seed", "11", "--out", str(out)]
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
             "--reps", "3", "--seed", "1", "--out", str(out)]
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
        main(["bench", "--ds1", "--k", "5", "--algo", "gtkmeans", "--reps", "2", "--seed", "0", "--out", str(out)])
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
            ("json", ["run", "--k", "2"]),
            ("csv", ["run", "--k", "2"]),
            ("json", ["bench", "--k", "2,3", "--reps", "3", "--algo", "gtkmeans,pkgame"]),
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

    def test_execute_returns_table(self):
        inv = parse_invocation("run --ds1 --k 4 --seed 1".split())
        status, table = execute(inv)
        assert status == 0
        assert table is not None and len(table["rows"]) == 1

    def test_internal_error_exits_3_without_output(self, tmp_path, monkeypatch):
        import gameclust.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli_module, "paired_compare", boom)
        out = tmp_path / "x.json"
        status = main(["run", "--ds1", "--k", "4", "--out", str(out)])
        assert status == 3
        assert not out.exists()

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["run", "--ds1", "--k", "4", "--seed", "1"]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["schema_version"] == 2

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMECLUST_OUTPUT_DIR", str(tmp_path))
        assert main(["run", "--ds1", "--k", "4", "--seed", "1"]) == 0
        table = json.loads((tmp_path / "results.json").read_text())
        assert table["schema_version"] == 2


class TestDeterminism:
    def test_identical_invocations_byte_identical_modulo_wall_time(self, tmp_path):
        args = ["bench", "--ds1", "--k", "4,5", "--algo", "gtkmeans,pkgame", "--ns", "0,2",
                "--reps", "2", "--seed", "5"]
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
                "--reps", "2", "--seed", "1", "--out", str(out)]
        assert main(args) == 0
        canonical = json.dumps(null_wall_times(json.loads(out.read_text())), sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == "ea5b22d2861ea04a37f2e773389ff1ea4dc1812a67fb63369b369ed89e79d904"
