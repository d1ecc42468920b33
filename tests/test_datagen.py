import numpy as np
import pytest

from gameclust import (
    ConfigError,
    CsvFormatError,
    Ds1Config,
    Dataset,
    generate_ds1,
    load_csv,
    save_csv,
)


class TestGenerateDs1:
    def test_default_shape(self):
        ds = generate_ds1(Ds1Config(seed=1))
        assert ds.n == 150
        assert ds.dim == 2

    def test_determinism(self):
        a = generate_ds1(Ds1Config(seed=42))
        b = generate_ds1(Ds1Config(seed=42))
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = generate_ds1(Ds1Config(seed=1))
        b = generate_ds1(Ds1Config(seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_near_zero_noise_collapses_to_blob_centers(self):
        cfg = Ds1Config(n_points=40, blob_count=4, std_dev=1e-9, seed=9)
        ds = generate_ds1(cfg)
        # points of one blob agree far beyond the noise scale
        blob = ds.points[:10]
        assert np.abs(blob - blob[0]).max() < 1e-6

    def test_even_split_across_blobs(self):
        cfg = Ds1Config(n_points=10, blob_count=4, std_dev=1e-9, seed=3)
        ds = generate_ds1(cfg)
        # 10 points over 4 blobs: counts 3,3,2,2 in order
        groups = [ds.points[0:3], ds.points[3:6], ds.points[6:8], ds.points[8:10]]
        for g in groups:
            assert np.abs(g - g[0]).max() < 1e-6

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            Ds1Config(n_points=3, blob_count=4)
        with pytest.raises(ConfigError):
            Ds1Config(std_dev=0.0)

    @pytest.mark.parametrize("std_dev", [float("inf"), float("nan"), True, "2"])
    def test_non_finite_std_dev_rejected(self, std_dev):
        with pytest.raises(ConfigError):
            Ds1Config(std_dev=std_dev)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            Ds1Config(seed=-1)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_ds1(Ds1Config(n_points=59, seed=8))
        path = tmp_path / "towns.csv"
        save_csv(ds, str(path))
        back = load_csv(str(path))
        assert back.n == 59
        assert back.dim == 2
        assert np.array_equal(back.points, ds.points)

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.5,2.5\n3.5,4.5\n")
        ds = load_csv(str(path))
        assert ds.n == 2
        assert ds.points[0].tolist() == [1.5, 2.5]

    def test_byte_order_mark_without_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        ds = load_csv(str(path))
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom_header.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1.0,2.0\n3.0,4.0\n")
        ds = load_csv(str(path))
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(CsvFormatError):
            load_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError):
            load_csv(str(tmp_path / "nope.csv"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(str(path))
        assert "line 2" in str(err.value)
        assert "column 2" in str(err.value)

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(str(path))
        assert "line 2" in str(err.value)

    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1,2\n\n3,x\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(str(path))
        assert "line 3, column 2" in str(err.value)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"1.0,2.0\n\xe9,3\n")
        with pytest.raises(CsvFormatError, match="not valid UTF-8"):
            load_csv(str(path))

    def test_oversized_field_names_its_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,2\n" + "9" * 200_000 + ",3\n")
        with pytest.raises(CsvFormatError, match="line 2: field larger than field limit"):
            load_csv(str(path))

    def test_shortest_round_trip_digits(self, tmp_path):
        ds = Dataset(points=[[1.23456789123456, -0.000012345678912]])
        path = tmp_path / "p.csv"
        save_csv(ds, str(path))
        text = path.read_text().strip()
        assert text == "1.23456789123456,-1.2345678912e-05"
