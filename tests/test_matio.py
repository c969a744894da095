import numpy as np
import pytest

from holo_rmt import matio


def test_complex_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[0, 0] = 1 / 3 + 1j * 0.1  # awkward decimals
    path = tmp_path / "mat.json"
    matio.save_complex_matrix(path, m)
    back = matio.load_complex_matrix(path)
    assert back.dtype == complex
    assert np.array_equal(back, m)


def test_real_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.random((5, 3)) * np.array([1e-12, 1.0, 1e9])
    path = tmp_path / "prof.json"
    matio.save_real_matrix(path, m)
    assert np.array_equal(matio.load_real_matrix(path), m)


def test_overwrite_is_atomic_replace(tmp_path):
    path = tmp_path / "m.json"
    matio.save_real_matrix(path, np.eye(2))
    matio.save_real_matrix(path, 2 * np.eye(2))
    assert np.array_equal(matio.load_real_matrix(path), 2 * np.eye(2))
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        matio.save_complex_matrix(tmp_path / "x.json", np.zeros(3))
    matio.save_real_matrix(tmp_path / "y.json", np.zeros((2, 2)))
    import json
    doc = json.loads((tmp_path / "y.json").read_text())
    doc["data"].append(0.0)
    (tmp_path / "y.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        matio.load_real_matrix(tmp_path / "y.json")


def test_samples_csv_round_trip(tmp_path):
    vals = np.array([0.1, 1 / 3, 7.25e-9])
    path = tmp_path / "s.csv"
    matio.save_samples_csv(path, vals)
    text = path.read_text().splitlines()
    assert text[0] == "index,mi_nats"
    assert text[1].startswith("0,")
    assert np.array_equal(matio.load_samples_csv(path), vals)


def test_qq_csv_header(tmp_path):
    path = tmp_path / "q.csv"
    matio.save_qq_csv(path, [(0.0, 0.1), (1.0, 0.9)])
    lines = path.read_text().splitlines()
    assert lines[0] == "theoretical,empirical"
    assert len(lines) == 3


def test_csv_writers_match_per_value_formatting_across_chunks(tmp_path):
    # Rows are converted a chunk at a time; the bytes must equal the
    # per-value repr of every row, across chunk edges too.
    rng = np.random.default_rng(4)
    rows = matio.CSV_CHUNK + 3
    vals = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    pairs = rng.normal(size=(rows, 2))
    matio.save_samples_csv(tmp_path / "s.csv", vals)
    matio.save_qq_csv(tmp_path / "q.csv", pairs)
    expected_s = ["index,mi_nats"] + [f"{i},{float(v)!r}"
                                      for i, v in enumerate(vals)]
    expected_q = ["theoretical,empirical"] + [f"{float(t)!r},{float(e)!r}"
                                              for t, e in pairs]
    # Compared as booleans: a diff of two 4099-line texts takes minutes.
    same_s = (tmp_path / "s.csv").read_text() == "\n".join(expected_s) + "\n"
    same_q = (tmp_path / "q.csv").read_text() == "\n".join(expected_q) + "\n"
    assert same_s and same_q
    matio.save_samples_csv(tmp_path / "e.csv", np.array([]))
    assert (tmp_path / "e.csv").read_text() == "index,mi_nats\n"
