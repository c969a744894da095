import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from holo_rmt import matio
from holo_rmt.channel import synth_los
from holo_rmt.config import RunConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# Values whose bits a reader could lose: signed zeros, subnormals, the
# float range's edges, the infinities and awkward decimals.
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf,
                        1 / 3, 0.1])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def test_complex_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[0, 0] = 1 / 3 + 1j * 0.1  # awkward decimals
    # Set as parts: 1j * inf is nan + inf j.
    m.real[1:3] = rng.choice(EDGE_VALUES, size=(2, 4))
    m.imag[1:3] = rng.choice(EDGE_VALUES, size=(2, 4))
    path = tmp_path / "mat.json"
    matio.save_complex_matrix(path, m)
    assert_same_bits(matio.load_matrix(path, "complex"), m)
    los = synth_los(37, 37, kind="lowrank", rank=4, seed=701)
    matio.save_complex_matrix(path, los)
    assert_same_bits(matio.load_matrix(path, "complex"), los)


def test_real_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.random((5, 3)) * np.array([1e-12, 1.0, 1e9])
    m[3:, :] = rng.choice(EDGE_VALUES, size=(2, 3))
    path = tmp_path / "prof.json"
    matio.save_real_matrix(path, m)
    assert_same_bits(matio.load_matrix(path, "real"), m)


def test_overwrite_is_atomic_replace(tmp_path):
    path = tmp_path / "m.json"
    matio.save_real_matrix(path, np.eye(2))
    matio.save_real_matrix(path, 2 * np.eye(2))
    assert np.array_equal(matio.load_matrix(path, "real"), 2 * np.eye(2))
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_file_takes_the_umask_mode(tmp_path, umask):
    # The mode open() gives a new file, not the temp file's 0600.
    previous = os.umask(umask)
    try:
        matio.save_json(tmp_path / "doc.json", {"a": 1})
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "doc.json").stat().st_mode)
    assert mode == 0o666 & ~umask


def _matrix_doc(rows, cols, dtype):
    entry = [0.5, -0.5] if dtype == "complex" else 0.5
    return {"rows": rows, "cols": cols, "dtype": dtype,
            "data": [entry] * (rows * cols)}


# (dtype asked for, file document, what the ValueError says to fix)
MALFORMED = [
    ("real", {**_matrix_doc(2, 2, "real"), "data": [0.0] * 5},
     "data must hold rows x cols = 4 entries"),
    ("real", {**_matrix_doc(2, 2, "real"), "data": ["0.5", 0.5, 0.5, 0.5]},
     "every data entry must be a JSON number"),
    ("real", {**_matrix_doc(2, 2, "real"), "data": [0.5, 0.5, True, 0.5]},
     "every data entry must be a JSON number"),
    ("real", [[0.5]], "expected a JSON object with rows, cols and data"),
    ("complex", {**_matrix_doc(37, 37, "complex"), "rows": 37.5},
     "rows must be a non-negative integer, got 37.5"),
    ("complex", {**_matrix_doc(37, 37, "complex"), "rows": True},
     "rows must be a non-negative integer, got true"),
    ("complex", {**_matrix_doc(37, 37, "complex"), "rows": -37, "cols": -37},
     "rows must be a non-negative integer, got -37"),
    ("complex", {**_matrix_doc(2, 2, "complex"), "cols": None},
     "cols must be a non-negative integer, got null"),
    ("complex", {**_matrix_doc(1, 2, "complex"), "data": [[1, 0, 0], [1, 0]]},
     "every data entry must be an [re, im] pair of numbers"),
    ("complex", {**_matrix_doc(1, 2, "complex"), "data": [[1, 0], ["1", 0]]},
     "every data entry must be a JSON number"),
    ("complex", _matrix_doc(2, 2, "real"), 'dtype must be "complex", got "real"'),
    ("real", _matrix_doc(2, 2, "complex"), 'dtype must be "real", got "complex"'),
]


def test_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        matio.save_complex_matrix(tmp_path / "x.json", np.zeros(3))
    path = tmp_path / "y.json"
    for dtype, doc, message in MALFORMED:
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            matio.load_matrix(path, dtype)
        assert str(info.value) == message
    # The documents the cases alter are well formed.
    path.write_text(json.dumps(_matrix_doc(2, 3, "complex")))
    assert_same_bits(matio.load_matrix(path, "complex"),
                     np.full((2, 3), 0.5 - 0.5j))


def test_failed_write_leaves_no_file(tmp_path):
    # A write that fails partway removes its temp file and leaves the
    # target unwritten.
    def lines():
        yield "partial"
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        matio._atomic_write_text(tmp_path / "m.json", "head", lines())
    assert list(tmp_path.iterdir()) == []


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


def _json_text(m):
    """What save_real_matrix wrote before it formatted each value once."""
    m = np.asarray(m, dtype=float)
    return json.dumps({"rows": m.shape[0], "cols": m.shape[1],
                       "dtype": "real", "data": m.ravel().tolist()})


def _assert_json_bytes(tmp_path, m):
    path = tmp_path / "m.json"
    matio.save_real_matrix(path, m)
    # Compared as a boolean: a diff of two 2 MB lines takes minutes.
    same = path.read_text() == _json_text(m)
    assert same


@pytest.mark.parametrize("name", ["desk", "full"])
@pytest.mark.parametrize("kind", ["nonseparable", "separable"])
def test_real_matrix_bytes_equal_json_dumps_on_profiles(tmp_path, name, kind):
    cfg = RunConfig.from_file(CONFIGS / f"{name}.json")
    cfg = cfg.updated(channel={"profile": kind})
    _assert_json_bytes(tmp_path, cfg.build_profile(*cfg.lattices()).matrix)


def test_real_matrix_bytes_equal_json_dumps_all_distinct(tmp_path):
    rng = np.random.default_rng(17)
    m = rng.normal(size=(317, 317)) * 10.0 ** rng.integers(-300, 300,
                                                            (317, 317))
    assert np.unique(m).size == m.size
    _assert_json_bytes(tmp_path, m)


def test_real_matrix_bytes_equal_json_dumps_special_values(tmp_path):
    # Keyed on bits: -0.0 keeps its sign next to 0.0, and every NaN and
    # infinity is written as json writes it.
    nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    m = np.array([[0.0, -0.0, np.nan, -np.nan],
                  [np.inf, -np.inf, 5e-324, -5e-324],
                  [1e-300, -1e-300, nan_payload, 0.0]])
    _assert_json_bytes(tmp_path, m)
    text = (tmp_path / "m.json").read_text()
    assert "[0.0, -0.0, NaN, NaN, Infinity, -Infinity, 5e-324," in text


@pytest.mark.parametrize("shape", [(1, 1), (0, 3), (3, 0)])
def test_real_matrix_bytes_equal_json_dumps_small_shapes(tmp_path, shape):
    m = np.arange(np.prod(shape), dtype=float).reshape(shape) + 0.1
    _assert_json_bytes(tmp_path, m)
    back = matio.load_matrix(tmp_path / "m.json", "real")
    assert back.shape == shape and np.array_equal(back, m)


def test_real_matrix_bytes_equal_json_dumps_strided_and_integer(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.random((4, 7)).round(2)
    assert not m.T.flags.c_contiguous
    _assert_json_bytes(tmp_path, m.T)
    ints = rng.integers(-3, 4, size=(5, 6))
    _assert_json_bytes(tmp_path, ints)


def test_complex_matrix_bytes_equal_per_entry_pairs(tmp_path):
    rng = np.random.default_rng(6)
    m = (rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))).T
    m[0, 0] = complex(-0.0, np.inf)
    matio.save_complex_matrix(tmp_path / "c.json", m)
    data = [[float(v.real), float(v.imag)] for v in m.ravel()]
    expected = json.dumps({"rows": 5, "cols": 6, "dtype": "complex",
                           "data": data})
    assert (tmp_path / "c.json").read_text() == expected
