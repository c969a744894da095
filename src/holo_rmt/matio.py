"""Matrix and sample persistence.

Complex matrices go to JSON as row-major [re, im] pairs under a {rows, cols}
header; real matrices use plain numbers.  Python's json emits the shortest
round-trip decimal for floats, so reload is bit-exact.  All writes are
atomic (temp file + rename).

``save_real_matrix`` writes the bytes ``json.dumps`` of the document would,
but formats each distinct entry only once; a variance profile repeats few
values (the lattice's symmetries and the positivity floor).  Entries are
told apart by their bit patterns, so -0.0 stays apart from 0.0.  Finite
values are formatted with ``float.__repr__``, as json's encoder does; NaN
and the infinities take json's own text.  The texts are then written in
row-major order, a chunk at a time.
"""

import json
import os
import tempfile

import numpy as np


# Rows per tolist() call of the CSV writers, and entries per joined chunk of
# save_real_matrix: Python floats from tolist() format far faster than numpy
# scalars, and a chunk bounds the lists and strings built.
CSV_CHUNK = 4096


def _umask():
    """The process umask (reading it means setting it; this sets it back)."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write_text(path, text, lines=()):
    """Write ``text``, then the strings of ``lines``, to ``path``.

    The file gets the mode ``open`` would give a new one, 0o666 less the
    umask, rather than the 0o600 of the temp file it is renamed from.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.writelines(lines)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_complex_matrix(path, matrix):
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    data = m.ravel(order="C").view(np.float64).reshape(-1, 2).tolist()
    doc = {"rows": m.shape[0], "cols": m.shape[1], "dtype": "complex", "data": data}
    _atomic_write_text(path, json.dumps(doc))


def save_real_matrix(path, matrix):
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    bits, index = np.unique(m.ravel(order="C").view(np.uint64),
                            return_inverse=True)
    values = bits.view(np.float64)
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = json.dumps(values[i].item())

    def data():
        for start in range(0, index.size, CSV_CHUNK):
            chunk = texts[index[start:start + CSV_CHUNK]].tolist()
            yield (", " if start else "") + ", ".join(chunk)
        yield "]}"

    _atomic_write_text(path, f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, '
                             '"dtype": "real", "data": [', data())


def load_matrix(path, dtype):
    """The ``dtype`` ("real" or "complex") matrix in the format the savers
    write; a ValueError says what a malformed file lacks, and an integer
    entry beyond the float range raises OverflowError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object with rows, cols and data")
    rows, cols, data = doc.get("rows"), doc.get("cols"), doc.get("data")
    for key, n in (("rows", rows), ("cols", cols)):
        if type(n) is not int or n < 0:
            raise ValueError(f"{key} must be a non-negative integer, "
                             f"got {json.dumps(n)}")
    if doc.get("dtype", dtype) != dtype:
        raise ValueError(f'dtype must be "{dtype}", got {json.dumps(doc["dtype"])}')
    if type(data) is not list or len(data) != rows * cols:
        raise ValueError(f"data must hold rows x cols = {rows * cols} entries")
    if dtype == "complex":
        if not (set(map(type, data)) <= {list} and set(map(len, data)) <= {2}):
            raise ValueError("every data entry must be an [re, im] pair of numbers")
        data = [x for pair in data for x in pair]
    if not set(map(type, data)) <= {int, float}:
        raise ValueError("every data entry must be a JSON number")
    flat = np.array(data, dtype=float)
    return (flat.view(complex) if dtype == "complex" else flat).reshape(rows, cols)


def save_json(path, obj):
    _atomic_write_text(path, json.dumps(obj, indent=2))


def _rows(table):
    """The rows of a float array as Python floats (or lists of them)."""
    for start in range(0, len(table), CSV_CHUNK):
        yield from table[start:start + CSV_CHUNK].tolist()


def save_samples_csv(path, samples):
    rows = _rows(np.asarray(samples, dtype=float))
    _atomic_write_text(path, "index,mi_nats\n",
                       (f"{i},{v!r}\n" for i, v in enumerate(rows)))


def load_samples_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "index,mi_nats":
            raise ValueError(f"unexpected sample CSV header: {header}")
        vals = [float(line.split(",")[1]) for line in fh if line.strip()]
    return np.array(vals, dtype=float)


def save_qq_csv(path, pairs):
    rows = _rows(np.asarray(pairs, dtype=float))
    _atomic_write_text(path, "theoretical,empirical\n",
                       (f"{t!r},{e!r}\n" for t, e in rows))
