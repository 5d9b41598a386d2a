"""Deterministic serialization: JSON, CSV, binary snapshots."""

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import resonance_lab as rl
from resonance_lab.reporting import (
    csv_cell,
    json_dumps,
    read_eigenpairs,
    read_snapshots,
    write_csv,
    write_eigenpairs,
    write_snapshots,
)


def test_json_float_formatting():
    text = json_dumps({"x": 1.0 / 3.0})
    assert '"x": 0.33333333333333331' in text


def test_json_sorted_keys_and_nesting():
    a = json_dumps({"b": 1, "a": {"d": [1.5, 2], "c": None}})
    b = json_dumps({"a": {"c": None, "d": [1.5, 2]}, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_json_special_values():
    text = json_dumps({"nan": math.nan, "inf": math.inf, "flag": True})
    assert '"nan": null' in text
    assert '"inf": "inf"' in text
    assert '"flag": true' in text


def test_json_parses_back():
    import json

    payload = {"vals": [0.1, 2.0**-40], "n": 3, "s": "a\nb"}
    parsed = json.loads(json_dumps(payload))
    assert parsed["vals"] == [0.1, 2.0**-40]
    assert parsed["s"] == "a\nb"


def test_json_numpy_types():
    text = json_dumps({"a": np.float64(0.5), "b": np.int64(2),
                       "c": np.array([1.0, 2.0]), "d": np.bool_(False)})
    assert '"a": 0.5' in text and '"b": 2' in text and '"d": false' in text


def test_csv_roundtrip_floats(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0.1, 1.0 / 3.0, True), (2.0**-45, -1.5e300, False)]
    write_csv(path, ["a", "b", "c"], rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b,c"
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == row[0]
        assert float(cells[1]) == row[1]
        assert cells[2] == ("true" if row[2] else "false")


def test_csv_cell_shortest_roundtrip():
    assert csv_cell(0.1) == "0.1"
    assert float(csv_cell(2.0 / 3.0)) == 2.0 / 3.0


def test_snapshots_roundtrip(tmp_path, rng):
    g = rl.make_grid(2, 3.0, 11)
    fields = [rng.standard_normal(g.num_nodes) for _ in range(3)]
    path = tmp_path / "snap.bin"
    write_snapshots(path, g, fields)
    ndim, n, L, back = read_snapshots(path)
    assert (ndim, n, L) == (2, 11, 3.0)
    assert back.shape == (3, g.num_nodes)
    for orig, rec in zip(fields, back):
        assert np.array_equal(orig, rec)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(v=st.floats())
def test_json_and_csv_floats_round_trip(v):
    text = json_dumps(v)
    if math.isnan(v):
        assert text == "null\n" and math.isnan(float(csv_cell(v)))
    elif math.isinf(v):
        assert text == ('"inf"\n' if v > 0 else '"-inf"\n')
        assert float(csv_cell(v)) == v
    else:
        # equal in value; -0.0 is written "-0", which reads back as the int 0
        assert float(json.loads(text)) == v
        assert math.copysign(1.0, float(csv_cell(v))) == math.copysign(1.0, v)
        assert float(csv_cell(v)) == v
    assert float(csv_cell(np.float64(v))) == v or math.isnan(v)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(key=st.text(), value=st.text())
def test_json_strings_round_trip(key, value):
    # control characters, quotes, backslashes and non-ASCII text, in keys
    # and values alike, read back as they went in, through a strict parser
    text = json_dumps({key: value, "nested": [value]})
    assert json.loads(text) == {key: value, "nested": [value]}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    ndim=st.sampled_from((1, 2)),
    n=st.integers(1, 10).map(lambda k: 2 * k + 1),
    half_width=st.floats(1e-3, 1e3),
    count=st.integers(0, 3),
    data=st.data(),
)
def test_snapshots_round_trip_on_random_grids(ndim, n, half_width, count, data):
    grid = rl.make_grid(ndim, half_width, n)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    fields = [data.draw(arrays(np.float64, grid.num_nodes, elements=finite))
              for _ in range(count)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.bin"
        write_snapshots(path, grid, fields)
        got_ndim, got_n, got_L, back = read_snapshots(path)
        assert (got_ndim, got_n, got_L) == (ndim, n, half_width)
        assert back.shape == (count, grid.num_nodes)
        assert back.tobytes() == b"".join(u.astype("<f8").tobytes() for u in fields)
        # a payload cut short of a whole number of fields is refused (with no
        # field stored: a payload of part of one)
        raw = path.read_bytes()
        cut = data.draw(st.integers(1, 8 * grid.num_nodes - 1))
        path.write_bytes(raw[:-cut] if count else raw + bytes(cut))
        with pytest.raises(ValueError):
            read_snapshots(path)
        # so is a file cut inside its 24-byte header, and a header that
        # make_grid refuses
        path.write_bytes(raw[:data.draw(st.integers(0, 23))])
        with pytest.raises(ValueError):
            read_snapshots(path)
        bad_header = data.draw(st.sampled_from([
            (ndim, 0, half_width), (ndim, n + 1, half_width), (3, n, half_width),
            (0, n, half_width), (ndim, n, 0.0), (ndim, n, math.nan), (ndim, -n, half_width),
        ]))
        path.write_bytes(struct.pack("<qqd", *bad_header) + raw[24:])
        with pytest.raises(ValueError):
            read_snapshots(path)


def test_snapshots_header_layout(tmp_path):
    g = rl.make_grid(1, 2.0, 5)
    path = tmp_path / "snap.bin"
    write_snapshots(path, g, [np.zeros(5)])
    raw = path.read_bytes()
    assert len(raw) == 24 + 5 * 8
    assert int.from_bytes(raw[0:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 5


def test_read_eigenpairs_of_a_damaged_file_is_none(tmp_path, rng):
    # every cut and every flipped byte gives the stored arrays or None, never
    # an exception: the caller then solves again
    path = tmp_path / "pairs.npz"
    vals, fields = np.sort(rng.standard_normal(3)), rng.standard_normal((50, 3))
    write_eigenpairs(path, "key", vals, fields)
    raw = path.read_bytes()
    stored = read_eigenpairs(path, "key")
    assert np.array_equal(stored[0], vals) and np.array_equal(stored[1], fields)
    damaged = [raw[:cut] for cut in range(0, len(raw), 7)]
    damaged += [raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:]
                for i in range(0, len(raw), 5)]
    damaged += [b"\x93NUMPY" + raw[6:], np.lib.format.MAGIC_PREFIX + b"\x01\x00"]
    for payload in damaged:
        path.write_bytes(payload)
        got = read_eigenpairs(path, "key")
        assert got is None or (np.array_equal(got[0], vals)
                               and np.array_equal(got[1], fields))
    np.save(tmp_path / "bare.npy", vals)  # an array, not an archive
    assert read_eigenpairs(tmp_path / "bare.npy", "key") is None
    assert read_eigenpairs(tmp_path / "missing.npz", "key") is None
