"""Byte-level contract of the flat tensor format and its named container."""

import struct

import numpy as np
import pytest

from latprog.errors import (
    BadMagicError,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    VersionMismatchError,
)
from latprog.evaluation import write_csv
from latprog.tensorfile import (
    MAGIC,
    VERSION,
    iter_tensors,
    read_tensor,
    read_tensors,
    write_json,
    write_tensor,
    write_tensors,
)


def test_roundtrip_bit_identical(tmp_path, rng):
    arr = rng.random((4, 4, 4, 4)).astype(np.float32)
    path = tmp_path / "t.mrxt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))


def test_non_finite_values_survive(tmp_path):
    arr = np.array([np.nan, np.inf, -np.inf, 0.0], dtype=np.float32).reshape(2, 2)
    path = tmp_path / "t.mrxt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))


def test_2x3_file_is_47_bytes(tmp_path):
    # 4 magic + 1 version + 1 dtype + 1 ndim + 2*8 dims + 6*4 payload
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.mrxt"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert len(raw) == 47
    assert raw[:4] == MAGIC
    assert raw[4] == VERSION
    assert raw[5] == 0  # float32 dtype code
    assert raw[6] == 2  # ndim
    assert struct.unpack("<QQ", raw[7:23]) == (2, 3)
    assert np.frombuffer(raw[23:], dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]


def test_float64_input_stored_as_float32(tmp_path):
    arr = np.array([[0.1, 0.2]], dtype=np.float64)
    path = tmp_path / "t.mrxt"
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr.astype(np.float32))


def test_bad_magic(tmp_path):
    path = tmp_path / "t.mrxt"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_tensor(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "t.mrxt"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        read_tensor(path)


def test_unsupported_dtype_code(tmp_path):
    path = tmp_path / "t.mrxt"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[5] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDtypeError):
        read_tensor(path)


def _single(path):
    write_tensor(path, np.zeros((4, 4), dtype=np.float32))
    return read_tensor


def _container(path):
    write_tensors(path, {"first": np.zeros((2, 3), dtype=np.float32),
                         "second": np.ones((4, 4), dtype=np.float32)})
    return read_tensors


def _container_first_only(path):
    """The container above, read by key: "second" is skipped, not read."""
    _container(path)
    return lambda p: read_tensors(p, ["first"])


@pytest.mark.parametrize("write, keep", [
    (_single, lambda raw: raw[:-5]),
    (_container, lambda raw: raw[:-5]),
    (_container, lambda raw: raw[:raw.index(b"second") + 3]),
    (_container_first_only, lambda raw: raw[:-5]),
    (_container_first_only, lambda raw: raw[:raw.index(b"second") + 3]),
], ids=["single", "container-last-entry", "container-entry-name",
        "keyed-skipped-entry", "keyed-skipped-entry-name"])
def test_truncated_payload(tmp_path, write, keep):
    path = tmp_path / "t.mrxt"
    read = write(path)
    path.write_bytes(keep(path.read_bytes()))
    with pytest.raises(TruncatedPayloadError):
        read(path)


@pytest.mark.parametrize("write", [_single, _container, _container_first_only],
                         ids=["single", "container", "keyed"])
def test_trailing_bytes_rejected(tmp_path, write):
    path = tmp_path / "t.mrxt"
    read = write(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TensorFileError):
        read(path)


def test_error_taxonomy_is_rooted():
    for err in (BadMagicError, VersionMismatchError, UnsupportedDtypeError,
                TruncatedPayloadError):
        assert issubclass(err, TensorFileError)


class TestContainer:
    def test_roundtrip_preserves_names_and_bits(self, tmp_path, rng):
        tensors = {
            "enc/w": rng.random((3, 5)).astype(np.float32),
            "enc/b": rng.random(5).astype(np.float32),
            "scalar": np.float32(2.5) * np.ones((1,), dtype=np.float32),
        }
        path = tmp_path / "c.mrxt"
        write_tensors(path, tensors)
        back = read_tensors(path)
        assert set(back) == set(tensors)
        for name in tensors:
            assert np.array_equal(
                back[name].view(np.uint32), tensors[name].view(np.uint32)
            )

    def test_single_and_container_formats_are_distinct(self, tmp_path):
        single = tmp_path / "s.mrxt"
        write_tensor(single, np.zeros((2,), dtype=np.float32))
        with pytest.raises(TensorFileError):
            read_tensors(single)
        multi = tmp_path / "m.mrxt"
        write_tensors(multi, {"a": np.zeros((2,), dtype=np.float32)})
        with pytest.raises(TensorFileError):
            read_tensor(multi)

    def test_keyed_read_takes_only_the_named_entries(self, tmp_path, rng):
        tensors = {name: rng.random((3, 2)).astype(np.float32) for name in ("a", "b", "c")}
        path = tmp_path / "c.mrxt"
        write_tensors(path, tensors)
        back = read_tensors(path, ["c", "a", "absent"])
        assert list(back) == ["a", "c"]  # file order; an absent key is left out
        for name in back:
            assert np.array_equal(back[name].view(np.uint32), tensors[name].view(np.uint32))
        assert read_tensors(path, []) == {}

    @pytest.mark.parametrize("keys", [None, ["aa"], ["zz"]], ids=["full", "keyed", "keyed-none"])
    def test_duplicate_names_refused(self, tmp_path, keys):
        path = tmp_path / "c.mrxt"
        write_tensors(path, {"aa": np.zeros((2,), dtype=np.float32),
                             "bb": np.ones((2,), dtype=np.float32)})
        path.write_bytes(path.read_bytes().replace(b"bb", b"aa"))
        with pytest.raises(TensorFileError, match="duplicate tensor name 'aa'"):
            read_tensors(path, keys)

    def test_entries_are_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "c.mrxt"
        _container(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        entries = iter_tensors(path)
        name, first = next(entries)  # the cut in the second entry is not reached yet
        assert name == "first" and np.array_equal(first, np.zeros((2, 3)))
        with pytest.raises(TruncatedPayloadError):
            next(entries)
        path.write_bytes(raw + b"\x00")
        entries = iter_tensors(path)
        assert [next(entries)[0] for _ in range(2)] == ["first", "second"]
        with pytest.raises(TruncatedPayloadError, match="trailing"):
            next(entries)

    def test_empty_container(self, tmp_path):
        path = tmp_path / "e.mrxt"
        write_tensors(path, {})
        assert read_tensors(path) == {}

    def test_failed_write_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "c.mrxt"
        write_tensors(path, {"a": np.ones((3,), dtype=np.float32)})
        before = path.read_bytes()
        # the second entry cannot be encoded as float32: the write raises
        # after the header and the first entry have gone out
        with pytest.raises(ValueError):
            write_tensors(path, {"a": np.zeros((8, 8), dtype=np.float32),
                                 "b": np.array(["not a number"])})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.mrxt"]


def _rows_that_fail():
    yield ["sub-0000", "0.5"]
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("write", [
    lambda path: write_csv(path, ["subject_id", "value"], _rows_that_fail()),
    lambda path: write_json(path, {"a": 1, "b": object()}),
], ids=["csv", "json"])
def test_failed_text_write_leaves_the_previous_file(tmp_path, write):
    """CSV and JSON artifacts are replaced only by a complete write."""
    path = tmp_path / "artifact"
    path.write_text("previous")
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert path.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
