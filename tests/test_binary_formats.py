"""Any bytes handed to the UFF, PRM1 and CWT1 readers parse or raise FormatError."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prosodia.errors import FormatError
from prosodia.features import UtteranceFeatures, read_feature_file, write_feature_file
from prosodia.nn.checkpoint import load_params, save_params
from prosodia.nn.network import ParamStore
from prosodia.nn.tensor import Tensor
from prosodia.prosody import CwtMatrix, NormStats, WaveletParams
from prosodia.prosody.cwt_cache import read_cwt_cache, write_cwt_cache

READERS = {"uff": read_feature_file, "prm1": load_params, "cwt1": read_cwt_cache}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid file per format, as bytes, and a scratch path per format."""
    root = tmp_path_factory.mktemp("formats")
    rng = np.random.default_rng(3)
    write_feature_file(
        UtteranceFeatures(
            utterance_id="u1", emotion_label="A", frame_period_ms=5.0,
            mceps=rng.normal(size=(24, 2)).astype(np.float32),
            f0_hz=np.array([0.0, 120.0], dtype=np.float32),
        ),
        root / "uff",
    )
    save_params(
        ParamStore({"w": Tensor(rng.normal(size=(2, 1))), "b": Tensor(np.zeros(2))}),
        root / "prm1",
    )
    write_cwt_cache(
        root / "cwt1",
        CwtMatrix(coeffs=rng.normal(size=(10, 2)), params=WaveletParams()),
        NormStats(mean=5.0, std=0.2),
        np.array([False, True]),
    )
    return {fmt: ((root / fmt).read_bytes(), root / f"{fmt}.fuzz") for fmt in READERS}


def mutations(blob: bytes):
    """Any bytes after the magic, a proper prefix, or one byte replaced."""
    n = len(blob)
    return st.one_of(
        st.binary(max_size=128).map(lambda tail: blob[:4] + tail),
        st.integers(0, n - 1).map(lambda k: blob[:k]),
        st.builds(lambda at, byte: blob[:at] + bytes([byte]) + blob[at + 1 :],
                  st.integers(0, n - 1), st.integers(0, 255)),
    )


def read_raises_only_format_errors(fmt, path, blob, edit):
    path.write_bytes(blob)
    try:
        READERS[fmt](path)
    except FormatError:
        pass
    except Exception as err:  # noqa: BLE001 - the property under test
        pytest.fail(f"{fmt} {edit}: {err!r}")


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_every_prefix_and_header_byte_edit(valid, fmt):
    """Headers, names and counts sit in the first 64 bytes; past them lie payload floats."""
    blob, path = valid[fmt]
    for k in range(len(blob)):
        read_raises_only_format_errors(fmt, path, blob[:k], f"prefix {k}")
    for at in range(min(len(blob), 64)):
        for byte in (0x00, 0x01, 0x02, 0x41, 0x7F, 0x80, 0xFF):
            edit = blob[:at] + bytes([byte]) + blob[at + 1 :]
            read_raises_only_format_errors(fmt, path, edit, f"byte {at} = {byte:#x}")


@pytest.mark.parametrize("fmt", sorted(READERS))
@given(data=st.data())
def test_reader_raises_only_format_or_validation_errors(valid, fmt, data):
    blob, path = valid[fmt]
    edit = data.draw(st.binary(max_size=128) | mutations(blob))
    read_raises_only_format_errors(fmt, path, edit, edit)


@pytest.mark.parametrize(
    "shape", [(1,) * 65, (0, 2**31, 2**31, 2**31)], ids=["65_axes", "empty_oversized"]
)
def test_prm1_shape_numpy_cannot_hold_is_format_error(tmp_path, shape):
    header = struct.pack("<IH", 1, 1) + b"w" + struct.pack(f"<I{len(shape)}I", len(shape), *shape)
    path = tmp_path / "shape.prm1"
    path.write_bytes(b"PRM1" + header + b"\0" * (8 * int(np.prod(shape))))
    with pytest.raises(FormatError, match="numpy shape"):
        load_params(path)
