"""The CSV codec and the three readers built on it: loss log, report, scalogram."""

import re

import numpy as np
import pytest

from prosodia.csvio import format_cell, write_table
from prosodia.cyclegan.train import LossLog
from prosodia.errors import FormatError
from prosodia.metrics import read_report_csv
from prosodia.prosody import read_scalogram_csv

SCALES = ",".join(f"scale{i}" for i in range(1, 11))

# Each reader with a well-formed table: its header and two rows.
READERS = {
    "losslog": (
        LossLog.from_csv,
        "iter,lr,adv_g,adv_d,cyc,id\n1,0.0002,0.5,0.25,1.5,0.75\n2,0.0002,0.5,0.25,1.5,0\n",
    ),
    "report": (
        read_report_csv,
        "pair_id,mcd_db,rmse_hz,pcc\nu1,5.5,20.25,0.5\nMEAN,5.5,20.25,0.5\n",
    ),
    "scalogram": (
        read_scalogram_csv,
        f"frame,{SCALES}\n0,{','.join(['0.5'] * 10)}\n1,{','.join(['-1.25'] * 10)}\n",
    ),
}


def _with_line(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


MALFORMED = {
    "wrong_header": lambda t: _with_line(t, 0, lambda ln: ln.rsplit(",", 1)[0] + ",bogus"),
    "cell_missing": lambda t: _with_line(t, 1, lambda ln: ln.rsplit(",", 1)[0]),
    "cell_extra": lambda t: _with_line(t, 1, lambda ln: ln + ",1"),
    "cell_unparsed": lambda t: _with_line(t, 1, lambda ln: ln.rsplit(",", 1)[0] + ",abc"),
    "empty": lambda t: "",
}


@pytest.mark.parametrize("reader", READERS)
def test_well_formed_table_reads(reader, tmp_path):
    read, text = READERS[reader]
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    read(path)


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("reader", READERS)
def test_malformed_table_is_format_error_naming_file(reader, case, tmp_path):
    read, text = READERS[reader]
    path = tmp_path / "table.csv"
    path.write_text(MALFORMED[case](text), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("reader", READERS)
def test_text_that_is_not_utf8_is_format_error(reader, tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        READERS[reader][0](path)


def test_error_names_the_line(tmp_path):
    path = tmp_path / "losslog.csv"
    path.write_text(MALFORMED["cell_missing"](READERS["losslog"][1]), encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: 5 cells, expected 6"):
        LossLog.from_csv(path)


def test_scalogram_header_checked_past_its_first_scale(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("frame,scale1,scale3\n0,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(FormatError, match="expected 'frame,scale1,scale2'"):
        read_scalogram_csv(path)


def test_report_without_mean_or_pair_rows_rejected(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("pair_id,mcd_db,rmse_hz,pcc\nu1,5.5,20.25,0.5\n", encoding="utf-8")
    with pytest.raises(FormatError, match="missing MEAN row"):
        read_report_csv(path)
    path.write_text("pair_id,mcd_db,rmse_hz,pcc\nMEAN,5.5,20.25,0.5\n", encoding="utf-8")
    with pytest.raises(FormatError, match="no pair rows"):
        read_report_csv(path)


def test_cell_formatting(tmp_path):
    """Floats as ``%.<digits>g`` (float32 through its float64 value), the rest with ``str``."""
    assert format_cell(0.1 + 0.2) == "0.3"
    assert format_cell(0.1 + 0.2, digits=17) == "0.30000000000000004"
    assert format_cell(np.float32(0.1)) == f"{np.float32(0.1):.12g}" == "0.10000000149"
    assert format_cell(np.float64(2.5), digits=9) == "2.5"
    assert format_cell(7) == "7" and format_cell("FAILED") == "FAILED"
    path = tmp_path / "t.csv"
    write_table(path, {"a": str, "b": float}, [("x", 1.0 / 3.0), ("y", 2)], digits=9)
    assert path.read_bytes() == b"a,b\nx,0.333333333\ny,2\n"
