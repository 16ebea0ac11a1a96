"""The kernel record: each row of ``kernel_record.json`` equals a fresh
record of its run, and the file is in the one layout its writer writes."""
import json

import pytest

import kernel_record
from kernel_record import PATH, ROWS


@pytest.mark.parametrize("name", list(ROWS))
def test_a_fresh_record_equals_its_row(name):
    assert kernel_record.fresh(name) == kernel_record.load()[name]


def test_the_file_holds_each_row_once_in_the_writers_layout():
    """A hand edit in another layout fails, so each re-recording changes
    the file one entry at a time."""
    rows = kernel_record.load()
    assert sorted(rows) == sorted(ROWS)
    assert PATH.read_bytes() == (json.dumps(rows, sort_keys=True, indent=1) + "\n").encode()


def test_the_writer_rewrites_an_unchanged_file_byte_for_byte(tmp_path):
    """On an unchanged tree the writer reports no changed entry and
    writes the same bytes; an entry changed in the copy is reported as
    ``row key: old -> new`` and written back."""
    copy = tmp_path / PATH.name
    copy.write_bytes(PATH.read_bytes())
    assert kernel_record.write(copy) == []
    assert copy.read_bytes() == PATH.read_bytes()
    rows = kernel_record.load(copy)
    name = "run_report:dense_member(3)"
    scans = rows[name]["scans"]
    rows[name]["scans"] += 1
    copy.write_text(kernel_record.dumps(rows), encoding="utf-8")
    assert kernel_record.write(copy) == [f"{name} scans: {scans + 1} -> {scans}"]
    assert copy.read_bytes() == PATH.read_bytes()
