"""``regenerate_golden.py --append`` on copies of the golden file."""

from regenerate_golden import append_rows
from test_golden import GOLDEN


def _rows(text):
    """The (invocation, exit code, stdout digest, stderr digest) rows of a
    golden file's text."""
    rows = []
    for line in text.splitlines():
        code, out, err, invocation = line.split("\t")
        rows.append((invocation, code, out, err))
    return rows


def test_append_writes_only_the_missing_rows(tmp_path):
    full = GOLDEN.read_text(encoding="utf-8")
    lines = full.splitlines(keepends=True)
    copy = tmp_path / "golden_cli.tsv"
    copy.write_text("".join(lines[:-3]), encoding="utf-8")
    assert append_rows(copy, _rows(full)) == 0
    assert copy.read_text(encoding="utf-8") == full
    assert append_rows(copy, _rows(full)) == 0
    assert copy.read_text(encoding="utf-8") == full


def test_append_refuses_a_changed_or_dropped_row(tmp_path):
    full = GOLDEN.read_text(encoding="utf-8")
    rows = _rows(full)
    copy = tmp_path / "golden_cli.tsv"
    held = "".join(full.splitlines(keepends=True)[:-3])
    copy.write_text(held, encoding="utf-8")
    invocation, code, out, err = rows[5]
    changed = rows[:5] + [(invocation, code, "0" * 64, err)] + rows[6:]
    assert append_rows(copy, changed) == 1
    assert copy.read_text(encoding="utf-8") == held
    assert append_rows(copy, rows[:5] + rows[6:]) == 1
    assert copy.read_text(encoding="utf-8") == held


def test_append_refuses_a_new_invocation_before_the_held_ones(tmp_path):
    # the golden test reads the invocations in transcript order, so a row
    # appended after the held ones would fail it
    full = GOLDEN.read_text(encoding="utf-8")
    rows = _rows(full)
    copy = tmp_path / "golden_cli.tsv"
    lines = full.splitlines(keepends=True)
    held = "".join(lines[:5] + lines[6:-3])
    copy.write_text(held, encoding="utf-8")
    assert append_rows(copy, rows) == 1
    assert copy.read_text(encoding="utf-8") == held
