"""Rewrite ``tests/golden_cli.tsv`` from the current code.

Run it only when an output change is intended, and say why in the change:

    PYTHONPATH=src python tests/regenerate_golden.py

With ``--append`` it writes only the rows of invocations that the file does
not hold yet, after the rows it holds, so new rows can be recorded from code
whose existing rows must not move.  It exits 1 and writes nothing unless the
rows the file holds are, in order, the first rows the code produces, so it
refuses an existing row that would change, is gone or has moved, and a new
invocation placed anywhere but after the last held one:

    PYTHONPATH=src python tests/regenerate_golden.py --append
"""

import argparse
import sys
import tempfile
from pathlib import Path

from test_golden import GOLDEN, format_rows, transcript


def append_rows(golden: Path, rows) -> int:
    """Append to ``golden`` the ``rows`` after those it holds; 1, with the
    file untouched, unless the rows it holds are, in order, the first of
    ``rows``.  The golden test reads the invocations in transcript order, so
    a new invocation anywhere but at the end cannot be appended."""
    text = golden.read_text(encoding="utf-8")
    held = text.splitlines(keepends=True)
    produced = [format_rows([row]) for row in rows]
    if produced[:len(held)] != held:
        first = next(i for i, line in enumerate(held)
                     if i >= len(produced) or produced[i] != line)
        invocation = held[first].rstrip("\n").split("\t")[3]
        print(f"row {first + 1} would change: {invocation}", file=sys.stderr)
        return 1
    new = produced[len(held):]
    golden.write_text(text + "".join(new), encoding="utf-8")
    print(f"appended {len(new)} rows to {golden}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--append", action="store_true",
                        help="write only the rows of new invocations")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = transcript(workdir)
    if args.append:
        return append_rows(GOLDEN, rows)
    GOLDEN.write_text(format_rows(rows), encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
