"""Rewrite ``tests/golden_cli.tsv`` from the current code.

Run it only when an output change is intended, and say why in the change:

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import tempfile

from test_golden import GOLDEN, format_rows, transcript

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        GOLDEN.write_text(format_rows(transcript(workdir)), encoding="utf-8")
    print(f"wrote {GOLDEN}")
