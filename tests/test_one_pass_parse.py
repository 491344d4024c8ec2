"""Every ``lcoalg`` command of the benchmark is read in one argparse pass:
``cli._parse`` runs only the subcommand's parser, and the top-level parser
parses nothing.  One seed-1 cycle of each command workload, every operation
run once through the benchmark's own ``worker.execute``, makes no top-level
parse.  A command with an unrecognised argument, which goes to the full
parse, shows that the count sees a parse."""

import importlib
import sys
from pathlib import Path

import pytest

from lcoalg import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


def _counting(monkeypatch, parser):
    calls = []
    real = parser.parse_known_args

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    return calls


@pytest.mark.parametrize("name", ["complex", "verify", "build"])
def test_a_command_cycle_makes_no_top_level_parse(name, tmp_path, monkeypatch):
    # The workload finds its modules in sys.modules, as in a worker.
    ops = workloads.build(name, 1, str(tmp_path))
    for module in {op.call[0] for op in ops if op.call}:
        importlib.import_module(module)
    assert any(op.argv is not None for op in ops)
    calls = _counting(monkeypatch, cli._parser())
    failures = []
    for op in ops:
        failure = worker.execute(op, workloads)[2]
        if failure is not None:
            failures.append(f"{op.name}: {failure}")
    assert failures == []
    assert calls == []


def test_the_count_sees_a_full_parse(monkeypatch, capsys):
    calls = _counting(monkeypatch, cli._parser())
    assert cli.main(["fixtures", "group", "extra"]) == 2
    assert "unrecognized arguments: extra" in capsys.readouterr().err
    assert len(calls) == 1
