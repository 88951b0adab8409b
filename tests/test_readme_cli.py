"""README's two CLI tables say what ``build_parser()`` and ``CONFIG_KEYS`` say.

The "its own flags" table lists each subcommand's flags in declaration order,
leaving out the ``--config``, ``--seed`` and ``--out`` every subcommand shares,
with a positional written as ``[name]``. The "config keys it reads" table
lists ``CONFIG_KEYS`` in its order.
"""

import argparse
import re
from pathlib import Path

from attnlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
COMMON = ("--config", "--seed", "--out")


def _table(header: str) -> dict[str, list[str]]:
    """The rows of the README table under ``header``: first cell -> backticked items."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, items = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = re.findall(r"`([^`]+)`", items)
    return rows


def _own_flags() -> dict[str, list[str]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: [
            a.option_strings[0] if a.option_strings else f"[{a.dest}]"
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }
    return {name: [f for f in names if f not in COMMON] for name, names in flags.items()}


def test_readme_flag_table_matches_the_parser():
    assert _table("| subcommand | its own flags |") == _own_flags()


def test_readme_config_key_table_matches_config_keys():
    table = _table("| command | config keys it reads |")
    assert table == {command: list(keys) for command, keys in cli.CONFIG_KEYS.items()}
