"""README's two CLI tables say what ``build_parser()`` and ``CONFIG_KEYS`` say,
and its Quick start runs and does what its comment says.

The "its own flags" table lists each subcommand's flags in declaration order,
leaving out the ``--config``, ``--seed`` and ``--out`` every subcommand shares,
with a positional written as ``[name]``. The "config keys it reads" table
lists ``CONFIG_KEYS`` in its order.
"""

import argparse
import re
from pathlib import Path

import numpy as np

from attnlab import cli
from attnlab.attention import scaled_logits

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


def test_readme_quick_start_runs_and_scales_only_the_conditioning_columns():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# res.logits has the text/image columns scaled by 1.35; video columns untouched" in block
    scope = {}
    exec(compile(block, "README.md Quick start", "exec"), scope)
    res, part = scope["res"], scope["part"]
    plain = scaled_logits(scope["q"], scope["k"])
    cond, video = slice(part.conditioning.stop), slice(part.video.start, None)
    assert res.gamma == 1.35
    np.testing.assert_allclose(res.logits[:, cond], 1.35 * plain[:, cond], rtol=1e-14)
    assert np.array_equal(res.logits[:, video], plain[:, video])
