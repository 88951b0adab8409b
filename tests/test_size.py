"""The size measure of ``tools/size.py``: code tokens without comments, layout or docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_size():
    spec = importlib.util.spec_from_file_location("attnlab_size", ROOT / "tools" / "size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring."""

# A comment.
def f(x):
    """Function docstring,
    over two lines."""
    y = "not a docstring"  # trailing comment
    return x + 1


class C:
    "Class docstring."

    def g(self):
        return "a" "b"
'''


def test_code_tokens_skip_docstrings_comments_and_layout():
    size = _load_size()
    # def f ( x ) :            6
    # y = "not a docstring"    3
    # return x + 1             4
    # class C :                3
    # def g ( self ) :         6
    # return "a" "b"           3
    assert size.code_tokens(SNIPPET) == 25


def test_main_prints_a_row_per_module_and_the_total(capsys):
    size = _load_size()
    assert size.main([str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted((ROOT / "src" / "attnlab").glob("*.py"))
    assert [line.split()[0] for line in lines] == [p.name for p in modules] + ["total"]
    tokens = [int(line.split()[-2]) for line in lines]
    assert tokens[-1] == sum(tokens[:-1])
