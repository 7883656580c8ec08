"""The code-line counter that `tests/code_lines.py` runs over the package."""

from code_lines import PACKAGE, code_lines, main

SNIPPET = "\n".join([
    "'''Module docstring",
    "over two lines.'''",
    "",
    "import os  # a comment after code",
    "",
    "# a comment-only line",
    "",
    "",
    "class Thing:",
    '    """Class docstring."""',
    "",
    "    def method(self):",
    '        """Function',
    '        docstring."""',
    '        text = """a string',
    '    that is not a docstring"""',
    "        return text",
    "",
])


def test_snippet_count():
    # import, class, def, the two lines of the string, return
    assert code_lines(SNIPPET) == 6


def test_main_prints_each_module_and_the_total(capsys):
    assert main([]) == 0
    lines = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count.replace(",", "")) for name, count in lines}
    modules = sorted(PACKAGE.glob("*.py"))
    assert [name for name, _ in lines] == [path.name for path in modules] + ["total"]
    assert counts["total"] == sum(counts[path.name] for path in modules)
    assert all(counts[path.name] == code_lines(path.read_text(encoding="utf-8"))
               for path in modules)
