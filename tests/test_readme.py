"""The README's library example runs as printed, and its flags table
matches the parser."""
import contextlib
import dataclasses
import io
import re
from pathlib import Path

from darcydd.cli import RunConfig, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_converges():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].converged
    iterations = int(out.getvalue().split()[0])
    assert iterations == namespace["report"].iterations > 0


def _cell(value) -> str:
    """A default as the flags table writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def test_flags_table_matches_parser():
    """Every option has one row, and every row's default is the one
    RunConfig (or, for --suite and --quiet, main) applies."""
    text = README.read_text()
    section = text[text.index("## Command line") : text.index("### Benchmark")]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `(--[a-z-]+)[^`]*` \|.*\| *([^|]*?) *\|$", line)
        if match:
            assert match.group(1) not in rows, line
            rows[match.group(1)] = match.group(2)
    defaults = {**dataclasses.asdict(RunConfig()), "suite": None, "quiet": False}
    options = {
        action.option_strings[0]: action.dest
        for action in build_parser()._actions
        if action.dest != "help"
    }
    assert set(rows) == set(options)
    for flag, dest in options.items():
        default = defaults[dest]
        if isinstance(default, float):
            assert float(rows[flag]) == default, flag
        else:
            assert rows[flag] == _cell(default), flag
