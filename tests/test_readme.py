"""The README's library example runs as printed."""
import contextlib
import io
import re
from pathlib import Path

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
