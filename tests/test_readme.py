import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # README's first python block is the library example; a renamed or
    # removed API in it fails here.
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 4
