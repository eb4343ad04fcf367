"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    sift_rate, qber, eve_info = map(float, lines[0].split())
    assert abs(sift_rate - 0.25) < 0.01 and abs(qber - 0.5) < 0.02 and abs(eve_info - 0.5) < 0.01
