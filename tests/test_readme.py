"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from vopqkd import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", library, re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    sift_rate, qber, eve_info = map(float, lines[0].split())
    assert abs(sift_rate - 0.25) < 0.01 and abs(qber - 0.5) < 0.02 and abs(eve_info - 0.5) < 0.01


def test_command_line_block_runs(monkeypatch, tmp_path):
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("vopqkd ")]
    monkeypatch.chdir(tmp_path)
    codes = [cli.main(shlex.split(line)[1:]) for line in lines]
    # the intercept/resend line aborts on detection by design
    assert codes == [0, 0, 3, 0, 0]
    assert {"records.jsonl", "summary.json", "check.csv"} <= {p.name for p in tmp_path.iterdir()}
