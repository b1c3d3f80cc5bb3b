"""The README's CLI quickstart runs as written.

The shell block under "Quickstart (CLI)" is run in a fresh directory: each
heredoc writes its file, and each `selcert ...` command goes through
`selcert.cli.main`. A command must exit 0, and where `# ...` lines follow it,
they must be its standard output, line for line.
"""

import re
import shlex
from pathlib import Path

from selcert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_steps() -> list:
    """The CLI quickstart as ("write", name, text) and ("run", argv, expected output lines) steps."""
    block = re.search(r"## Quickstart \(CLI\)\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = iter(block.group(1).replace("\\\n", " ").splitlines())
    steps = []
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:  # the file's lines run up to the EOF line
            body = iter(lines.__next__, "EOF")
            steps.append(("write", heredoc.group(1), "".join(f"{row}\n" for row in body)))
        elif line.startswith("selcert "):
            steps.append(("run", shlex.split(line)[1:], []))
        elif line.startswith("# "):
            steps[-1][2].append(line[2:])
        else:
            assert not line.strip(), f"unexpected quickstart line {line!r}"
    return steps


def test_quickstart_block_is_read_whole():
    steps = quickstart_steps()
    assert [step[0] for step in steps] == ["write"] + ["run"] * 5
    assert [step[1][0] for step in steps[1:]] == ["calibrate", "apply", "evaluate", "tradeoff", "simulate"]
    assert steps[1][2] == ["feasible: lambda_hat=0.6 from 6 calibration records"]


def test_cli_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for kind, target, body in quickstart_steps():
        if kind == "write":
            Path(target).write_text(body, encoding="utf-8")
            continue
        assert main(target) == 0, target
        out = capsys.readouterr().out
        if body:  # the command's expected output lines
            assert out.splitlines() == body, target
