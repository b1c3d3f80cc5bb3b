"""The README's quickstarts run as written.

The shell block under "Quickstart (CLI)" is run in a fresh directory: each
heredoc writes its file, and each `selcert ...` command goes through
`selcert.cli.main`. A command must exit 0, and where `# ...` lines follow it,
they must be its standard output, line for line. The Python block under
"Quickstart (library)" runs in a fresh directory holding the golden
calibration and test files as `calib.csv` and `test.csv`.

Every name the prose quotes in backticks that is dotted, or starts with a
capital letter or an underscore, is a name of the package: an attribute of
`selcert` or of one of its modules, with a leading `selcert.` dropped. A
table's column, such as `Dataset.scores`, is an attribute of each instance,
so a table class's `_columns` names count as its attributes.
"""

import importlib
import pkgutil
import re
import shlex
import shutil
from pathlib import Path

import selcert
from selcert.cli import main
from selcert.records import ColumnTable

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


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


def test_library_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for name in ("calib.csv", "test.csv"):
        shutil.copy(GOLDEN_INPUTS / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), "README.md", "exec"), {})  # a SystemExit here is an infeasible certificate
    lambda_hat, accuracy, retain_rate = map(float, capsys.readouterr().out.split())
    assert lambda_hat == 0.7070000000000001
    assert 0 < accuracy <= 1 and 0 < retain_rate <= 1


# quoted names that are not the package's: JSON's literals and a quickstart variable
NOT_PACKAGE_NAMES = {"NaN", "Infinity", "cert.lambda_hat"}


def package_names() -> list:
    """The names in the README's prose, outside code blocks, that must be the package's."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", prose))
    return sorted({name for name in names if "." in name or not name[0].islower()} - NOT_PACKAGE_NAMES)


def _resolves(name: str, modules: list) -> bool:
    head, *rest = name.removeprefix("selcert.").split(".")
    for owner in [getattr(module, head) for module in modules if hasattr(module, head)]:
        for part in rest:
            table = isinstance(owner, type) and issubclass(owner, ColumnTable)
            owner = part if table and part in getattr(owner, "_columns", ()) else getattr(owner, part, None)
        if owner is not None:
            return True
    return False


def test_readme_names_are_the_packages():
    # importing __main__ would run the command line
    modules = [selcert, *(importlib.import_module(f"selcert.{module.name}")
                          for module in pkgutil.iter_modules(selcert.__path__) if module.name != "__main__")]
    names = package_names()
    assert len(names) > 30 and {"Dataset.scores", "calibrate._grid"} <= set(names)
    assert [name for name in names if not _resolves(name, modules)] == []
