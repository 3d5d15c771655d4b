"""The README's CLI walkthrough and library example run as written."""

import re
import shlex
from pathlib import Path

from lrcirc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code(title: str, lang: str) -> str:
    """The first `lang` code block of the README section `title`."""
    section = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    script = _code("CLI walkthrough", "sh")
    path, text = re.search(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", script, re.S).groups()
    monkeypatch.chdir(tmp_path)
    Path(path).write_text(text, encoding="utf-8")
    commands = [shlex.split(line)[1:] for line in script.replace("\\\n", " ").splitlines()
                if line.startswith("lrc ")]
    assert {argv[0] for argv in commands} == {
        "compile", "run", "analyze", "audit", "noise-equiv", "report"}
    for argv in commands:
        assert main(argv) == 0, " ".join(argv)
        capsys.readouterr()


def test_library_example_runs(capsys):
    exec(_code("Library use", "python"), {})
    assert capsys.readouterr().out
