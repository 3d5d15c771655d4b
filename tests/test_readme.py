"""The README's CLI walkthrough and library example run as written."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import numpy as np

from lrcirc.circuits import evaluate_batch
from lrcirc.cli import main
from lrcirc.compiler import compile_circuit
from lrcirc.lab import encoded_secret_rows
from lrcirc.netlist import parse_netlist

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


MODULES = ("channels", "circuits", "cli", "compiler", "faults", "lab", "netlist", "steane")
# dotted names in the README that are not lrcirc's: numpy's Generator, the
# standard library and a file name
FOREIGN = {"Generator", "json", "math", "pyproject"}


def _namespaces() -> dict:
    """Each name a dotted README reference may start with: the package, its
    modules and every class they define, a class paired with a built
    instance where one holds attributes set per instance."""
    modules = {name: importlib.import_module(f"lrcirc.{name}") for name in MODULES}
    spaces = {"lrcirc": [importlib.import_module("lrcirc")]}
    spaces.update((name, [mod]) for name, mod in modules.items())
    for mod in modules.values():
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                spaces[name] = [obj]
    target = compile_circuit(parse_netlist("in secret a\nin secret b\nout c\ngate TOF a b c\n"))
    rng = np.random.default_rng(0)
    batch = evaluate_batch(target.circuit, encoded_secret_rows(target, [1, 0], 4, rng), [],
                           rng.integers(0, 2, size=(4, target.circuit.rand_count)))
    for obj in (target, target.circuit, batch):
        spaces[type(obj).__name__].append(obj)
    return spaces


def _resolves(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    # every backticked `module.name` or `Class.name`, call arguments dropped
    spaces = _namespaces()
    refs = [ref.split(".") for ref in
            sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)[^`]*`", README)))]
    ours = [(head, rest) for head, *rest in refs if head not in FOREIGN]
    assert len(ours) >= 20
    unresolved = [".".join([head, *rest]) for head, rest in ours
                  if not any(_resolves(obj, rest) for obj in spaces.get(head, ()))]
    assert unresolved == []
