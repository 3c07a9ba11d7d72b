"""README's quick starts run as written, so they cannot name a removed or renamed function or flag."""
import argparse
import builtins
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import bellcert
from bellcert import Scenario, born_distribution, chsh_config, sample_encoded, write_trials
from bellcert.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    p_value, log2_t = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < p_value < 1e-100 and log2_t > 300.0


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    # every bellcert line of the CLI quick start, continuation lines joined, exits 0
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "bellcert"]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    # the recorded data the quick start's analyze command reads
    q = born_distribution(*chsh_config(0.6))
    write_trials("data.jsonl", Scenario(2, 2, 2), sample_encoded(q, 2000, seed=3))
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_flag_table_lists_every_registered_option():
    # the table under "Each command takes only the flags it reads" names exactly each command's --options
    section = README.read_text(encoding="utf-8").split("Each command takes only the flags it reads:", 1)[1]
    rows = re.findall(r"^\| `(\w+)[^|]*\|(.*)\|$", section.split("\n\n", 2)[1], re.MULTILINE)
    table = {command: set(re.findall(r"`(--[a-z-]+)", cells)) for command, cells in rows}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    registered = {
        name: {o for action in p._actions for o in action.option_strings if o.startswith("--")} - {"--help"}
        for name, p in commands.items()
    }
    assert table == registered


def test_every_function_the_readme_calls_exists():
    # each `name(` inside an inline code span names something in bellcert, one of its submodules, or a builtin
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    called = {name for span in re.findall(r"`([^`]+)`", prose) for name in re.findall(r"([A-Za-z_]\w*)\(", span)}
    submodules = pkgutil.iter_modules(bellcert.__path__, "bellcert.")
    modules = [bellcert, builtins] + [importlib.import_module(m.name) for m in submodules]
    missing = sorted(name for name in called if not any(hasattr(m, name) for m in modules))
    assert called and not missing
