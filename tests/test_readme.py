"""The README's library quick tour runs as written, and its CLI docs name real options."""

import re
from dataclasses import fields
from pathlib import Path

from ldpvec.cli import main
from ldpvec.harness import ExperimentConfig

README = Path(__file__).parent.parent / "README.md"


def _first_block_after(heading: str, fence: str) -> str:
    section = README.read_text().split(heading, 1)[1]
    return re.search(rf"```{fence}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs(capsys):
    code = _first_block_after("## Library quick tour", "python")
    namespace: dict = {}
    exec(compile(code, "README.md (library quick tour)", "exec"), namespace)
    # two frequency vectors that each sum to s are at most 2s apart in TVE
    assert 0.0 < float(capsys.readouterr().out) < 2 * namespace["s"]
    assert 0.0 < namespace["eps_c"] < 1.0


def test_cli_examples_use_only_real_options():
    # join backslash continuations, then check each "ldpvec <cmd>" line's flags
    commands = _first_block_after("## CLI", "sh").replace("\\\n", " ")
    checked = set()
    for line in commands.splitlines():
        words = line.split()
        if words[:1] != ["ldpvec"]:
            continue
        cmd = main.commands[words[1]]
        options = {opt for param in cmd.params for opt in param.opts}
        flags = [w for w in words[2:] if w.startswith("--")]
        assert set(flags) <= options, f"ldpvec {words[1]}: unknown {sorted(set(flags) - options)}"
        checked.add(words[1])
    assert checked == set(main.commands)


def test_config_example_uses_only_config_fields():
    block = _first_block_after("Config files are flat", "")
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys and keys <= {f.name for f in fields(ExperimentConfig)}
