"""The README's library quick tour runs as written, its CLI docs name real options, and its code names are real."""

import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import ldpvec
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


# Backticked snake_case names in the README that are no library attribute: CSV columns, a metric name and test names.
NOT_API = {
    "eps_c", "epsilon_c", "log2_amplification", "setup_s",
    "test_criterion_6_mechanism_ordering", "test_ordering_at_high_dimension",
}


def test_backticked_code_names_resolve():
    # a backticked name, or a call of one, resolves when it is dotted from an ``ldpvec`` module or a library attribute
    # (``domain.layout_law``, ``CollisionRates.mean_denominator``), or is a bare snake_case attribute of the package or
    # one of its modules; a file name (``oracle.py``) and a name from elsewhere (``np.bincount``) are not read
    names = [info.name for info in pkgutil.iter_modules(ldpvec.__path__)]
    modules = {name: importlib.import_module(f"ldpvec.{name}") for name in names}
    owners = [ldpvec, *modules.values()]
    resolved, unresolved = set(), set()
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)  # code blocks have their own tests
    for token in re.findall(r"`([^`]+)`", prose):
        match = re.fullmatch(r"(?:ldpvec\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*)?", token, re.S)
        if not match or match.group(1).endswith(".py"):
            continue
        head, *attrs = match.group(1).split(".")
        if attrs:
            owner = modules.get(head) or next((getattr(o, head) for o in owners if hasattr(o, head)), None)
            if owner is None:
                continue
            for attr in attrs:
                owner = getattr(owner, attr, None)
            found = owner is not None
        elif re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)+", head):
            found = any(hasattr(o, head) for o in owners)
        else:
            continue
        (resolved if found else unresolved).add(match.group(1))
    assert {"domain.layout_law", "aggregate.target_values", "aggregate_frequencies", "verify_ldp"} <= resolved
    assert unresolved <= NOT_API, f"README names no library attribute: {sorted(unresolved - NOT_API)}"
