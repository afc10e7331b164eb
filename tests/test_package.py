"""The package's public surface, and what a fresh interpreter loads to use it.

Only the shuffle accountant (``ldpvec.amplification``) needs scipy, so its
names load on first access and the CLI's other commands start without it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ldpvec

ACCOUNTANT = {
    "AmplificationQuery", "DivergenceResult", "amplified_epsilon", "collision_alpha",
    "efmrtt_closed_form", "generic_clone_alpha", "pq_divergence",
}


def _fresh_python(code: str, *argv: str) -> list:
    """Run ``code`` with ``argv`` in a new interpreter on this package; return its JSON stdout lines."""
    src = str(Path(ldpvec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


CLI_STEPS = """
import json, sys
from click.testing import CliRunner
import ldpvec.cli

def step(name, code):
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps([name, code, scipy]))

step("import ldpvec.cli", 0)
for args in json.loads(sys.argv[1]):
    res = CliRunner().invoke(ldpvec.cli.main, args)
    step(args[0], res.exit_code)
"""


def test_only_the_accountant_loads_scipy(tmp_path):
    estimates = tmp_path / "est.csv"
    estimates.write_text("0.8,0.4,0.0,-0.2\n")
    commands = [
        ["simulate", "--master-seed", "1", "--n", "50", "--d", "4", "--s", "2", "--epsilon", "1.0",
         "--repetitions", "1", "--mechanism", "collision,coco,privkv"],
        ["gen", "--n", "3", "--d", "6", "--s", "2", "--seed", "1"],
        ["project", "--s", "1", "--in", str(estimates)],
        ["amplify", "--n", "500", "--s", "2", "--epsilon", "0.5"],
    ]
    steps = _fresh_python(CLI_STEPS, json.dumps(commands))
    assert [name for name, _, _ in steps] == ["import ldpvec.cli", "simulate", "gen", "project", "amplify"]
    for name, code, scipy in steps[:-1]:
        assert (name, code, scipy) == (name, 0, [])
    name, code, scipy = steps[-1]
    assert code == 0 and "scipy.special" in scipy


def test_every_public_name_is_its_submodule_object():
    assert ACCOUNTANT <= set(ldpvec.__all__)
    for name in ldpvec.__all__:
        obj = getattr(ldpvec, name)
        if name in ACCOUNTANT:
            assert obj is getattr(ldpvec.amplification, name)
        elif isinstance(obj, type(ldpvec)):
            assert obj is sys.modules[f"ldpvec.{name}"]
        else:
            assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_binds_every_public_name():
    (bound,) = _fresh_python(
        "import json\n"
        "from ldpvec import *\n"
        "import ldpvec\n"
        "print(json.dumps([name in globals() for name in ldpvec.__all__]))\n"
    )
    assert bound and all(bound)


def test_a_fresh_package_resolves_the_accountant_module_by_attribute():
    (name,) = _fresh_python("import json, ldpvec\nprint(json.dumps(ldpvec.amplification.__name__))\n")
    assert name == "ldpvec.amplification"


def test_dir_lists_the_lazy_names():
    assert ACCOUNTANT | {"amplification"} <= set(dir(ldpvec))
    assert set(ldpvec.__all__) <= set(dir(ldpvec))


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'ldpvec' has no attribute 'no_such_name'"):
        ldpvec.no_such_name
    assert not hasattr(ldpvec, "amplified_epsilons")


def test_a_query_imports_no_root_finder():
    # a benchmark round of the accountant is one timed operation, so a lazy scipy.optimize (~0.2 s) would land in it
    code = (
        "import json, sys; from ldpvec.amplification import amplified_epsilon;"
        "print(json.dumps([amplified_epsilon(10_000, 1.0, 0.2, 1e-6), 'scipy.optimize' in sys.modules]))"
    )
    ((eps_c, optimize),) = _fresh_python(code)
    assert 0.0 < eps_c < 1.0 and not optimize
