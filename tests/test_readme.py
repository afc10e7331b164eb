"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_tour_runs(capsys):
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md (library quick tour)", "exec"), namespace)
    # two frequency vectors that each sum to s are at most 2s apart in TVE
    assert 0.0 < float(capsys.readouterr().out) < 2 * namespace["s"]
    assert 0.0 < namespace["eps_c"] < 1.0
