"""README's library example runs as written, so it cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})
    labels, iters, converged, stop_reason = capsys.readouterr().out.splitlines()[0].rsplit(" ", 3)
    assert labels.startswith("[") and int(iters) >= 1
    assert converged == str(stop_reason == "converged")
