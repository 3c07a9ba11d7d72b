"""README's library quick start runs as written, so it cannot name a removed or renamed function."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    p_value, log2_t = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < p_value < 1e-100 and log2_t > 300.0
