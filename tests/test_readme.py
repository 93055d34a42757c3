"""The README's quick start runs as written."""
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_written():
    # the first python block: exact, averaged and grid quadrature, and the
    # Monte Carlo cross-check by keyword (z0, v0, cfg)
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == block.count("print(")
    s_mc, pm, ci = lines[-1].split()
    assert pm == "+/-" and 0.0 < float(s_mc) < 1.0 and float(ci) > 0.0
