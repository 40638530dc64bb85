"""The README stays true: its Public API list is `aoiq.__all__`, module by
module, and its Python examples run."""

import re
from pathlib import Path

import aoiq

README = Path(__file__).resolve().parents[1] / "README.md"


def section(text, heading):
    """The lines of a `## ` section, up to the next `## ` heading."""
    body = text.split(f"\n## {heading}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def api_list(text):
    """{module: [names]} from the Public API section: one `### `aoiq.mod``
    heading per module, one `- `name`` line per name."""
    out, module = {}, None
    for line in section(text, "Public API").splitlines():
        if m := re.fullmatch(r"### `aoiq\.(\w+)`", line):
            module = m[1]
            out[module] = []
        elif m := re.match(r"- `(\w+)`", line):
            out[module].append(m[1])
    return out


def test_readme_api_list_is_the_package_all():
    listed = api_list(README.read_text(encoding="utf-8"))
    assert {m: getattr(aoiq, m).__all__ for m in listed} == listed
    flat = [name for names in listed.values() for name in names]
    assert flat == [n for n in aoiq.__all__ if n != "__version__"]


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert printed and all(0.0 <= float(v) <= 1.0 for v in printed)
