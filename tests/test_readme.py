"""The README's documented invocations, run as written.

Core claims:
    - every `$ fgw ...` line of the "Command line" block exits with its
      documented code: 0 for each, and 1 for `verify all`, whose qn grid
      holds the documented failure
    - `fgw convolve --n 2 --m 2 --oracle` prints exactly the JSON shown
    - the "Python API" block runs as written
"""

import re
import shlex
from pathlib import Path

import pytest

from fgw.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first fenced lang block under the given level-2 heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _invocations() -> list:
    """(argv, lines printed under it) for each `$ fgw` line of the command-line block."""
    out = []
    for line in _block("Command line", "sh").splitlines():
        if line.startswith("$ fgw "):
            out.append((shlex.split(line[len("$ fgw "):]), []))
        elif out and line and not line.startswith("#"):
            out[-1][1].append(line)
    return out


INVOCATIONS = _invocations()
EXIT_CODES = [0, 0, 0, 0, 1]


def test_readme_lists_the_documented_invocations():
    assert [argv[:2] for argv, _ in INVOCATIONS] == [
        ["convolve", "--n"],
        ["norms", "--p"],
        ["search", "--f"],
        ["verify", "lemma1"],
        ["verify", "all"],
    ]


@pytest.mark.parametrize(
    "argv, shown, code",
    [(argv, shown, code) for (argv, shown), code in zip(INVOCATIONS, EXIT_CODES)],
    ids=[argv[0] if argv[0] != "verify" else f"verify-{argv[1]}" for argv, _ in INVOCATIONS],
)
def test_readme_invocation_exits_with_its_documented_code(
    tmp_path, monkeypatch, capsys, argv, shown, code
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out = capsys.readouterr().out
    if shown:
        assert out == "\n".join(shown) + "\n"


def test_readme_python_api_block_runs():
    namespace = {}
    exec(_block("Python API", "python"), namespace)
    # the values its comments state
    assert list(namespace["h"].coeffs) == [12, 0, 2, 0, 1]
    assert namespace["est"]["family"] == "sphere-unions"
