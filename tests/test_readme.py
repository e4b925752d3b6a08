"""The README's library example runs as written, and its defaults are the CLI's."""

import re
from pathlib import Path

from xmodhash import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "model.amh").exists()
    assert float(capsys.readouterr().out) > 0.9


def test_readme_training_defaults_match_the_cli():
    # the defaults `xmodhash train --help` prints come from the CLI spec, and
    # through it from TrainConfig; the README's list must not drift from them
    paragraph = README.read_text().split("Key training defaults", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`(--[\w/-]+) ([^`]+)`", paragraph)
    defaults = {opt.flag: opt.default for opt in cli._SPECS["train"]}
    flags = [flag for group, _ in named for flag in group.split("/")]
    assert {"--omega", "--max-iters", "--tol"} <= set(flags)
    for group, value in named:
        for flag in group.split("/"):
            assert float(value) == float(defaults[flag]), f"README says {flag} {value}"
