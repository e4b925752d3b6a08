"""The README's library example and CLI walkthrough run as written, and its
defaults are the CLI's."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import cli_env
from xmodhash import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "model.amh").exists()
    assert float(capsys.readouterr().out) > 0.9


def test_readme_cli_walkthrough_runs(tmp_path):
    section = README.read_text().split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    outputs = {}
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "xmodhash", line
        done = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=cli_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, f"{line}\n{done.stderr}"
        outputs[argv[1]] = done.stdout
    assert list(outputs) == ["synth", "train", "encode", "eval", "bench"]
    for name in ("data/x1.amx", "model.amh", "q.abc", "db.abc"):
        assert (tmp_path / name).exists()
    assert outputs["eval"].startswith("metric,task,bits,value\nmap,i2t,32,")
    assert "precision_at_100,i2t,32," in outputs["eval"]
    assert outputs["bench"].splitlines()[-1].startswith("slope,32,")


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
