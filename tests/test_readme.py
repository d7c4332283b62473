"""The README's library quick start and CLI examples run as written."""

import dataclasses
import re
import shlex
from pathlib import Path

from numpy.testing import assert_allclose

import fastproj
from fastproj.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["result"].certified
    assert_allclose(scope["result"].x_hat, [1.0, 0.0], atol=1e-3)
    assert_allclose(scope["x"], [1.0, 0.0], atol=1e-6)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    argvs = [shlex.split(cmd)[1:] for cmd in commands if cmd]
    argvs = [argv for argv in argvs if argv[0] != "bench"]  # bench takes minutes
    assert [argv[0] for argv in argvs] == ["gen", "gen", "solve", "verify", "trace", "project-norm"]
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        assert main(argv) == 0, argv


def test_readme_names_every_solver_knob_and_export():
    section = README.read_text().split("`SolverConfig` knobs:", 1)[1].split("\n## ", 1)[0]
    knobs = re.findall(r"^\* `(\w+)`:", section, re.M)
    assert knobs == [f.name for f in dataclasses.fields(fastproj.SolverConfig)]
    for name in fastproj.__all__:
        assert hasattr(fastproj, name), name
