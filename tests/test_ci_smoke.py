"""The CI smoke step, replayed in process on the fixtures.

Each line of the step's `run: |` block runs here, from a temp directory as
the step runs from the runner's: `slab ...` through `statutelab.cli.main`
(a `>` redirect writes its stdout to the file), `cmp A B` as a byte
comparison, `python script.py ...` through runpy, and `python -c ...` as a
subprocess on this checkout's sources.  The line that installs the package is the one line
skipped, since the replay runs `src/`.  A line of any other kind fails the
test, so the step cannot grow a check that the replay leaves out."""

import contextlib
import os
import runpy
import shlex
import subprocess
import sys

import pytest

from statutelab import cli
from test_documented_commands import ROOT, _joined, _smoke_step_lines

INSTALL = 'python -m pip install "$GITHUB_WORKSPACE"'


def _commands():
    """The block's commands, continuations joined, without blank lines,
    comments and `set -ex`."""
    lines = [line.strip() for line in _joined(_smoke_step_lines())]
    return [line for line in lines if line and not line.startswith("#") and line != "set -ex"]


def _run(line: str) -> None:
    words = shlex.split(line.replace("$GITHUB_WORKSPACE", str(ROOT)))
    if words[0] == "slab":
        argv = words[1:]
        with contextlib.ExitStack() as stack:
            if ">" in argv:
                argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1 :]
                assert len(target) == 1, line
                stack.enter_context(contextlib.redirect_stdout(stack.enter_context(open(target[0], "w"))))
            code = cli.main(argv)
        assert code == 0, line
    elif words[0] == "cmp":
        assert len(words) == 3, line
        with open(words[1], "rb") as a, open(words[2], "rb") as b:
            assert a.read() == b.read(), line
    elif words[:2] == ["python", "-c"]:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, *words[1:]], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{line}\n{proc.stderr}"
    elif words[0] == "python" and words[1].endswith(".py"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "argv", words[1:])
            runpy.run_path(words[1], run_name="__main__")
    else:
        raise AssertionError(f"the smoke replay does not know the line: {line}")


def test_the_smoke_step_replays_in_process(tmp_path, monkeypatch):
    commands = _commands()
    assert commands[0] == INSTALL and INSTALL not in commands[1:]
    assert sum(c.startswith("cmp ") for c in commands) >= 10
    monkeypatch.chdir(tmp_path)
    for line in commands[1:]:
        _run(line)
