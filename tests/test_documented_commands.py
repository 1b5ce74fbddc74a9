"""Every `slab` command line of README.md and of the CI smoke step parses
with the CLI's own parser, so a renamed or deleted flag fails here.  The
lines are parsed only, not run."""

import shlex
from pathlib import Path

import pytest

from statutelab import cli

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SMOKE_STEP = "- name: Smoke test of the installed slab script"


def _joined(lines):
    """The lines with each `\\` continuation joined to the line after it."""
    out, part = [], ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            part += line.rstrip()[:-1] + " "
        else:
            out.append(part + line)
            part = ""
    return out + ([part] if part else [])


def _slab_argvs(lines):
    """The argv after `slab` of each line that runs it, up to a `>`
    redirect; a flag shown as optional, like `[--chunk]`, is given."""
    argvs = []
    for line in _joined(lines):
        if line.lstrip().startswith("slab "):
            words = shlex.split(line, comments=True)[1:]
            words = words[: words.index(">")] if ">" in words else words
            argvs.append([w[1:-1] if w.startswith("[") and w.endswith("]") else w for w in words])
    return argvs


def _smoke_step_lines():
    """The lines of the smoke step's `run: |` block."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == SMOKE_STEP)
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return block


SOURCES = {
    "README.md": _slab_argvs((ROOT / "README.md").read_text(encoding="utf-8").splitlines()),
    "tests.yml": _slab_argvs(_smoke_step_lines()),
}


def test_each_source_has_slab_lines():
    assert len(SOURCES["README.md"]) >= 25
    assert len(SOURCES["tests.yml"]) >= 20


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_documented_slab_line_parses(source, capsys):
    parser = cli._build_parser()
    for argv in SOURCES[source]:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{source}: slab {shlex.join(argv)}: {capsys.readouterr().err.strip()}")
        assert getattr(args, "handler", None) is not None, argv
