"""The README as an executable contract.

Its `>>>` examples run through doctest, with ELLIPSIS for trailing
digits. In its ```sh blocks, every line that starts with `gammasd ` runs
through gammasd.cli.run in an empty working directory; a trailing
`> file` writes the captured stdout to that file. The lines after a
command, up to the next command, blank line or end of block, are what it
prints, matched with the same ELLIPSIS rule.
"""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import gammasd
from gammasd.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def sh_commands(text):
    """(command line, expected output) for each `gammasd` line of the sh blocks."""
    commands, in_sh, command = [], False, None
    for line in text.splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            command = None
        elif in_sh and line.startswith("gammasd "):
            command = [line, ""]
            commands.append(command)
        elif in_sh and command is not None and line.strip():
            command[1] += line + "\n"
        else:
            command = None
    return commands


def test_python_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False,
                                         optionflags=doctest.ELLIPSIS, encoding="utf-8")
    assert attempted and not failed


def test_cli_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = sh_commands(README.read_text(encoding="utf-8"))
    assert commands
    checker = doctest.OutputChecker()
    for line, want in commands:
        argv = shlex.split(line)[1:]
        target = None
        if argv[-2:-1] == [">"]:
            argv, target = argv[:-2], argv[-1]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code == 0, (line, err.getvalue())
        if target is not None:
            Path(target).write_text(out.getvalue())
        if want:
            assert checker.check_output(want, out.getvalue(), doctest.ELLIPSIS), (
                line, out.getvalue())


def test_public_names_listed():
    # the bullet list after "The public names" names each of gammasd.__all__ once
    listing = README.read_text(encoding="utf-8").split("The public names", 1)[1].split("\n\n")[1]
    names = re.findall(r"^- `(\w+)", listing, re.MULTILINE)
    assert len(names) == len(set(names)) and set(names) == set(gammasd.__all__)
