"""The README's examples run, and print what it shows.

The library overview's ``python`` block is executed as written, with the
values its comments state checked, and the ``igk tensor`` example must
print exactly the bytes under its command line.
"""

import re
import shlex
from pathlib import Path

import numpy as np

from igk.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(r"^```{}\n(.*?)^```$".format(lang), README, re.M | re.S)


def test_python_block_runs_as_commented():
    (code,) = _blocks("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    np.testing.assert_array_equal(namespace["nu"].mass, [0.5, 0.5])
    np.testing.assert_allclose(namespace["g"].values, [[16 / 3]], rtol=1e-15)


def test_tensor_example_prints_the_shown_bytes(capsys):
    command = "$ igk tensor --model builtin:bernoulli --xi 0.25\n"
    (block,) = [b for b in _blocks("sh") if b.startswith(command)]
    shown = block[len(command):].split("\n\n$ ")[0] + "\n"
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == shown
