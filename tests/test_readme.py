"""The README's Python example runs as a doctest, and its CLI synopsis
names only options the parser has."""

import doctest
import os
import re
import shlex

from cubictrace.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def readme() -> str:
    with open(README) as fh:
        return fh.read()


def test_readme_python_example():
    blocks = re.findall(r"^```python\n(.*?)^```", readme(), re.M | re.S)
    assert blocks
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = doctest.DocTestParser().get_doctest(block, {}, f"README[{i}]",
                                                   README, 0)
        runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_readme_cli_flags_exist():
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme(), re.M | re.S)
    subparsers = next(action.choices for action in build_parser()._actions
                      if isinstance(action.choices, dict))
    lines = block.group(1).splitlines()
    assert lines
    for line in lines:
        prog, command, *words = shlex.split(line)
        assert prog == "cubictrace" and command in subparsers, line
        options = {option for action in subparsers[command]._actions
                   for option in action.option_strings}
        # a flag starts with a dash and a letter; -30 is a value
        flags = [w.strip("[]") for w in words if re.match(r"\[?-+[a-z]", w)]
        assert set(flags) <= options, line
