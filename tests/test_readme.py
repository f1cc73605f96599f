"""The README's Python example runs as a doctest."""

import doctest
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_python_example():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = doctest.DocTestParser().get_doctest(block, {}, f"README[{i}]",
                                                   README, 0)
        runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
