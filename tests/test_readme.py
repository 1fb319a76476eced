"""The README's fenced ``python`` blocks run as doctests."""

import doctest
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_pass_as_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md[{i}]", str(README), 0)
        assert test.examples, f"README python block {i} has no examples"
        runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
