import os

acceptance_lines: list[str] = []

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")


def child_env(tests: bool = False) -> dict:
    """The environment of a fresh interpreter that imports this checkout:
    src/, and tests/ too when `tests` is set (for `oracles`), ahead of any
    PYTHONPATH already set."""
    paths = (_SRC, _TESTS if tests else None, os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
