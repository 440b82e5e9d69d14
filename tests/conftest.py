import os

import _gatelog

# as `cli.main` does, before any test module imports numpy: its OpenBLAS
# thread would otherwise make every in-process `verify_all` fork from two
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_terminal_summary(terminalreporter):
    if _gatelog.lines:
        terminalreporter.section("acceptance criteria")
        for line in _gatelog.lines:
            terminalreporter.write_line(line)
