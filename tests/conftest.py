ACCEPTANCE_LINES = []


def expand_rows(rows):
    """The set of children (i, j) that per-row closed i-ranges cover."""
    return {
        (i, j)
        for j, ranges in rows.items()
        for lo, hi in ranges
        for i in range(lo, hi + 1)
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
