"""Shared test plumbing.

The acceptance tests append one human-readable pass/fail line each; the
terminal-summary hook prints them after the run so the verdict survives
pytest's output capture.

Property tests run under a derandomized hypothesis profile with no example
database, so every run tries the same examples.
"""
from hypothesis import settings

settings.register_profile("detproc", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("detproc")

acceptance_lines = []


def record(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"{label}: {status}"
    if detail:
        line += f" ({detail})"
    acceptance_lines.append(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
