"""Shared pytest plumbing: collects acceptance-criterion verdicts and prints
one line per criterion at the end of the run, then the line count of each
`src/equihilb` module and their total."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equihilb"

criteria_results = []


def record_criterion(num, desc, ok, elapsed, detail=""):
    criteria_results.append((num, desc, ok, elapsed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criteria_results:
        terminalreporter.section("acceptance criteria")
    for num, desc, ok, elapsed, detail in sorted(criteria_results):
        line = "criterion %02d %s (%6.2fs) %s" % (
            num, "PASS" if ok else "FAIL", elapsed, desc)
        if detail:
            line += " | " + detail
        terminalreporter.write_line(line)
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))}
    terminalreporter.section("src/equihilb lines")
    terminalreporter.write_line(
        "  ".join("%s %d" % item for item in lines.items()) + "  total %d" % sum(lines.values()))
