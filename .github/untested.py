"""List the lines of src/ that no tier-1 test runs.

    python .github/untested.py [PYTEST_ARG...]

runs the tier-1 suite once, in this process, under a `sys.settrace` line
recorder (the standard library's, so no coverage package is needed), then
prints, for each module under src/, its executable lines that no test ran,
as line numbers and ranges. An executable line is one that a code object
compiled from the module maps bytecode to. Code that a test runs in a
child process is not seen. Exits with pytest's status; the report sets no
threshold. Tracing makes the suite several times slower.
"""
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's entry
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    spans, start = [], None
    for prev, line in zip([None, *lines], [*lines, None]):
        if start is None:
            start = line
        elif line != prev + 1:
            spans.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(spans)


def main() -> int:
    sys.path.insert(0, str(SRC))
    prefix = str(SRC) + os.sep
    ran: defaultdict[str, set[int]] = defaultdict(set)
    in_src: dict[str, bool] = {}

    def record_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return record_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        mine = in_src.get(filename)
        if mine is None:
            mine = in_src[filename] = os.path.realpath(filename).startswith(prefix)
        if not mine:
            return None
        ran[filename].add(frame.f_code.co_firstlineno)
        return record_line

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)

    seen: defaultdict[Path, set[int]] = defaultdict(set)
    for filename, lines in ran.items():
        seen[Path(os.path.realpath(filename))] |= lines
    total = untested = 0
    print("\nsrc/ lines that no test ran:")
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - seen[path])
        total += len(lines)
        untested += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)}: {ranges(missed)}")
    print(f"total: {untested} of {total} executable lines untested")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
