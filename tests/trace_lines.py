"""The event lines of a saved trace file, for tests that read or edit them.

A trace file is a header line, one line per event and a totals line.
Every test that builds, reads or finds an event line does it here, so a
change of the line format is one edit.
"""

import json


def event_line(event) -> str:
    """The line that holds ``event``: its compact JSON, as ``save_trace`` writes it."""
    return json.dumps(event, separators=(",", ":"))


def line_event(line: str) -> list:
    """The event an event line holds, its lists as lists."""
    return json.loads(line)


def is_event_line(line: str, kind: str = "") -> bool:
    """Whether ``line`` holds an event, of ``kind`` when one is given."""
    return line.startswith(f'["{kind}",' if kind else '["')


def first_event(lines, kind: str) -> int:
    """The index of the first line of ``lines`` that holds an event of ``kind``."""
    return next(i for i, line in enumerate(lines) if is_event_line(line, kind))


def before_the_totals(event):
    """An edit of a trace file's lines that puts ``event`` just before the
    totals line, the last one."""
    def edit(lines):
        lines.insert(len(lines) - 1, event_line(event))
    return edit
