"""Files the package writes: one atomic writer, and one checksummed-row CSV
format for the caches.  In that format every row after the header ends in
the checksum of the rest of the row, so a reader can drop one damaged row
(Stieltjes cache); chained checksums let it drop the whole file when a row
is damaged, missing or out of place (checkpoint cache).
"""

from __future__ import annotations

import hashlib
import os


def checksum(text: str, width: int = 16) -> str:
    """The first ``width`` hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:width]


def atomic_write(path, text: str) -> None:
    """Write a temp file beside ``path`` and rename it over ``path``, so a
    reader sees the old file or the new one, never a part."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_rows(path, header: str, rows, chained: bool = False) -> None:
    """Write a checksummed-row CSV atomically; ``rows`` are field sequences.
    With ``chained`` each checksum also covers the one before it, so a row
    that is missing, doubled, moved or taken from another file fails too."""
    lines = [header + ",checksum"]
    chk = ""
    for fields in rows:
        body = ",".join(map(str, fields))
        chk = checksum(chk + body if chained else body)
        lines.append(f"{body},{chk}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_rows(path, chained: bool = False):
    """(field lists of the rows whose checksum matches, count of the other
    non-blank rows), or None when the file is missing, unreadable or not
    UTF-8.  ``chained`` must match the writer's."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError):
        return None
    rows, rejected, prev = [], 0, ""
    for line in lines[1:]:
        if not line.strip():
            continue
        body, _, chk = line.rpartition(",")
        if checksum(prev + body if chained else body) == chk:
            rows.append(body.split(","))
        else:
            rejected += 1
        prev = chk
    return rows, rejected
