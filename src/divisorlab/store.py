"""Files the package writes: one atomic writer, and one checksummed-row CSV
format for the Stieltjes cache.  In that format every row after the header
ends in the checksum of the rest of the row, so a reader drops a damaged
row and keeps the others.
"""

from __future__ import annotations

import hashlib
import os


def checksum(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def atomic_write(path, text: str) -> None:
    """Write a temp file beside ``path`` and rename it over ``path``, so a
    reader sees the old file or the new one, never a part."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_rows(path, header: str, rows) -> None:
    """Write a checksummed-row CSV atomically; ``rows`` are field sequences."""
    lines = [header + ",checksum"]
    for fields in rows:
        body = ",".join(map(str, fields))
        lines.append(f"{body},{checksum(body)}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_rows(path):
    """(field lists of the rows whose checksum matches, count of the other
    non-blank rows), or None when the file is missing, unreadable or not
    UTF-8."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError):
        return None
    rows, rejected = [], 0
    for line in lines[1:]:
        if not line.strip():
            continue
        body, _, chk = line.rpartition(",")
        if checksum(body) == chk:
            rows.append(body.split(","))
        else:
            rejected += 1
    return rows, rejected
