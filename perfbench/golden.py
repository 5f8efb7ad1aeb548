"""Golden per-record digests of the quick-profile sweep cache.

``golden/quick-records.tsv.gz`` holds one line per record of a full
``repro sweep --profile quick`` cache (8 benchmarks x 270 grid points x
7 MPLs = 15,120 records): the record key and the first 16 hex digits of
the SHA-256 of the record's cache line.  The sweep workloads check
every line their cold runs write against it, so a record that is
missing, extra, duplicated or differs by one byte counts as failed.

Regenerate (only when the sweep's outputs are meant to change)::

    PYTHONPATH=src python3 -m repro.cli sweep --profile quick --jobs 2 \\
        --cache-dir CACHE --quiet
    python3 perfbench/golden.py CACHE/sweep-quick.jsonl
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "quick-records.tsv.gz"

KEY_FIELDS = (
    "benchmark", "family", "cw_nominal", "model", "analyzer", "anchor",
    "resize", "mpl_nominal",
)


def record_key(row: Dict) -> str:
    return "|".join(str(row[field]) for field in KEY_FIELDS)


def line_digest(line: str) -> str:
    return hashlib.sha256(line.rstrip("\n").encode("utf-8")).hexdigest()[:16]


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, str]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return dict(line.rstrip("\n").split("\t") for line in handle if line.strip())


def check_lines(
    lines: Iterable[str], expected: Iterable[str], golden: Dict[str, str]
) -> Tuple[int, int, Dict[str, Dict]]:
    """Check cache ``lines`` against ``golden`` for the ``expected`` keys.

    Returns ``(checked, failed, rows)``: each expected key is one check;
    it fails when its line is missing, duplicated or differs from the
    golden digest.  A line for a key outside ``expected`` is one more
    failure.  ``rows`` maps each key to its parsed row.
    """
    expected = set(expected)
    seen: Dict[str, int] = {}
    rows: Dict[str, Dict] = {}
    failed = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            key = record_key(row)
        except (ValueError, KeyError):
            failed += 1
            continue
        if key not in expected:
            failed += 1
            continue
        seen[key] = seen.get(key, 0) + 1
        if seen[key] == 1 and golden.get(key) == line_digest(line):
            rows[key] = row
    for key in expected:
        if seen.get(key) != 1 or key not in rows:
            failed += 1
    return len(expected), failed, rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    entries = []
    with open(argv[1], encoding="utf-8") as handle:
        for line in handle:
            entries.append((record_key(json.loads(line)), line_digest(line)))
    keys = [key for key, _ in entries]
    if len(set(keys)) != len(keys):
        print("duplicate record keys in the cache", file=sys.stderr)
        return 1
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as raw:
        raw.write("".join(f"{k}\t{d}\n" for k, d in sorted(entries)).encode("utf-8"))
    print(f"{len(entries)} record digests -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
