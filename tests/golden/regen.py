"""Rewrite ``payloads.json`` from ``cases.py`` and print the keys that moved.

Run from the repository root, with no arguments::

    PYTHONPATH=src python tests/golden/regen.py

Every case is coded again and the table is written whole, sorted, one row a
line, with the zlib build it was recorded with in the header; the output lists
the added, removed and changed keys, and ``git diff`` is the review.
"""

from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from golden.cases import CASES, TABLE, row, run  # noqa: E402


def main() -> None:
    old = json.loads(TABLE.read_text())["rows"] if TABLE.exists() else {}
    rows = {key: row(*run(CASES[key])[1:]) for key in sorted(CASES)}
    lines = [f"  {json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}" for key in rows]
    header = f'{{\n "zlib": {json.dumps(zlib.ZLIB_RUNTIME_VERSION)},\n "rows": {{\n'
    TABLE.write_text(header + ",\n".join(lines) + "\n }\n}\n")
    changed = sorted(key for key in rows.keys() & old.keys() if rows[key] != old[key])
    for label, keys in (
        ("added", sorted(rows.keys() - old.keys())),
        ("removed", sorted(old.keys() - rows.keys())),
        ("changed", changed),
    ):
        print(f"{label}: {len(keys)}")
        for key in keys:
            print(f"  {key}")


if __name__ == "__main__":
    main()
