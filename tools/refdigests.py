"""Run the pinned CLI outputs of tests/reference_digests.json under other
Python interpreters, and report each one that differs.

    python3 tools/refdigests.py python3.10 python3.13 ...

Each interpreter named on the command line (the running one when none
is) runs every (argv, exit code, stdout sha256) row of the table through
`kkcrystals.cli.main`, from this checkout's `src`.  Each mismatch is
printed; the exit status is 1 on any, else 0.  The script and the child
it starts use the standard library only, so an interpreter without
pytest can run it.  It is not part of the test suite, whose
`test_pinned_output` reads the same table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "reference_digests.json"

# run by each interpreter: the table's path in, one [exit code, sha256]
# per row out, as one JSON line
CHILD = """
import contextlib, hashlib, io, json, sys
from kkcrystals.cli import main
results = []
with open(sys.argv[1], encoding="utf-8") as table:
    rows = json.load(table)
for argv, _, _ in rows:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(results))
"""


def check(python: str, rows: list) -> int:
    """The number of rows that differ under one interpreter, each printed;
    an interpreter that does not start, or a child that fails, counts as
    one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run([python, "-c", CHILD, str(TABLE)], env=env,
                              capture_output=True, text=True)
    except OSError as exc:
        print("%s: %s" % (python, exc))
        return 1
    if done.returncode:
        print("%s: exit %d\n%s" % (python, done.returncode, done.stderr))
        return 1
    wrong = 0
    for (argv, code, digest), got in zip(rows, json.loads(done.stdout)):
        if got != [code, digest]:
            wrong += 1
            print("%s: %s: exit %s sha256 %s, want exit %d sha256 %s"
                  % (python, " ".join(argv), got[0], got[1], code, digest))
    print("%s: %d of %d rows match" % (python, len(rows) - wrong, len(rows)))
    return wrong


def main(interpreters: list[str]) -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    wrong = [check(python, rows)
             for python in interpreters or [sys.executable]]
    return 1 if any(wrong) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
