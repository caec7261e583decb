"""Run the acceptance gate and print one line per criterion.

Thin wrapper around pytest so the gate has a single entry point outside CI:

    python scripts/run_acceptance.py [extra pytest args]

pytest's ``--durations=0`` table at the end gives each criterion's wall time.
Exit code is pytest's (0 all green, 1 at least one criterion failed).
"""

import pathlib
import sys

import pytest

if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent
    args = [str(root / "tests" / "test_acceptance.py"), "-v", "--tb=line", "--durations=0"]
    args.extend(sys.argv[1:])
    sys.exit(pytest.main(args))
