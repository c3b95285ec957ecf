"""Measure the zero-search envelope that the zeros workload draws K from.

    python3 perfbench/envelope.py

For q on a 0.05 grid over [0.30, 0.85] and nu in {0, 0.5, ..., 3}, finds the
largest K (capped at CAP) for which ``qfb zeros --k 1..K`` succeeds, and
prints the minimum over nu per q in the form of ``workloads.ENVELOPE``.
Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

CAP = 60
QS = [round(0.30 + 0.05 * i, 2) for i in range(12)]
NUS = [0.5 * i for i in range(7)]


def largest_k(cli, q: float, nu: float, cache: str) -> int:
    """Largest K <= CAP with a successful `zeros --k 1..K`, growing K by one."""
    for k in range(1, CAP + 1):
        argv = ["zeros", "--q", repr(q), "--nu", repr(nu), "--k", f"1..{k}", "--cache", cache]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except (ArithmeticError, ValueError):  # the traceback a user would see
            rc = None
        if rc != 0:
            return k - 1
    return CAP


def main() -> int:
    from qfb import cli

    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as cache:
        rows = {q: min(largest_k(cli, q, nu, cache) for nu in NUS) for q in QS}
    print("ENVELOPE = {" + ", ".join(f"{q:.2f}: {k}" for q, k in rows.items()) + "}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
