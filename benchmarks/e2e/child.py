"""Run one ``mnpusim`` command under the benchmark's host-time ledger.

Usage (``PYTHONPATH`` must name the checkout's ``src``)::

    python benchmarks/e2e/child.py RECORDS TAG TRACE -- <mnpusim arguments>

``RECORDS`` is the directory the ledger appends its JSON lines to,
``TAG`` prefixes their file names, and ``TRACE`` is ``1`` for the traced
ledger or ``0`` for the bare ``MultiCoreNPUSim.run`` timer.  The exit
code is the command's own.
"""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

from ledger import Ledger


def main(argv: list[str]) -> int:
    records, tag, trace, separator, *command = argv
    if separator != "--":
        raise SystemExit(__doc__)
    # Pool workers get the ledger's wrappers and record files only by
    # inheriting them through fork.
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise SystemExit(f"the ledger needs the 'fork' start method, not {method!r}")
    ledger = Ledger(Path(records), tag, traced=trace == "1")
    with ledger.frame("cli:import"):
        import repro.cli
    ledger.install()
    try:
        with ledger.frame("cli:main"):
            return repro.cli.main(command)
    finally:
        ledger.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
