#!/usr/bin/env python3
"""Write every ``repro report`` witness, in full, to one file each.

For each entry of the master report, in report order, the script runs
the engine and writes ``witness_to_dict(witness, include_traces=True)``
as sorted-key JSON to ``OUTDIR/witnessNN.json``.  The output does not
depend on ``PYTHONHASHSEED``, so two checkouts' directories compare
byte for byte with ``cmp``: that is how CI's ``witness-identity`` job
checks that a change keeps every engine's witness.

Usage::

    PYTHONPATH=src python scripts/dump_witnesses.py OUTDIR
"""

import json
import pathlib
import sys

from repro.analysis.report import _entries
from repro.analysis.witness_io import witness_to_dict


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for index, (_result, _construction, runner) in enumerate(_entries()):
        data = witness_to_dict(runner(), include_traces=True)
        (out / f"witness{index:02d}.json").write_text(
            json.dumps(data, sort_keys=True)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
