#!/usr/bin/env python3
"""Write the witness-identity set: every output that must stay byte-identical.

The set is, one file each, in ``OUTDIR``:

* ``report.txt`` — the stdout of ``repro report``;
* ``byzantine.json`` … ``clock.json`` — six ``repro refute --json``
  witnesses;
* ``witnessNN.json`` — the full witness of every ``repro report``
  engine, written by ``scripts/dump_witnesses.py``;
* ``campaign.trace``, ``frontier.trace``, ``sweep.trace`` — the
  ``--trace`` files of a breaking campaign, a degradation frontier and
  a node-bound sweep;
* ``eig-survive.trace`` and ``eig-survive.txt`` — the trace and the
  ``--verbose`` stdout (memo hits, misses and entries) of a surviving
  EIG K7 campaign in the ``eig-survive`` benchmark's shape, the only
  case whose memo hits replay cached run-scope events in the middle of
  a scan;
* ``naive-k8-links*-seed*.json`` — the ``--json`` witnesses (inputs,
  node faults, plans, injection trace) of breaking naive K8 campaigns
  in the ``naive-shrink`` benchmark's shape.

None of them depends on ``PYTHONHASHSEED``.  Every command runs in this
process through ``repro.cli.main(argv)``, with ``OUTDIR`` as the
working directory, so relative paths in the output read as they would
from a shell.  The script uses only the CLI and ``dump_witnesses.py``,
so it can write the set from an older checkout's ``src/`` as well:
CI's ``witness-identity`` job writes it from the pull request's base
and head and compares the two with ``cmp``, and
``tests/test_witness_identity.py`` compares it with the digests in
``tests/witness_identity.sha256``.

Usage::

    PYTHONPATH=src python scripts/witness_set.py OUTDIR
"""

import contextlib
import io
import os
import pathlib
import runpy
import sys

from repro.cli import main as repro

HERE = pathlib.Path(__file__).resolve().parent

#: ``(stdout file or None, argv)`` for each CLI command, in run order.
COMMANDS = [
    ("report.txt", ["report"]),
    *(
        (None, ["refute", *problem.split(), "--json", f"{problem.split()[0]}.json"])
        for problem in (
            "byzantine",
            "connectivity --graph diamond",
            "weak",
            "firing",
            "eps-delta",
            "clock",
        )
    ),
    (None, ["--seed", "11", "campaign", "--protocol", "naive",
            "--graph", "complete:4", "--links", "2", "--attempts", "60",
            "--trace", "campaign.trace"]),
    (None, ["--seed", "5", "campaign", "--protocol", "eig",
            "--graph", "complete:7", "--faults", "2", "--links", "4",
            "--rounds", "3", "--attempts", "400", "--frontier",
            "--trace", "frontier.trace"]),
    (None, ["sweep", "nodes", "--faults", "1", "2", "--trace", "sweep.trace"]),
    # The eig-survive benchmark's shape: its memo hits replay cached
    # run-scope events in the middle of the scan.
    ("eig-survive.txt", ["--seed", "3", "campaign", "--protocol", "eig",
                         "--graph", "complete:7", "--faults", "2",
                         "--links", "0", "--attempts", "150", "--verbose",
                         "--trace", "eig-survive.trace"]),
    # Seeds whose found attempts hold a liar node (links 6) or a
    # partition (links 16: cutting one K8 node off takes 14 directed
    # edges, so no partition fits in 6).
    *(
        (None, ["--seed", seed, "campaign", "--protocol", "naive",
                "--graph", "complete:8", "--faults", "2", "--links", links,
                "--rounds", "5", "--kinds", "drop,corrupt,delay,omit,partition",
                "--json", f"naive-k8-links{links}-seed{seed}.json"])
        for links, seed in (("6", "1"), ("6", "14"), ("6", "24"),
                            ("16", "19"), ("16", "227"))
    ),
]


def write_witness_set(out: pathlib.Path) -> None:
    """Write the whole set into ``out``; raise if any command fails."""
    out.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for stdout_name, argv in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = repro(argv)
            if code != 0:
                raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
            if stdout_name is not None:
                pathlib.Path(stdout_name).write_text(
                    stdout.getvalue(), encoding="utf-8"
                )
        dump = runpy.run_path(str(HERE / "dump_witnesses.py"))["main"]
        if dump(["."]) != 0:
            raise RuntimeError("dump_witnesses.py failed")
    finally:
        os.chdir(cwd)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    write_witness_set(pathlib.Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
