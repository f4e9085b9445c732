"""The witness-identity set matches its checked-in digests.

``scripts/witness_set.py`` writes every output that must stay
byte-identical: the report, the refute and engine witnesses, the
campaign, frontier and sweep traces, and the naive K8 campaign
witnesses.  ``tests/witness_identity.sha256`` holds the sha256 of each
file, in ``sha256sum`` format.  A change that alters a witness on
purpose regenerates the list in the same diff::

    PYTHONPATH=src python scripts/witness_set.py OUT
    (cd OUT && LC_ALL=C sha256sum -- *) > tests/witness_identity.sha256

so review sees exactly which outputs changed.
"""

import hashlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("witness_identity.sha256")


def _expected():
    pairs = (line.split() for line in DIGESTS.read_text().splitlines())
    return {name: digest for digest, name in pairs}


def test_witness_set_matches_checked_in_digests(tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "witness_set.py"))
    script["write_witness_set"](tmp_path)
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    expected = _expected()
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert not changed, f"outputs differ from the checked-in digests: {changed}"
