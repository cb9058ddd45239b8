"""Every command on every shipped config, end to end, in process.

Each run goes through ``hwq.cli.main`` with ``--jobs 1``.  The exit codes,
the row counts and a SHA-256 of each CSV are pinned in
``shipped_outputs.json`` next to this file, with the numpy and scipy
versions that made them; under other versions the digests are reported,
not compared.  A change that moves an output on purpose rewrites the file:

    PYTHONPATH=src:tests python tests/test_shipped.py
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from hwq.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("shipped_outputs.json")
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json")) \
    + sorted((ROOT / "bench" / "configs").glob("*.json"))
VERSIONS = {"numpy": numpy.__version__, "scipy": scipy.__version__}
# the documented refusal of an exact solve of a FIFO chain, one line on stderr
REFUSAL = "hwq: config error: policy: exact solve supports priority policies only, not 'fifo'\n"


def run(command, config, out):
    """``{"exit", "rows", "sha256"}`` of ``command`` on ``config``: its
    CSV's data rows and digest, both None where it wrote none."""
    rc = main([command, "--config", str(config), "--out", str(out), "--jobs", "1"])
    [table] = sorted(out.glob("*.csv")) or [None]
    if table is None:
        return {"exit": rc, "rows": None, "sha256": None}
    with open(table, newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    return {"exit": rc, "rows": rows, "sha256": hashlib.sha256(table.read_bytes()).hexdigest()}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_runs(config, command, tmp_path, capsys):
    pinned = json.loads(PINNED.read_text())
    want = pinned["runs"][f"{config.stem}/{command}"]
    got = run(command, config, tmp_path / "out")
    err = capsys.readouterr().err
    assert got["exit"] == want["exit"], err
    assert err == (REFUSAL if want["exit"] else "")
    assert got["rows"] == want["rows"]
    if pinned["versions"] != VERSIONS:
        pytest.skip(f"digests pinned under {pinned['versions']}, running {VERSIONS}: "
                    "exit code and rows checked, digest not compared")
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    import tempfile

    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for config in CONFIGS:
            for command in COMMANDS:
                runs[f"{config.stem}/{command}"] = run(
                    command, config, Path(scratch) / config.stem / command)
    PINNED.write_text(json.dumps({"versions": VERSIONS, "runs": runs}, indent=1) + "\n")
    sys.exit(0)
