#!/usr/bin/env python3
"""Record the golden sha256 of every hash-checked benchmark report.

    python3 perfbench/golden.py            # writes perfbench/golden.json

Run from the root of a source checkout, at the commit whose reports define
"correct".  Every configuration any seed can draw is run once through
`horokit.cli.main` and must exit 0.  Later runs compare report bytes with
these hashes: byte-identical reports are what "the same result" means.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

from workloads import hashed_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from horokit.cli import main as cli_main

    tmp = HERE / "out" / "golden-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    golden = {}
    try:
        for job in hashed_configs():
            path = tmp / "report.json"
            code = cli_main([*job.argv, "--out", str(path)])
            if code != 0:
                sys.stderr.write(f"{job.key}: exit code {code}\n")
                return 1
            golden[job.key] = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden hashes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
