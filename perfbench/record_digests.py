#!/usr/bin/env python3
"""Record the SHA-256 digests of every digested benchmark command's CSV.

    python3 perfbench/record_digests.py

Run it from the root of a checkout of the commit whose output is the
reference; it rewrites ``perfbench/digests.json``.  A later change that
alters any of these CSV bytes is a regression, so do not re-record to
make a failing check pass.
"""

from __future__ import annotations

import json
import platform
import sys

import checks
import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    digests = {}
    for command in workloads.digested_commands():
        elapsed, code, _, data = run.run_command(command)
        if code != 0 or data is None:
            print(f"{command.key}: exit code {code}", file=sys.stderr)
            return 1
        digests[command.key] = checks.digest(data)
        print(f"{elapsed:7.2f} s  {command.key}")
    payload = {"python": platform.python_version(), "digests": digests}
    (run.HERE / "digests.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
