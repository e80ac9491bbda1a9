"""Record the SHA-256 digest of every cli op's canonical JSON into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose output is known to be right; the
cli workload then fails any op whose output differs from the recorded one.
It refuses to record an output that the answer checks of oracle.py reject.
"""

from __future__ import annotations

import json
import sys

import oracle
import run
import workloads


def main() -> int:
    digests = {}
    for cmd in workloads.cli_universe():
        argv = cmd + ["--format", "json"]
        child = run.Child([sys.executable, "-m", "pincover.cli"] + argv)
        if child.rc != 0:
            sys.stderr.write(f"{argv}: exit {child.rc}\n{child.stderr}")
            return 1
        payload = json.loads(child.stdout)
        wrong = oracle.check_cli(argv, payload)
        if wrong:
            sys.stderr.write(f"{argv}: {wrong}\n")
            return 1
        digests[workloads.cli_key(argv)] = oracle.canonical_digest(payload)
    with open(run.DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
