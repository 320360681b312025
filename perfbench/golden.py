"""Pin the stdout of every exact command the benchmark can generate.

    python3 perfbench/golden.py

runs each exact command line of every profile (all couplings, so every
seed is covered) and writes the SHA-256 of its stdout to golden.json.
The benchmark counts any later mismatch as a failed command, so run this
only at a commit whose exact output is known to be right.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from workloads import HERE, PROFILES, ROOT, child_env, exact_commands

GOLDEN = HERE / "golden.json"


def load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]


def _digest(argv: tuple[str, ...]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "metric_forge.cli", *argv],
        capture_output=True,
        env=child_env(),
        cwd=ROOT,
        check=True,
    )
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    argvs = {argv: None for profile in PROFILES for argv in exact_commands(profile)}
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        digests = list(pool.map(_digest, argvs))
    pinned = {" ".join(argv): digest for argv, digest in zip(argvs, digests)}
    GOLDEN.write_text(json.dumps({"sha256": pinned}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} exact outputs in {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
