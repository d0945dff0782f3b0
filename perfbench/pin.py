"""Record the sha256 of each workload's stdout at the pinned seeds.

Run from a commit whose certificates are known good:

    python3 perfbench/pin.py

Every recorded output must first pass the claim checks in workloads.py;
the script refuses to pin a failing certificate.  It rewrites pinned.json.
"""

from __future__ import annotations

import hashlib
import json
import sys

from workloads import (PINNED_PATH, SETUP_ARGV, WORKLOADS, check_certificates, child_env,
                       run_child)

# Benchmark seeds whose CLI outputs are pinned; other seeds fall back to
# the claim checks alone.
PINNED_BENCH_SEEDS = range(16)


def _pin(argv, env) -> tuple[str, bytes]:
    res = run_child(argv, env)
    if res.returncode != 0:
        sys.exit(f"pin: {' '.join(argv)} exited {res.returncode}")
    return hashlib.sha256(res.stdout).hexdigest(), res.stdout


def main() -> int:
    env = child_env()
    pinned = {"dims": _pin(SETUP_ARGV, env)[0]}
    for w in WORKLOADS.values():
        table = {}
        for bench_seed in PINNED_BENCH_SEEDS:
            for cli_seed in w.cli_seeds(bench_seed):
                digest, stdout = _pin(w.argv(cli_seed), env)
                problems = check_certificates(w, cli_seed, json.loads(stdout))
                if problems:
                    sys.exit(f"pin: {w.name} seed {cli_seed}: {problems}")
                table[str(cli_seed)] = digest
        pinned[w.name] = table
        print(f"pin: {w.name}: {len(table)} outputs", file=sys.stderr)
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
