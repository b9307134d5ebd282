"""Record the reference output rows the benchmark checks against.

    python3 perfbench/record.py [--size full|smoke ...] [--out PATH]

Runs every workload once per recorded program seed through
``lrmimo.cli.main`` and stores each CSV, header first, under
``outputs[size][workload][seed]``.  Run from the root of a checkout at the
commit whose output is the reference; the default output path is
perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
import tempfile

from workloads import REFERENCE_PATH, SEEDS, SIZES, WORKLOADS, import_program, run_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=SIZES, action="append")
    parser.add_argument("--out", default=REFERENCE_PATH)
    args = parser.parse_args(argv)
    root = os.getcwd()
    cli = import_program(root)
    logging.disable(logging.INFO)
    outputs = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=root) as tmp:
        out_path = os.path.join(tmp, "out.csv")
        for size in args.size or SIZES:
            for workload in WORKLOADS.values():
                for seed in SEEDS:
                    _, status, text = run_pass(cli, workload, seed,
                                               workload.work[size], out_path)
                    if status != 0:
                        print(f"{workload.name} seed {seed}: exit status {status}",
                              file=sys.stderr)
                        return 1
                    outputs.setdefault(size, {}).setdefault(workload.name, {})[
                        str(seed)] = text.splitlines()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                            capture_output=True, check=False).stdout.strip()
    with open(args.out, "w") as fh:
        json.dump({"recorded_at": commit or None, "outputs": outputs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
