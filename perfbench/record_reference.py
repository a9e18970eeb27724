"""Record the reference test F1 of each trial, per workload and corpus seed.

    python3 perfbench/record_reference.py toy-trials,noisy-full-cli,paper-scale 0-29

Corpus seeds 3s, 3s+1 and 3s+2 are the corpora of run seed s (run.py).
Runs one unit per (workload, corpus seed) and merges the trial F1s into
reference.json, which run.py's output check compares against.  Record
references only from a commit whose outputs are trusted.
"""

import json
import os
import shutil
import sys
import tempfile

import checkout
from run import REFERENCE_PATH


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    names = argv[0].split(",")
    first, _, last = argv[1].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    checkout.use_checkout_src()
    import workloads

    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    os.makedirs(checkout.WORK, exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=checkout.WORK)
            try:
                config = workload.config(seed, workdir)
                workload.write_inputs(config)
                dataset = workload.setup(config)
                raw = workload.run(config, dataset, workdir)
                f1s = [t.test_f1 for t in workload.outputs(config, raw, workdir)]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = f1s
            print(f"{name} seed {seed}: {f1s}", flush=True)
            with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
