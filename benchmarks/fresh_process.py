"""Time one perfbench workload unit per fresh process, in two checkouts.

Usage:

    python3 benchmarks/fresh_process.py --parent <checkout> --change <checkout> \
        --workload <name> --pairs <n> --number <n> [--seed <s>] [--out <path>]

perfbench's ``run_s`` is a median over several units of one process, so
what only the first unit of a process pays (the minor page faults of
buffers that the allocator hands out fresh) does not show in it.  Here
every child is a new interpreter.  It imports the program and perfbench's
workloads from one checkout, writes and prepares the inputs of one corpus,
and runs a single unit, as ``noisylab train`` runs one trial per process.
Pair i runs the parent's and the change's child on corpus seed ``s + i``,
the parent first on even pairs and the change first on odd ones.

For each child the output records, from ``os.wait4``, the process's wall,
user and system time, minor faults (``ru_minflt``) and max RSS; and, as
the child measures them with ``getrusage``, the unit's own wall, user and
system time and minor faults, and its trials' test F1.  For every metric
it holds each pair's two values, each side's median and quartiles and the
change's wins, as ``pair_results.py`` does.  It gates nothing and sets no
program, BLAS or allocator setting: the children inherit this process's
environment, which is recorded.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from pair_results import compare  # noqa: E402

# (name, unit) of every metric; lower is better for all of them
METRICS = (("wall_s", "s"), ("user_s", "s"), ("sys_s", "s"), ("minflt", "count"),
           ("maxrss_mb", "MB"), ("unit_s", "s"), ("unit_user_s", "s"), ("unit_sys_s", "s"),
           ("unit_minflt", "count"))
ENVIRONMENT = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_ARENA_MAX")


def child(checkout_dir, name, seed):
    """One unit of workload ``name`` on corpus ``seed``, in this process;
    returns the unit's own measurements."""
    sys.path.insert(0, os.path.join(checkout_dir, "perfbench"))
    import checkout  # perfbench's: imports noisylab from that checkout's src/

    checkout.use_checkout_src()
    import workloads

    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="fresh-") as workdir:
        config = workload.config(seed, workdir)
        workload.write_inputs(config)
        dataset = workload.setup(config)
        before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        raw = workload.run(config, dataset, workdir)
        unit_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        outputs = workload.outputs(config, raw, workdir)
    return {"unit_s": unit_s, "unit_user_s": after.ru_utime - before.ru_utime,
            "unit_sys_s": after.ru_stime - before.ru_stime,
            "unit_minflt": after.ru_minflt - before.ru_minflt,
            "test_f1": [t.test_f1 for t in outputs]}


def run_child(checkout_dir, name, seed):
    """Record of one fresh child process running one unit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", checkout_dir,
         "--workload", name, "--seed", str(seed)], stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"seed": seed, "exit_code": proc.returncode,
              "wall_s": time.perf_counter() - start, "user_s": usage.ru_utime,
              "sys_s": usage.ru_stime, "minflt": usage.ru_minflt,
              "maxrss_mb": usage.ru_maxrss / 1024.0}
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        record.update(json.loads(lines[-1]))
    return record


def summarize(pairs):
    """Per metric, ``pair_results.compare`` over (seed, parent record,
    change record) triples; a pair with a failed child is left out."""
    ok = [(s, p, c) for s, p, c in pairs if p["exit_code"] == 0 and c["exit_code"] == 0]
    seeds = [s for s, _, _ in ok]
    return {
        "pairs_ok": len(ok),
        "failed": {"parent": sum(p["exit_code"] != 0 for _, p, _ in pairs),
                   "change": sum(c["exit_code"] != 0 for _, _, c in pairs)},
        "test_f1_identical": all(p["test_f1"] == c["test_f1"] for _, p, c in ok),
        "metrics": {name: compare({"unit": unit, "better": "lower", "bound": None}, seeds,
                                  [(p[name], c[name]) for _, p, c in ok])
                    for name, unit in METRICS} if ok else {},
    }


def git_commit(checkout_dir):
    proc = subprocess.run(["git", "-C", checkout_dir, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="corpus seed of the first pair")
    parser.add_argument("--number", type=int, help="number of the change, which names the output")
    parser.add_argument("--out", help="output path (default BENCH_<number>_fresh-<workload>.json)")
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed)))
        return 0
    if not (args.parent and args.change and args.number is not None):
        parser.error("--parent, --change and --number are required")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        records = {side: run_child(checkouts[side], args.workload, seed) for side in order}
        pairs.append((seed, records["parent"], records["change"]))
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{side} {records[side]['wall_s']:.2f} s {records[side]['minflt']} faults"
            for side in order), flush=True)
    report = {
        "number": args.number, "workload": args.workload, "kind": "fresh-process",
        "git_commits": {side: git_commit(path) for side, path in checkouts.items()},
        "environment": {"machine": platform.machine(), "nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        **{key: os.environ.get(key) for key in ENVIRONMENT}},
        "pairs": [{"seed": s, "parent": p, "change": c} for s, p, c in pairs],
        **summarize(pairs),
    }
    out = args.out or os.path.join(os.path.dirname(HERE),
                                   f"BENCH_{args.number}_fresh-{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, m in report["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
              f"{m['unit']}, change wins {m['change_wins']}/{len(m['pairs'])}")
    return 0 if report["pairs_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
