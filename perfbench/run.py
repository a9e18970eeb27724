"""noisylab benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload toy-trials --seed 0 --seconds 30 --trace 0

The client runs one unit of work at a time (a ``run_trials``, a
``noisylab train``, or a ``train_variant``; see workloads.py): at least
three units, and more while the next one should end within ``--seconds``.
Metric names and units are those BENCHMARK.json declares.  Inputs are
generated by ``noisylab.toydata``: ``--seed`` s gives three corpora, with
generation seeds 3s, 3s+1 and 3s+2, and the units cycle over them.  BLAS
threads are left as the user set them and recorded with the result.

``--trace 0`` reports the end-to-end metrics (median over units).
``--trace 1`` alternates untraced units with traced ones, whose spans,
recorded by wrapping the package from outside (spans.py), give the
per-layer metrics, per unit.  Every unit's outputs are checked; a trial
that fails a check counts in ``failed``.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.  ``--workload all``
runs every workload in turn, each in its own process.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import checkout

# Corpora per run.  Test F1 is a property of the corpus (from one
# paper-scale corpus to the next it ranges from about 0.4 to 0.7), so a
# run reports its mean over several corpora rather than one corpus's value.
CORPORA = 3
MIN_UNITS = CORPORA
# set-ups timed before each untraced unit; spreading them over the run
# samples the machine's state as often as the units do
SETUPS_PER_UNIT = 4
# Largest test-F1 distance from the recorded reference that still counts as
# a match; it admits float reordering (e.g. a hoisted GEMM) while a broken
# model or a different schedule lands far outside it.
F1_TOLERANCE = 0.05
ROW_SUM_TOLERANCE = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def environment(config):
    from noisylab import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "machine": platform.machine(),
        "dtype": config.dtype,
        "USE_NUMBA": getattr(kernels, "USE_NUMBA", None),
        "git_commit": checkout.git_commit(),
    }


def corpus_seeds(seed):
    """Generation seeds of the corpora that run seed ``seed`` measures."""
    return [CORPORA * seed + i for i in range(CORPORA)]


def load_reference(workload, seed):
    """Recorded trial F1s for the corpus generated from ``seed``, or None."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def check_trials(outputs, config, reference, first):
    """Problems found in one unit's trial outputs, one list per trial.

    ``reference`` holds the recorded test F1 per trial for this corpus (or
    None); ``first`` holds the outputs of the run's first unit on this
    corpus, which every later unit on it must reproduce exactly.
    """
    problems = []
    for i, t in enumerate(outputs):
        p = []
        if not math.isfinite(t.test_f1):
            p.append(f"test F1 {t.test_f1} is not finite")
        if reference is not None and len(reference) != len(outputs):
            p.append(f"{len(outputs)} trials, but the reference records {len(reference)}")
        elif reference is not None and not abs(t.test_f1 - reference[i]) <= F1_TOLERANCE:
            p.append(f"test F1 {t.test_f1!r} differs from reference {reference[i]!r}")
        if first is not None and len(first) != len(outputs):
            p.append(f"{len(outputs)} trials, but the first unit had {len(first)}")
        elif first is not None and t.test_f1 != first[i].test_f1:
            p.append(f"test F1 {t.test_f1!r} differs from the first unit's {first[i].test_f1!r}")
        if t.theta is None:
            p.append("no noise channel theta")
        else:
            theta = np.asarray(t.theta)
            if not np.isfinite(theta).all():
                p.append("theta is not finite")
            elif (theta < 0).any() or np.abs(theta.sum(axis=1) - 1.0).max() > ROW_SUM_TOLERANCE:
                p.append("theta is not row-stochastic")
        if not 0 <= t.selected_epoch < config.epochs:
            p.append(f"selected epoch {t.selected_epoch} outside [0, {config.epochs})")
        if t.reproduced_f1 is not None and t.reproduced_f1 != t.test_f1:
            p.append(f"checkpoint re-scores test F1 {t.reproduced_f1!r}, "
                     f"summary says {t.test_f1!r}")
        problems.append(p)
    return problems


def peak_rss_mb():
    """Peak resident memory of this process plus its largest finished child
    (a worker pool started by the program counts one worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def clamp_counter():
    from noisylab import autodiff
    return getattr(autodiff.cross_entropy, "clamp_events", 0)


def reset_clamp_counter():
    from noisylab import autodiff
    if hasattr(autodiff.cross_entropy, "clamp_events"):
        autodiff.cross_entropy.clamp_events = 0


class Corpus:
    """One generated corpus of a run: its inputs, prepared data, recorded
    reference, and the outputs of its first unit."""

    def __init__(self, workload, seed, workdir):
        os.makedirs(workdir)
        self.seed = seed
        self.workdir = workdir
        self.config = workload.config(seed, workdir)
        workload.write_inputs(self.config)
        self.dataset = workload.setup(self.config)
        self.nominal = workload.nominal_windows(self.config, self.dataset)
        self.reference = load_reference(workload.name, seed)
        self.first = None


class Client:
    """Runs units of one workload and checks each one's outputs."""

    def __init__(self, workload, corpora):
        self.workload = workload
        self.corpora = corpora
        self.attempted = 0
        self.failed = 0
        self.rates = []
        self.setup_times = []

    def test_f1(self):
        """Mean over the corpora measured of each one's mean trial F1."""
        done = [c.first for c in self.corpora if c.first is not None]
        return statistics.fmean(statistics.fmean(t.test_f1 for t in f) for f in done)

    def unit(self, index, tracer=None):
        """One unit of work on corpus ``index``; returns its wall time in
        seconds."""
        w, corpus = self.workload, self.corpora[index]
        cfg = corpus.config
        try:
            if tracer is None:
                for _ in range(SETUPS_PER_UNIT):
                    start = time.perf_counter()
                    w.setup(cfg)
                    self.setup_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                raw = w.run(cfg, corpus.dataset, corpus.workdir)
                elapsed = time.perf_counter() - start
            else:
                import spans

                spans.install(tracer)
                try:
                    tracer.span("setup", w.setup, cfg)
                    start = time.perf_counter()
                    raw = tracer.span("unit", w.run, cfg, corpus.dataset, corpus.workdir)
                    elapsed = time.perf_counter() - start
                finally:
                    tracer.unwrap_all()
            outputs = w.outputs(cfg, raw, corpus.workdir)
        except Exception:  # the client keeps running and counts the failure
            traceback.print_exc()
            n = w.trials(cfg)
            self.attempted += n
            self.failed += n
            return None
        problems = check_trials(outputs, cfg, corpus.reference, corpus.first)
        if corpus.first is None:
            corpus.first = outputs
        for t, p in zip(outputs, problems):
            for message in p:
                print(f"check failed: {w.name} corpus {corpus.seed} trial seed {t.seed}: "
                      f"{message}", file=sys.stderr)
        self.attempted += len(outputs)
        self.failed += sum(1 for p in problems if p)
        if tracer is None:
            self.rates.append(corpus.nominal / elapsed)
        return elapsed


def measure(client, seconds, trace):
    """Closed loop: at least MIN_UNITS units, more while they fit in
    ``seconds``, cycling over the client's corpora.  With ``trace`` the
    units alternate untraced and traced, each traced unit on the corpus of
    the untraced unit before it."""
    import spans

    start = time.perf_counter()
    plain, traced, tracers = [], [], []
    clamps = 0
    while True:
        tracer = None
        if trace and len(traced) < len(plain):
            tracer = spans.Tracer()
            reset_clamp_counter()
        index = (len(traced) if tracer is not None else len(plain)) % len(client.corpora)
        elapsed = client.unit(index, tracer)
        if tracer is not None:
            clamps += clamp_counter()
            tracers.append(tracer)
            traced.append(elapsed)
        else:
            plain.append(elapsed)
        done = len(plain) + len(traced)
        if elapsed is None or done >= MIN_UNITS and (
                time.perf_counter() - start + elapsed > seconds):
            break
    return plain, traced, tracers, clamps


def run_workload(name, seed, seconds, trace):
    checkout.use_checkout_src()
    import workloads

    if name not in workloads.WORKLOADS:
        raise checkout.CheckoutError(
            f"unknown workload {name!r}; expected one of {sorted(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[name]
    os.makedirs(checkout.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=checkout.WORK)
    try:
        corpora = [Corpus(workload, s, os.path.join(workdir, f"corpus-{s}"))
                   for s in corpus_seeds(seed)]
        reset_clamp_counter()
        client = Client(workload, corpora)
        plain, traced, tracers, clamps = measure(client, seconds, trace)
        env = environment(corpora[0].config)
        nominal = [c.nominal for c in corpora]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain_ok = [t for t in plain if t is not None]
    correct = client.failed == 0 and bool(plain_ok) and (not trace or all(
        t is not None for t in traced))
    metrics = {}
    if plain_ok and not trace:
        metrics = {
            "run_s": statistics.median(plain_ok),
            "windows_per_s": statistics.median(client.rates),
            "setup_s": statistics.median(client.setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "test_f1": client.test_f1(),
        }
    elif correct:
        import spans

        metrics, covered, unit_time = spans.layer_metrics(spans.merge(tracers), len(tracers))
        metrics["autodiff.clamp_events"] = clamps / len(tracers)
        metrics["trace.coverage"] = covered / unit_time
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain_ok)
        tracers[-1].write_jsonl(os.path.join(checkout.WORK, f"spans-{name}-seed{seed}.jsonl"))

    units = declared_metrics(trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ "
                           "from BENCHMARK.json")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why, "stresses": workload.stresses,
        "environment": env, "corpus_seeds": corpus_seeds(seed), "nominal_windows": nominal,
        "unit_times_s": plain, "traced_unit_times_s": traced,
        "setup_times_s": client.setup_times, "trials_attempted": client.attempted,
        "trials_failed": client.failed,
        "failed_ratio": client.failed / max(client.attempted, 1),
        "metrics": metrics,
    }
    with open(os.path.join(checkout.WORK, f"result-{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    report(record, units)
    return {
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(record, units):
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {record['workload']} seed {record['seed']}: {record['why']}")
    print(f"  {record['stresses']}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"  units {len(record['unit_times_s'])} untraced, "
          f"{len(record['traced_unit_times_s'])} traced; set-ups {len(record['setup_times_s'])}; "
          f"corpora {record['corpus_seeds']}, nominal windows per unit "
          f"{record['nominal_windows']}")
    print(f"  failed_ratio {record['failed_ratio']:.4f} ratio "
          f"({record['trials_failed']}/{record['trials_attempted']} trials)")
    for key, value in record["metrics"].items():
        print(f"  {key} {value:.6g} {units[key]}")


def run_all(args):
    """Every workload in its own process, so peak memory is per workload."""
    checkout.use_checkout_src()
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return None
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except checkout.CheckoutError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if result is None:
        print("error: a workload run failed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
