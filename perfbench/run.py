#!/usr/bin/env python3
"""Torus-study benchmark: times each stage of wavekam's pipeline (normal form,
degree-6 remainder, small divisors, excluded mass, KAM hypotheses, torus
frequencies) at the entry points a user calls, in one process, and checks
every stage's outputs.

    python3 perfbench/run.py --workload single_mode --seed 1 --seconds 50 --trace 0

Whole rounds of the six stages repeat until the next round would end past
--seconds (at least one round); each metric is the median over rounds.
Times are reported at the speed of the reference machine: each is scaled by
REFERENCE_NOMINAL_S over the run's median time of a fixed reference
computation, timed before every stage and every set-up.  The raw medians go
to stderr.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a run with spans around each layer's entry points.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  --workload all runs
every workload in turn, each with its own result line.
"""

import os

# one thread for BLAS and OpenMP, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import stages
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(ROOT, "scripts")
OUT = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
LAYERS = ("spectrum", "polyham", "birkhoff", "smalldiv", "kamcheck", "simulate")
SCRIPT_NAMES = ("excluded_mass_study", "frequency_shift_study")
SETUP_REPEATS = 15
# median of reference_s() on the reference machine with no other load (see
# README); every time is reported at this speed, which takes out the drift
# of a shared host
REFERENCE_NOMINAL_S = 0.011
_REFERENCE_X = np.exp(1j * np.arange(64.0))


class SetupError(RuntimeError):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under kind
    ("end_to_end" or "per_layer")."""
    if not os.path.isfile(SPEC):
        raise SetupError(f"missing {SPEC}")
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _purge() -> None:
    for name in list(sys.modules):
        if name == "wavekam" or name.startswith("wavekam.") or name.startswith("perfbench_script_"):
            del sys.modules[name]


def _load_script(name: str):
    path = os.path.join(SCRIPTS, name + ".py")
    if not os.path.isfile(path):
        raise SetupError(f"missing study script {path}")
    spec = importlib.util.spec_from_file_location("perfbench_script_" + name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def setup_once(workdir: str) -> stages.Program:
    """Import wavekam, its CLI and the study scripts from this checkout
    afresh, and empty the run's output directory."""
    _purge()
    if not os.path.isfile(os.path.join(SRC, "wavekam", "__init__.py")):
        raise SetupError(f"wavekam sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("wavekam")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported wavekam from {package.__file__}, not from {SRC}")
    layers = {name: importlib.import_module("wavekam." + name) for name in LAYERS}
    cli = importlib.import_module("wavekam.cli")
    scripts = {name: _load_script(name) for name in SCRIPT_NAMES}
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return stages.Program(layers, cli, scripts)


def reference_s() -> float:
    """Time of a fixed piece of work that never touches wavekam: dict and
    tuple churn plus small FFTs, the two kinds of work the stages do."""
    start = time.perf_counter()
    acc = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0j) + complex(i, -i)
    x = _REFERENCE_X
    for _ in range(300):
        x = np.fft.ifft(np.fft.fft(x))
    return time.perf_counter() - start


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_round(prog, w, seed: int, index: int, workdir: str, tracer, references: list) -> dict:
    """One pass over the six stages.  Returns the stage times, the counts of
    operations attempted and failed, the problems found and, when traced,
    the round's per-layer totals."""
    rng = np.random.default_rng([seed, 2, index])
    out_round = {"times": {}, "attempted": 0, "failed": 0, "problems": [], "layer": None}
    cli_self = script_self = 0.0
    cli_bytes = 0
    for stage in stages.STAGES:
        out = os.path.join(workdir, stage)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        out_round["attempted"] += 1
        # each stage starts from a collected heap, as a fresh CLI process would
        gc.collect()
        references.append(reference_s())
        top_before = tracer.top_level_s if tracer else 0.0
        start = time.perf_counter()
        try:
            result = stages.call(stage, prog, w, seed, out)
        except Exception:
            out_round["times"][stage] = time.perf_counter() - start
            out_round["failed"] += 1
            traceback.print_exc(file=sys.stderr)
            continue
        out_round["times"][stage] = elapsed = time.perf_counter() - start
        if tracer:
            own = elapsed - (tracer.top_level_s - top_before)
            if stage in stages.CLI_STAGES:
                cli_self += own
                cli_bytes += _dir_bytes(out)
            elif stage in stages.SCRIPT_STAGES:
                script_self += own
        outcome = stages.check(stage, result, w, seed, out, rng)
        del result
        out_round["problems"] += [f"{w.name}/{stage}: {p}" for p in outcome.problems]
        if outcome.known_fault and not outcome.problems:
            out_round["failed"] += 1
            for line in outcome.known_fault:
                print(f"{w.name}/{stage} failed (known fault): {line}", file=sys.stderr)
    if tracer:
        out_round["layer"] = {**tracer.stats, "cli.self_s": cli_self,
                              "scripts.self_s": script_self, "cli.bytes_written": cli_bytes,
                              "trace.overhead_s": tracer.overhead_s}
    return out_round


def _scaled(value: float, unit: str, speed: float) -> float:
    """A time (or rate) at the reference machine's speed."""
    if unit in ("s", "us"):
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def _per_layer(rounds: list[dict], cold_import_s: float, names) -> dict:
    med = {key: statistics.median(r.get(key, 0.0) for r in rounds)
           for key in set().union(*rounds)}

    def ratio(num, den):
        return med.get(num, 0.0) / med[den] if med.get(den) else 0.0

    med["smalldiv.scan_lower_bounds.queries_per_s"] = ratio(
        "smalldiv.scan_lower_bounds.queries", "smalldiv.scan_lower_bounds.s")
    med["kamcheck.melnikov_scan.checked_per_s"] = ratio(
        "kamcheck.melnikov_scan.checked", "kamcheck.melnikov_scan.s")
    med["kamcheck.check_transversality.derivative_share"] = ratio(
        "kamcheck.transversality.derivative", "kamcheck.transversality.branches")
    med["simulate.integrate.us_per_step"] = 1e6 * ratio(
        "simulate.integrate.s", "simulate.integrate.steps")
    med["setup.cold_import_s"] = cold_import_s
    return {name: med.get(name, 0.0) for name in names}


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    units = metric_units("per_layer" if trace else "end_to_end")
    # a directory of this process's own, so that concurrent runs cannot clash
    workdir = os.path.join(OUT, f"{w.name}-{os.getpid()}")
    references: list[float] = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        references.append(reference_s())
        start = time.perf_counter()
        prog = setup_once(workdir)
        setup_times.append(time.perf_counter() - start)
    rounds, durations = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer, prog.layers, prog.namespaces()):
                rounds.append(run_round(prog, w, seed, len(rounds), workdir, tracer, references))
        else:
            rounds.append(run_round(prog, w, seed, len(rounds), workdir, None, references))
        durations.append(time.perf_counter() - round_start)
        print(f"{w.name} round {len(rounds)}: " + " ".join(
            f"{stage}={t:.3f}s" for stage, t in rounds[-1]["times"].items()), file=sys.stderr)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    reference = statistics.median(references)
    speed = REFERENCE_NOMINAL_S / reference
    print(f"{w.name} reference_s {reference!r} over {len(references)} samples; "
          f"times scaled by {speed!r}", file=sys.stderr)
    if trace:
        raw = _per_layer([r["layer"] for r in rounds], setup_times[0], units)
    else:
        raw = {f"{stage}_s": statistics.median(r["times"][stage] for r in rounds)
               for stage in stages.STAGES}
        raw["setup_s"] = statistics.median(setup_times)
        raw["wall_s"] = statistics.median(sum(r["times"].values()) for r in rounds)
        raw["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, unit in units.items():
        print(f"{w.name} raw {name} {raw[name]!r} {unit}", file=sys.stderr)
    metrics = {name: {"value": float(_scaled(raw[name], unit, speed)), "unit": unit}
               for name, unit in units.items()}
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*stages.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(stages.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(stages.WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
        except (SetupError, ImportError) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        print(f"{name} attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        with open(os.path.join(OUT, f"result-{name}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=2)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
