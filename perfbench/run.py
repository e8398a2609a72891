"""End-to-end benchmark of the recindex CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports ``recindex`` from the checkout's ``src/`` and
drives ``recindex.cli.main`` in this process, one command at a time: a
closed loop with one client and no extra threads.  A run

1. sets up: times a fresh interpreter importing ``recindex.cli`` plus
   writing the workload's seeded input files, several times;
2. runs one untimed warm-up pass over the workload's commands and checks
   every output row or verdict cell against the benchmark's oracle;
3. repeats a fixed number of timed passes: ``--seconds`` over the
   workload's nominal pass time (``Workload.pass_s``), so that a seed
   always attempts the same operations and fails the same ones, however
   fast the host runs; each pass's output must equal the checked one (a
   differing output is checked in full);
4. with ``--trace 1``, spends the second half of the passes traced by
   ``tracing.Tracer`` and reports per-layer metrics instead of
   end-to-end ones.

End-to-end metrics (``--trace 0``):

- ``setup_s``: median time of one set-up repeat;
- ``wall_s``: median time of one untraced pass over the commands;
- ``records_per_s``: operations per pass over ``wall_s``, where an
  operation is one emitted report row or one axiom verdict cell;
- ``vectors_per_s``: citation vectors scored per pass over ``wall_s``:
  each researcher once per command on report workloads, scan-domain
  vectors times computed verdict cells on axiom workloads;
- ``peak_rss_mb``: peak resident memory of this process.

Every time is scaled to a reference host speed (see ``calibrate``); the
unscaled pass times are kept in the result file.  Failed operations are
reported as ``failed`` out of ``attempted``; ``correct`` is false when a
whole command went wrong (exit code, summary line, pinned reference).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for a reader.  A self-describing copy of the result goes to
``perfbench/out/``.  Without ``src/recindex`` next to ``perfbench/`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Tally, oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "vectors_per_s": "1/s",
    "peak_rss_mb": "MB",
}

AXIOM_IDS = ("M", "SM", "SI", "SC", "RC", "UC", "UE", "CI", "UM", "USC", "UI", "RANK_IND", "RANK_SI")

PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.parse_calls": "count",
    "ingest.records": "count",
    "ingest.build_report_s": "s",
    "ingest.report_row_s": "s",
    "ingest.rank_rows_s": "s",
    "core.make_vector_s": "s",
    "core.rec_index_s": "s",
    "core.h_index_s": "s",
    "core.aux_indices_s": "s",
    "core.rec_variants_s": "s",
    "core.conjugate_s": "s",
    "core.conjugate_calls": "count",
    "core.dominates_calls": "count",
    "cli.main_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "enumeration.enumerate_calls": "count",
    "enumeration.enumerate_s": "s",
    "enumeration.vectors_yielded": "count",
    "enumeration.sample_calls": "count",
    "enumeration.sample_s": "s",
    "axioms.check_calls": "count",
    **{f"axioms.check.{axiom}_s": "s" for axiom in AXIOM_IDS},
    "axioms.independence_s": "s",
    "axioms.chi_bound_s": "s",
    "axioms.index_evals": "count",
    "axioms.refused": "count",
    "sequences.search_calls": "count",
    "sequences.search_s": "s",
    "sequences.search_expansions": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_recindex() -> dict:
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "recindex" / "cli.py").is_file():
        raise BenchmarkError(f"no recindex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import recindex
    from recindex import axioms, cli, core, enumeration, ingest, sequences

    if Path(recindex.__file__).resolve().parent != SRC / "recindex":
        raise BenchmarkError(f"recindex was imported from {recindex.__file__}, not {SRC}")
    return {
        "cli": cli,
        "ingest": ingest,
        "core": core,
        "enumeration": enumeration,
        "axioms": axioms,
        "sequences": sequences,
    }


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: Seconds the calibration loop takes on the reference host.
CALIBRATION_S = 0.017

CALIBRATION_COUNTS = [[(i * 37 + k * 11) % 50 for k in range(5 + i % 40)] for i in range(200)]
CALIBRATION_VECTORS = [sorted(((i * 7 + k * 13) % 97 + 1 for k in range(200)), reverse=True) for i in range(12)]


def calibrate() -> float:
    """Time a fixed pure-Python loop that runs no recindex code.

    The hosts this benchmark was built on change speed by tens of percent
    from one second to the next, and process CPU time moves with wall
    time, so the program cannot be timed steadily on its own.  This loop,
    timed right before and after each measured command, gives the host's
    speed during it.  Its work resembles the program's: tuples, sorting,
    dicts, the benchmark's own index oracle, CSV, JSON, and a conjugate and
    w-index loop like the ones in ``recindex.core`` as first written.  The
    garbage collector is off so that the loop's time does not depend on
    what the program left on the heap.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(4000):
            key = tuple(sorted((i * 7919 + k * 31) % 101 for k in range(8)))
            table[key] = f"{sum(key)}:{i}"
        writer = csv.writer(io.StringIO())
        for i, counts in enumerate(CALIBRATION_COUNTS):
            row = oracle(str(i), counts)
            writer.writerow([row.id, row.n, row.citations, row.h, row.rec])
            json.loads(json.dumps({"id": row.id, "citations": counts}))
        for x in CALIBRATION_VECTORS:
            conjugate = [0] * x[0]
            for c in x:
                for i in range(c):
                    conjugate[i] += 1
            for w in range(len(x), 0, -1):
                if all(x[i - 1] >= w - i + 1 for i in range(1, w + 1)):
                    break
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Scales consecutive measured intervals to the reference host speed.

    Every time the benchmark reports is a measured time multiplied by
    ``factor()``: the time the interval would have taken on a host where
    the calibration loop takes CALIBRATION_S.
    """

    def __init__(self) -> None:
        for _ in range(3):
            calibrate()  # the first runs of the loop are slower; discard them
        self.before = calibrate()

    def factor(self) -> float:
        """Factor for the interval that just ended."""
        after = calibrate()
        factor = 2 * CALIBRATION_S / (self.before + after)
        self.before = after
        return factor


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


IMPORT = "import time; t = time.perf_counter(); import recindex, recindex.cli; print(time.perf_counter() - t)"


def fresh_import() -> float:
    """Seconds a fresh interpreter takes to import ``recindex.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=60,
        capture_output=True,
        text=True,
    )
    return float(done.stdout)


def set_up(workload, seed: int, work_dir: Path, modules) -> tuple[list[float], object]:
    """Times each set-up repeat; returns the scaled times and the last prepared workload."""
    fresh_import()  # untimed: writes the bytecode cache the timed imports read
    times = []
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        imported = fresh_import()
        start = time.perf_counter()
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        prepared = workload.prepare(workload, work_dir, seed, modules)
        times.append((imported + time.perf_counter() - start) * speed.factor())
    return times, prepared


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(cli, commands, speed: HostSpeed | None = None):
    """One pass over the commands.

    Returns the pass's scaled and raw durations and every output.  Each
    command's time is scaled by the host speed measured around it; the
    warm-up pass, run without ``speed``, is not scaled.
    """
    gc.collect()
    scaled = raw = 0.0
    outputs = []
    for command in commands:
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.main(command.argv, out)
        elapsed = time.perf_counter() - start
        raw += elapsed
        scaled += elapsed * (speed.factor() if speed else 1.0)
        outputs.append((code, out.getvalue()))
    return scaled, raw, outputs


def check_outputs(prepared, outputs) -> Tally:
    tally = Tally()
    for command, (code, text) in zip(prepared.commands, outputs):
        tally.add(command.verify(code, text))
    return tally


def timed_passes(cli, prepared, passes: int, reference, after_pass=None):
    """``passes`` timed passes.

    Returns the scaled and the raw pass durations, and the outputs that
    differ from the reference outputs, to be checked once tracing is off.
    ``after_pass`` receives each pass's mean host-speed factor.
    """
    durations, raws, differing = [], [], []
    speed = HostSpeed()
    for _ in range(passes):
        scaled, raw, outputs = run_pass(cli, prepared.commands, speed)
        durations.append(scaled)
        raws.append(raw)
        if after_pass is not None:
            after_pass(scaled / raw)
        if outputs != reference:
            differing.append(outputs)
    return durations, raws, differing


def measure(modules, prepared, passes: int, trace: bool) -> dict:
    """Warm-up pass, ``passes`` timed passes and, with ``trace``, half of
    them traced instead."""
    cli = modules["cli"]
    warm_s, _, reference = run_pass(cli, prepared.commands)
    untraced = max(3, passes // 2) if trace else passes
    untraced_s, raw_s, differing = timed_passes(cli, prepared, untraced, reference)
    traced_s, layers, spans = [], [], []
    if trace:
        tracer = Tracer(modules)

        def collect(factor):
            totals, pass_spans = tracer.take_pass()
            layers.append({k: v * factor if k.endswith("_s") else v for k, v in totals.items()})
            spans[:] = pass_spans

        tracer.install()
        try:
            traced_s, _, more = timed_passes(cli, prepared, untraced, reference, collect)
        finally:
            tracer.uninstall()
        differing += more

    # Every pass is checked: one equal to the warm-up output repeats its tally.
    checked = check_outputs(prepared, reference)
    same = 1 + len(untraced_s) + len(traced_s) - len(differing)
    tally = Tally(checked.attempted * same, checked.failed * same, checked.problems, checked.failures)
    for outputs in differing:
        tally.add(check_outputs(prepared, outputs))
    return {
        "warm_s": warm_s,
        "untraced_s": untraced_s,
        "raw_s": raw_s,
        "traced_s": traced_s,
        "layers": layers,
        "spans": spans,
        "tally": tally,
        "output_bytes": sum(len(text.encode()) for _, text in reference),
    }


# ---------------------------------------------------------------------------
# metrics and the result file
# ---------------------------------------------------------------------------


def end_to_end(setup_times, measured, prepared) -> dict:
    wall = statistics.median(measured["untraced_s"])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "records_per_s": prepared.records / wall,
        "vectors_per_s": prepared.vectors / wall,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(measured) -> dict:
    values = {}
    for name, unit in PER_LAYER.items():
        value = statistics.median(layer.get(name, 0) for layer in measured["layers"])
        values[name] = int(value) if unit == "count" else value  # counts repeat every pass
    values["cli.output_bytes"] = measured["output_bytes"]
    values["trace.overhead_ratio"] = statistics.median(measured["traced_s"]) / statistics.median(
        measured["untraced_s"]
    )
    return values


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def spread(samples: list[float]) -> dict:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"runs": len(samples), "median": statistics.median(samples), "q1": quartiles[0], "q3": quartiles[2]}


def benchmark(workload, seed: int, seconds: float, trace: bool, modules) -> tuple[dict, list]:
    """Run one workload; return its self-describing record and the spans of
    the last traced pass.  ``record["result"]`` is the line printed last."""
    work_dir = OUT / "inputs" / f"{workload.name}-seed{seed}"
    try:
        setup_times, prepared = set_up(workload, seed, work_dir, modules)
        measured = measure(modules, prepared, workload.passes(seconds), trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tally = measured["tally"]
    if trace:
        values, units = per_layer(measured), PER_LAYER
    else:
        values, units = end_to_end(setup_times, measured, prepared), END_TO_END
    result = {
        # Failed operations are counted in "failed"; "correct" is false when
        # the run as a whole went wrong (exit codes, scan summary, reference).
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "layer_effects": workload.moves,
        "seed": seed,
        "seconds": seconds,
        "passes": workload.passes(seconds),
        "trace": int(trace),
        "git_sha": git_sha(),
        "machine": machine(),
        "inputs": prepared.inputs,
        "commands": [command.argv for command in prepared.commands],
        "setup_s": spread(setup_times),
        "warm_pass_s": measured["warm_s"],
        "untraced_pass_s": spread(measured["untraced_s"]),
        "unscaled_pass_s": spread(measured["raw_s"]),
        "traced_pass_s": spread(measured["traced_s"]) if trace else None,
        "failed_ratio": tally.failed / tally.attempted,
        "problems": tally.problems,
        "failures": tally.failures,
        "result": result,
    }
    return record, measured["spans"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        modules = import_recindex()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    record, spans = benchmark(workload, args.seed, args.seconds, bool(args.trace), modules)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{workload.name}.spans.jsonl", "w") as f:
            for name, parent, start, end in spans:
                f.write(json.dumps([name, parent, start, end - start]) + "\n")

    result = record["result"]
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"  passes: 1 warm-up, {record['untraced_pass_s']['runs']} timed", end="")
    print(f", {record['traced_pass_s']['runs']} traced" if args.trace else "")
    for name, metric in result["metrics"].items():
        print(f"  {name:32} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':32} {record['failed_ratio']:.6g} ({result['failed']} of {result['attempted']} operations)")
    for line in record["problems"] + record["failures"][:5]:
        print(f"  ! {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
