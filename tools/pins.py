"""Run every output pin of the recindex CLI: ``python tools/pins.py``, no options.

Each pin runs ``python -m recindex ARGS`` (the replay pin ``python -c``) with
``src/`` first on ``PYTHONPATH``, in a temporary directory holding the datasets
its arguments name.  It passes if the child exits with the pinned code within
its timeout (else it is killed), stdout has the pinned sha256, stderr holds no
``Traceback`` and starts with ``error:`` on exit 1 and ``refused:`` on exit 3,
and peak RSS is within the limit.  Prints one line per pin (name, exit code,
sha256 prefix, peak RSS, seconds), then a JSON summary; exits 1 if one fails.
"""

import collections
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sha is of stdout (None: not pinned), limit_mb of peak RSS (None: no limit),
# timeout in seconds, argv follows ``python``.  A limit is the pin's largest
# peak over three runs on each of Python 3.10 and 3.11, plus 6 MB, rounded up;
# the 50k report pins sit at least 6 MB over theirs, and axioms-10x10,
# compute-table and sequence-99x1000 keep looser limits for now.
Pin = collections.namedtuple("Pin", "name argv code limit_mb timeout sha why")


def cli(args: str) -> tuple[str, ...]:
    return ("-m", "recindex", *args.split())


# perfbench/workloads.py's researchers, counts and format, or the cells written
# before each "\r\n" (the writer's line end) of the clean 50k file.
DATASETS = {"pareto-50k.csv": (50000, "pareto_counts", "csv"),  # the ROADMAP item 6 dataset
            "long-5k.jsonl": (5000, "exponential_counts", "jsonl"),
            "pareto-50k-empty-cells.csv": b",,", "pareto-50k-blank-cell.csv": b", "}


def dataset(path: Path) -> None:
    recipe = DATASETS[path.name]
    if isinstance(recipe, bytes):
        clean = path.with_name("pareto-50k.csv")
        dataset(clean)
        path.write_bytes(clean.read_bytes().replace(b"\r\n", recipe + b"\r\n"))
    elif not path.exists():
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads
        researchers, counts, fmt = recipe
        workloads.write_dataset(path, 5, researchers, getattr(workloads, counts), fmt)


REPLAY = """import json, sys
from recindex.axioms import CHI, VIOLATED, AxiomVerdict, counterexample_registry, replay_counterexample
indices = {index.name: index for index in [*counterexample_registry(), CHI]}
failed = []
for path in sys.argv[1:]:
    with open(path) as lines:
        rows = [row for row in map(json.loads, lines) if row.get("status") == VIOLATED]
    failed += [f"{path}: {row}" for row in rows if not replay_counterexample(AxiomVerdict(**row), indices[row["index"]])]
    failed += [] if rows else [f"{path}: no witness"]
    print(f"{path}: {len(rows)} witnesses")
sys.exit("\\n".join(failed) or None)
"""
SCANS = ("8x8", "10x10", "127x1", "12x12-seed1", "40x40-seed7", "40x40-seed1")
REFUSED = "refused before any image table is built, or a regressed refusal runs to the job's limit"
STREAMED = "the file is read and the rows written a line at a time; a parse holding the whole text peaks over the limit"
CLEAN = "80bd0fc145b09ef58fd59c4e8d31c7e7838611030b7d19919a94c63fdb7e606f"

# Exit 2 on a scan is the known min_n_x1/UE mismatch.  The report hashes were
# the same on Python 3.10, 3.11 and 3.13.
PINS = [
    Pin("axioms-8x8", cli("axioms --n-max 8 --c-max 8 --format jsonl"), 2, 30, 600,
        "5f2b1a6ed9dd6db8293961e6d9e9bfb0b4c8c671b15844ab288af14986480adc", "the 8x8 box, every vector enumerated"),
    Pin("axioms-10x10", cli("axioms --n-max 10 --c-max 10 --format jsonl"), 2, 128, 600,
        "4ec7071a5773df26b49ca206c6c55cbb75926669971f8b2669b5357376502824",
        "184,756 vectors, 923,780 steps inside, 184,756 leaving; one column walk serves every index"),
    Pin("axioms-127x1", cli("axioms --n-max 127 --c-max 1 --format jsonl"), 2, 23, 600,
        "97e686fd6144e5e40b8ad63f3316cd29c3f9186e0baf58a8216da75ba8d4a073", "exits reach rank 128, past a signed byte"),
    Pin("axioms-12x12-seed1", cli("axioms --n-max 12 --c-max 12 --seed 1 --format jsonl"), 2, 23, 600,
        "423f48a8d279a64c52b45a26f66db299750919f8d210ce355bcad46e5e36fd18", "with a seed 12x12 is sampled, 500 draws"),
    Pin("axioms-40x40-seed7", cli("axioms --n-max 40 --c-max 40 --seed 7 --sample-size 500 --format jsonl"),
        2, 25, 600, "811808ab4e4e7449b45bd7376472df7fcac41679344026230a8c45d26884cf44", "README's own example"),
    Pin("axioms-40x40-seed1", cli("axioms --n-max 40 --c-max 40 --sample-size 20 --seed 1 --format jsonl"),
        2, 24, 600, "f7d88fdcfce109570329dc3b59c665dc074273eea9e383106d85448d913d929d", "the axioms-sampled benchmark scan"),
    Pin("replay", ("-c", REPLAY, *(f"axioms-{scan}.out" for scan in SCANS)), 0, 23, 600, None,
        "every violated row of the six scans, the chi bound's too, replays for the index it names"),
    Pin("refuse-1x100000", cli("axioms --n-max 1 --c-max 100000"), 3, 23, 60, None, REFUSED),
    Pin("refuse-2x1000000-seed1", cli("axioms --n-max 2 --c-max 1000000 --seed 1"), 3, 23, 60, None, REFUSED),
    Pin("refuse-1000000x1000000", cli("axioms --n-max 1000000 --c-max 1000000"), 3, 23, 60, None,
        "refused without its exact count, which alone takes tens of seconds"),
    Pin("refuse-1000000x1000000-seed1", cli("axioms --n-max 1000000 --c-max 1000000 --seed 1"), 3, 23, 60,
        None, REFUSED),
    Pin("refuse-2000x2", cli("axioms --n-max 2000 --c-max 2"), 3, 23, 60, None,
        "charged 2,000 entries for each of its 2,003,001 vectors"),
    Pin("refuse-12x12", cli("axioms --n-max 12 --c-max 12"), 3, 23, 600, None,
        "2,704,156 vectors, refused by their count before enumeration (which took about 0.6 GB)"),
    Pin("compute-csv", cli("compute pareto-50k.csv --format csv"), 0, 45, 600, CLEAN, STREAMED),
    Pin("rank-rec", cli("rank pareto-50k.csv --by rec"), 0, 45, 600,
        "aa6308284a21c31a68044e09683d70817a8e63da781607071541fde82e6d2d3d", STREAMED),
    Pin("rank-chi-jsonl", cli("rank pareto-50k.csv --by chi --format jsonl"), 0, 45, 600,
        "23b54ef42d5a43b347757eb72257740a617387436944c224a3f2f337074a3441", STREAMED),
    Pin("classify-csv", cli("classify pareto-50k.csv --format csv"), 0, 45, 600,
        "662d9a4cfe7403c80dcf7d3d01ef74f0bd81d6e0cdbc27db5ad839afcc6933e4", STREAMED),
    Pin("rank-h-csv", cli("rank pareto-50k.csv --by h --format csv"), 0, 45, 600,
        "3b2d742df31ff55a055ff899a1ec17eea3a634770a0c9d1d258b339d5dbcfffb", STREAMED),
    Pin("rank-w-csv", cli("rank pareto-50k.csv --by w --format csv"), 0, 45, 600,
        "82cbc6df285082681927916ba08d1873146f13fd99b6b96ea541d56e49f0c23a", STREAMED),
    Pin("classify-table", cli("classify pareto-50k.csv --format table"), 0, 48, 600,
        "dc3832a82dd3c5c7c2ea7e5bb0f726fd5c858db1e55ed67c0b654aad0d06346e", STREAMED),
    Pin("compute-table", cli("compute pareto-50k.csv --format table"), 0, 85, 600,
        "0ffbb5f2d760dfc307f7ea6e50f5c38f185dedb7043aaa5634ab16b5e8e39a99", "a table holds its cells to size columns"),
    Pin("compute-csv-empty-cells", cli("compute pareto-50k-empty-cells.csv --format csv"), 0, 45, 600, CLEAN,
        "two empty cells end each row and are dropped with the zero counts"),
    Pin("compute-csv-blank-cell", cli("compute pareto-50k-blank-cell.csv --format csv"), 0, 45, 600, CLEAN,
        "a blank cell ends each row and sends it through the per-cell loop"),
    Pin("long-rank-w-csv", cli("rank long-5k.jsonl --by w --format csv"), 0, 32, 600,
        "759e1a493743ed8ad88df2d637a7319d61b796ed34d978b0442fefdae58a724b", "w stops early in each long vector"),
    Pin("long-compute-jsonl", cli("compute long-5k.jsonl --format jsonl"), 0, 32, 600,
        "d47fb9a22aa31f275f8ab9470189a09605d3d57ce238eebaaf1460c8bf0afb22", "report_indices leaves h, g, w behind"),
    Pin("long-compute-table-maximizers", cli("compute long-5k.jsonl --format table --show-maximizers"), 0, 36, 600,
        "e39f4d82e49b10db05d274202818be952c8547c727e251a50d0ead89955372ee", "every record goes through make_vector"),
    Pin("sequence-99x1000", cli("sequence " + ",".join(["1000"] * 99) + " --format jsonl"), 0, 256, 600,
        "da0845ec40ae8eb4f19d54b0aef4c9fd944a03a393654559687c60469862525f",
        "99,001 steps charged 99,001 x (99 + 6) = 10,395,105 of the 10,500,000 entries"),
    Pin("refuse-sequence-9999999", cli("sequence 9999999"), 1, 21, 60, None,
        "10^7 one-entry steps (about 1.6 GB if built) are refused before anything is built"),
    Pin("refuse-sequence-99999x10", cli("sequence " + ",".join(["99999"] * 10)), 1, 21, 60, None,
        "steps charged len + 6 entries each (about 381 MB if built): refused before anything is built"),
]

# Runs one child and prints its exit code, peak RSS in kB, seconds and whether
# it was killed.  On Linux a child's ru_maxrss starts at the peak of the process
# that spawned it, so a bare interpreter spawns each one; and RUSAGE_CHILDREN
# would give the largest peak of every child reaped so far.
SPAWN = """import os, sys, time
timeout, out, err, *argv = sys.argv[1:]
flags, start, killed = os.O_WRONLY | os.O_CREAT | os.O_TRUNC, time.monotonic(), False
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
while not (reaped := os.wait4(pid, os.WNOHANG))[0]:
    if time.monotonic() - start > float(timeout):
        os.kill(pid, 9)
        killed = True
    time.sleep(0.005)
print(os.waitstatus_to_exitcode(reaped[1]), reaped[2].ru_maxrss, time.monotonic() - start, killed)
"""


def run(pin: Pin, cwd: Path, env: dict[str, str]) -> tuple[float, list[str]]:
    """Run one pin and print its line; return its peak RSS in MB and its failures."""
    out, err = cwd / f"{pin.name}.out", cwd / f"{pin.name}.err"
    report = subprocess.run([sys.executable, "-S", "-c", SPAWN, str(pin.timeout), out, err, sys.executable,
                             *pin.argv], cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    code, peak_kb, seconds, killed = report.stdout.split()
    code, peak_mb = int(code), int(peak_kb) / 1024
    sha, stderr = hashlib.sha256(out.read_bytes()).hexdigest(), err.read_bytes()
    failures = [failure for failed, failure in [
        (killed == "True", f"killed after {pin.timeout:g} s"),
        (code != pin.code, f"exit {code}, pinned {pin.code}"),
        (pin.sha is not None and sha != pin.sha, f"sha256 {sha}, pinned {pin.sha}"),
        (pin.limit_mb is not None and peak_mb > pin.limit_mb, f"peak RSS {peak_mb:.1f} MB, limit {pin.limit_mb} MB"),
        (b"Traceback" in stderr or not stderr.startswith({1: b"error:", 3: b"refused:"}.get(code, b"")),
         f"stderr {stderr[:200]!r}")] if failed]
    print(f"{'FAIL' if failures else 'ok':<4}  {pin.name:<30} exit {code:>2}  {sha[:8]}  {peak_mb:6.1f} MB  "
          f"{float(seconds):6.2f} s", *failures, sep="  ", flush=True)
    return peak_mb, failures


def main(pins: list[Pin] = PINS) -> int:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env, start, failed, peaks = {**os.environ, "PYTHONPATH": path}, time.perf_counter(), [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for pin in pins:
            for name in set(pin.argv) & DATASETS.keys():
                dataset(Path(tmp, name))
            peaks[pin.name], failures = run(pin, Path(tmp), env)
            failed += [pin.name] if failures else []
    print(json.dumps({"pins": len(pins), "failed": failed, "seconds": round(time.perf_counter() - start, 1),
                      "peak_mb": {name: round(mb, 1) for name, mb in peaks.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
