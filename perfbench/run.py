"""Benchmark of the lqgmfg solver, simulator and trading layers.

    python3 perfbench/run.py --workload {equilibrium,crowd,nash,trading}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree.  The workload runs in this process, one
operation after another, on the package under ``src/`` of that tree.  With
``--trace 0`` it prints the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``), with the two times given at the reference speed of
``speedprobe.py``; with ``--trace 1`` the per-layer metrics of a traced round
and the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the largest matrix is 12x12, and the machine has 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speedprobe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"          # relative to ROOT, the working directory


def _import_package():
    """Import lqgmfg from this tree's ``src``; exit non-zero when it is not
    there, so a tree without the package yields no result."""
    if not (SRC / "lqgmfg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lqgmfg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqgmfg
    if Path(lqgmfg.__file__).resolve().parent != SRC / "lqgmfg":
        sys.exit(f"perfbench: imported lqgmfg from {lqgmfg.__file__}, not {SRC}")
    return lqgmfg


def _git_sha() -> str:
    """HEAD of the tree's git checkout, read from .git; 'unknown' without one."""
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


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count in case a later change
    # moves work into subprocesses
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Runner:
    """Runs rounds of a workload's operations and tallies them."""

    def __init__(self, ops, probe):
        self.ops = ops
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def round(self) -> list[tuple[float, slice]]:
        """One pass over the operations; returns each operation's time and
        the window of probe samples taken during it.  Checks and the speed
        probe's kernel run outside the timed part."""
        times = []
        for op in self.ops:
            self.attempted += 1
            t0, p0, i0 = time.perf_counter(), self.probe.busy, self.probe.mark()
            try:
                output = op.run()
                failed = False
            except Exception:   # a failed operation is counted, not fatal
                failed = True
            times.append((time.perf_counter() - t0 - (self.probe.busy - p0),
                          slice(i0, self.probe.mark())))
            if failed:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            try:
                op.check(output)
            except checks.CheckFailed as exc:
                self.errors.append(f"{op.name}: {exc}")
            del output
        return times

    def rounds(self, seconds: float) -> list[list[tuple[float, slice]]]:
        """Whole rounds until ``seconds`` of timed phase have passed."""
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(self.round())
            if time.perf_counter() - start >= seconds:
                return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("equilibrium", "crowd", "nash", "trading"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    # the untraced run samples the machine's speed from here to its end
    probe = speedprobe.SpeedProbe()
    if not args.trace:
        probe.start()
    lqgmfg = _import_package()
    import numpy
    import scipy

    import tracing
    import workloads

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, out, tracer)
        runner = Runner(ops, probe)
        setup_raw = time.perf_counter() - T_START - probe.busy
        setup_window = slice(0, probe.mark())
        if args.trace:
            # untraced rounds first, then one traced round, on the same set-up
            tracer.uninstall()
            untraced = statistics.median(sum(t for t, _ in r)
                                         for r in runner.rounds(args.seconds))
            tracer.install()
            traced = sum(t for t, _ in runner.round())
            tracer.uninstall()
            metrics, absent = tracing.layer_metrics(tracer)
            metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            rounds = runner.rounds(args.seconds)
            probe.stop()
            wall_raw = statistics.median(sum(t for t, _ in r) for r in rounds)
            wall_s = statistics.median(sum(t * probe.scale(w) for t, w in r)
                                       for r in rounds)
            setup_s = setup_raw * probe.scale(setup_window)
            metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                       "wall_s": {"value": wall_s, "unit": "s"},
                       "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"}}
            absent = []
    finally:
        probe.stop()
        tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)

    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": runner.attempted // len(ops), "git_sha": _git_sha(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "lqgmfg": lqgmfg.__version__, "cores": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "absent_metrics": absent, "check_failures": runner.errors}
    if not args.trace:
        info.update(raw_setup_s=round(setup_raw, 4), raw_wall_s=round(wall_raw, 4),
                    probe_ms=round(probe.median_ms(), 4),
                    probe_samples=len(probe.samples))
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"info": info, **result}, fh, indent=1)
        fh.write("\n")
    for err in runner.errors:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()
                          if k not in ("absent_metrics", "check_failures"))
          + f" attempted={runner.attempted} failed={runner.failed}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if absent:
        print("# absent: " + " ".join(absent))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
