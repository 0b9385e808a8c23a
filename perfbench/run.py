"""Benchmark of the optquad CLI: time, memory, accuracy and failures.

    python3 perfbench/run.py --workload report --seed 1 --seconds 25 --trace 0

Run from the repository root.  One caller drives `optquad.cli.main(argv)`
in this process as a closed loop, with stdout captured, repeating the
workload's op list (see workloads.py) in passes until `--seconds` have
passed and at least MIN_PASSES passes ran.  Every output is checked
(checks.py).  Times are in reference seconds (probe.py).  The last stdout
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it carries the run's metadata, raw wall times
and failures.

--trace 0 reports the end-to-end metrics (END_TO_END).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
spans.py plus `trace_overhead`, the traced over the untraced pass time.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath
import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import Checker, Outcome, is_known_defect  # noqa: E402
from probe import Probe  # noqa: E402
from reference import load  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "max_rel_err": "ratio",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.stdout_bytes": "bytes",
    "norm.build_report.calls": "count",
    "norm.quadform.pairs": "count",
    "wiener_hopf.solves": "count",
    "wiener_hopf.unknowns_cubed": "count",
    "wiener_hopf.residual_inf_max": "abs",
    "kernel.psi_elems": "count",
    "kernel.integrate_evals": "count",
    "coefficients.weights": "count",
    "trace_overhead": "ratio",
}


def measure_setup(probe: Probe) -> tuple[float, float]:
    """Median cold `import optquad` in a fresh interpreter: (reference s, wall s)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import optquad"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"cannot import optquad from {SRC}:\n{proc.stderr}")
        samples.append((wall * 2 / (before + probe()), wall))
    return statistics.median(r for r, _ in samples), statistics.median(w for _, w in samples)


def import_cli():
    sys.path.insert(0, str(SRC))
    import optquad.cli

    if SRC not in Path(optquad.cli.__file__).resolve().parents:
        raise SystemExit(f"optquad was imported from {optquad.cli.__file__}, not {SRC}")
    return optquad.cli


def run_op(cli, argv) -> tuple[object, str, float]:
    """(exit code or exception, captured stdout, seconds inside main)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
        except Exception as exc:  # an escaping exception is an op failure
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


class Ledger:
    """Per-op outcomes of one run; repeats are compared with the first run."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.first: dict[tuple, tuple[bytes, object, Outcome]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.unexpected = 0

    def record(self, argv, rc, text: str) -> None:
        digest = hashlib.sha256(text.encode()).digest()
        if argv not in self.first:
            self.first[argv] = (digest, rc, self.checker.check(argv, rc, text))
        first_digest, first_rc, outcome = self.first[argv]
        if (digest, rc) != (first_digest, first_rc):
            outcome = Outcome(outcome.failures + ["stdout differs from the first run of this op"])
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.failures[(" ".join(argv), "; ".join(outcome.failures))] += 1
            self.unexpected += not is_known_defect(argv, outcome)

    @property
    def max_rel_err(self) -> float:
        """Worst compared error; 1.0 (nothing right) when no output could be compared."""
        return max((e for _, _, outcome in self.first.values() for e in outcome.errors),
                   default=1.0)


def run_pass(cli, ops, rng, ledger, probe, tracer=None) -> tuple[float, float]:
    """One shuffled pass: (seconds inside main, mean probe slowness next to the ops)."""
    order = list(ops)
    rng.shuffle(order)
    total = probed = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for argv in order:
            probed += probe()
            rc, text, seconds = run_op(cli, argv)
            if tracer:
                tracer.counts["cli.stdout_bytes"] += len(text.encode())
            total += seconds
            ledger.record(argv, rc, text)
    return total, probed / len(order)


def _pass_s(passes) -> float:
    return statistics.median(seconds / slowness for seconds, slowness in passes)


def benchmark(workload: str, seed: int, seconds: float, traced: bool,
              min_passes: int | None = None) -> tuple[dict, Ledger]:
    if min_passes is None:
        min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    rng = random.Random(seed)
    ops = build_ops(workload, rng)
    probe = Probe()
    setup_s, setup_wall = (None, None) if traced else measure_setup(probe)
    cli = import_cli()
    ledger = Ledger(Checker(load()))
    tracer = Tracer()
    plain, with_trace, layer_samples = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(with_trace if traced else plain) < min_passes):
        plain.append(run_pass(cli, ops, rng, ledger, probe))
        if traced:
            tracer.reset()
            with_trace.append(run_pass(cli, ops, rng, ledger, probe, tracer))
            sample = {f"{k}.self_s": v for k, v in tracer.self_times().items()}
            layer_samples.append({**sample, **tracer.counts})
    if traced:
        values = {k: statistics.median(s.get(k, 0) for s in layer_samples) for k in PER_LAYER
                  if k != "trace_overhead"}
        values["trace_overhead"] = _pass_s(with_trace) / _pass_s(plain)
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "pass_s": _pass_s(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
            "max_rel_err": ledger.max_rel_err,
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    wall = {"pass_s": statistics.median(s for s, _ in plain),
            "slowness": statistics.median(p for _, p in plain), "setup_s": setup_wall}
    return {"metrics": metrics, "passes": len(plain), "traced_passes": len(with_trace),
            "wall": wall}, ledger


# ------------------------------------------------------------- metadata


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def metadata(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, ledger = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    failures = [{"op": op, "failures": why, "count": k}
                for (op, why), k in sorted(ledger.failures.items())]
    info = {"workload": args.workload, "trace": args.trace,
            "passes": result["passes"], "traced_passes": result["traced_passes"],
            "wall": result["wall"],
            "meta": metadata(args.seed), "failures": failures}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
