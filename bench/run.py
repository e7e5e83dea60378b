"""spectragen benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload augment --seed 1 --seconds 30 --trace 0

Run from the repository root. `--trace 0` times ops through the public
entry points with no wrappers and reports the end-to-end metrics, with
set-up timed between ninths of the run. `--trace 1` times half of the run
untraced and half with the tracer installed, and reports the per-layer
metrics. Every op's output is checked. The last line of standard output
is one JSON object; the line before it is a report with the environment,
the check details and, for traced runs, the full per-span table.

`--write-references` recomputes `references.json` from the reference-seed
pool; run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings above)

ROOT = Path(__file__).resolve().parent.parent
# Shared hosts slow the CPU by up to 40% for minutes at a time. A probe, a
# fixed mix of the kinds of work the workloads do, is timed before and after
# every op and set-up; times are scaled by PROBE_REF_S / probe time, which
# holds them within a few percent while raw times move by 10-40%.
PROBE_REF_S = 0.04
SETUP_REPEATS = 9
SUBMODULES = ("autodiff", "hsi", "nn", "rgan", "diffusion", "synth")
TAIL_BEYOND = 10


def import_program() -> None:
    """Import spectragen from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spectragen

    if Path(spectragen.__file__).resolve().parent.parent != src:
        raise ImportError(f"spectragen imported from {spectragen.__file__}, not {src}")


def time_import(tag: int) -> float:
    """Seconds to import spectragen afresh.

    The copy is loaded under a private package name, so the modules in use
    stay untouched; it reads the same bytecode cache as a first import.
    """
    name = f"_spectragen_setup{tag}"
    pkg = ROOT / "src" / "spectragen"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    t0 = perf_counter()
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        for sub in SUBMODULES:
            importlib.import_module(f"{name}.{sub}")
        return perf_counter() - t0
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def time_setup(cls, seed: int, tag: int) -> float:
    """One set-up: import spectragen, then build models, weights, inputs and
    references."""
    import_s = time_import(tag)
    t0 = perf_counter()
    cls(seed)
    return import_s + perf_counter() - t0


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(),
    }


class Probe:
    """Times a fixed im2col GEMM, elementwise maths and an interpreter loop
    on fixed inputs; independent of spectragen."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(32, 66, 66))
        self.k = rng.normal(size=(96, 32 * 9))

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(3):
            windows = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(1, 2))
            y = self.k @ windows.transpose(1, 2, 0, 3, 4).reshape(64 * 64, -1).T
            y = np.exp(-np.abs(y)) * y + 1.0
            total = 0.0
            for i in range(2000):
                total += float(y[0, i])
        return perf_counter() - t0


def adjust(seconds: float, before: float, after: float) -> float:
    """`seconds` at the host speed where the probe takes PROBE_REF_S."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)


class Client:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probe = Probe()
        self.probes: list[float] = []

    def timed_probe(self) -> float:
        t = self.probe()
        self.probes.append(t)
        return t

    def op(self, i: int, reference: bool = False):
        """Prepare op i untimed, run it timed, then check it; returns seconds."""
        wl = self.wl
        pool = wl.reference_pool if reference else wl.pool
        wl.prepare(i)
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = wl.run(pool, i)
        except Exception as exc:  # any exception, NumericalFailure included, fails the op
            elapsed = perf_counter() - t0
            self._fail(i, [f"{type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = perf_counter() - t0
        problems = wl.check(out, i, reference)
        if problems:
            self._fail(i, problems)
        return elapsed

    def _fail(self, i: int, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i}: " + "; ".join(problems[:3]))

    def loop(self, seconds: float, ops: list[tuple[float, float]], deadline: float) -> None:
        """Closed loop until the raw op times in `ops` add up to `seconds`,
        or the clock passes `deadline`; appends (raw, adjusted) seconds per op."""
        before = self.timed_probe()
        while sum(raw for raw, _ in ops) < seconds and perf_counter() < deadline:
            raw = self.op(len(ops) + 1)
            after = self.timed_probe()
            ops.append((raw, adjust(raw, before, after)))
            before = after

    def setup(self, cls, seed: int, tag: int) -> float:
        """Adjusted seconds of one fresh set-up."""
        before = self.timed_probe()
        raw = time_setup(cls, seed, tag)
        return adjust(raw, before, self.timed_probe())


def peak_mem_mb(client: Client) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        client.op(0)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def tail(latencies: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value.

    Reported, not bounded: a run holds too few ops for this to be a tail.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return {"samples": n, "beyond": TAIL_BEYOND, "percentile": None, "ms": None}
    return {"samples": n, "beyond": TAIL_BEYOND, "percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "ms": 1e3 * xs[n - TAIL_BEYOND - 1]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.write_references:
        return write_references(workloads, cls)

    wl = cls(args.seed)
    client = Client(wl)
    # Reference pass: the first reference-seed pool entry against the stored
    # references (with seed 0 the timed ops check every entry). It also
    # warms up the allocator and BLAS.
    client.op(0, reference=True)
    mem_mb = peak_mem_mb(client)

    report = {"workload": wl.name, "item": wl.item, "items_per_op": wl.items_per_op,
              "env": environment(args.seed), "rtol": wl.rtol}
    # Ops that fail at once add little op time; stop them well inside the
    # run's time limit.
    deadline = perf_counter() + 3 * args.seconds
    if args.trace:
        half = args.seconds / 2
        plain: list[tuple[float, float]] = []
        client.loop(half, plain, deadline)
        tracer = Tracer()
        tracer.register(wl.rgan_model, wl.denoiser)
        tracer.install()
        traced: list[tuple[float, float]] = []
        try:
            client.loop(half, traced, deadline)
        finally:
            tracer.uninstall()
        items = len(traced) * wl.items_per_op
        metrics = tracer.layer_metrics(items)
        metrics["trace.coverage"] = tracer.total_self_s() / sum(raw for raw, _ in traced)
        metrics["trace.overhead"] = (statistics.median(adj for _, adj in traced)
                                     / statistics.median(adj for _, adj in plain) - 1.0)
        report["per_item_table"] = tracer.table(items)
        report["traced_ops"] = len(traced)
        report["untraced_ops"] = len(plain)
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        # Set-up is timed between ninths of the run, so its median sees
        # several phases of the host's load.
        ops: list[tuple[float, float]] = []
        setups = []
        for part in range(SETUP_REPEATS):
            setups.append(client.setup(cls, args.seed, part))
            client.loop(args.seconds * (part + 1) / SETUP_REPEATS, ops, deadline)
        raw = [r for r, _ in ops]
        adjusted = [a for _, a in ops]
        out = {
            "throughput": {"value": len(ops) * wl.items_per_op / sum(adjusted),
                           "unit": "items/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(adjusted), "unit": "ms"},
            "peak_mem_mb": {"value": mem_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        report["setups_s"] = setups
        report["latency_tail"] = tail(adjusted)
        report["raw"] = {"latency_p50_ms": 1e3 * statistics.median(raw),
                         "throughput": len(ops) * wl.items_per_op / sum(raw),
                         "latencies_ms": [round(1e3 * x, 3) for x in raw]}
    report["probe_s"] = {"median": statistics.median(client.probes), "min": min(client.probes),
                         "max": max(client.probes), "ref": PROBE_REF_S}
    report["error_rate"] = client.failed / client.attempted
    report["problems"] = client.problems
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": out}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("calls") or name == "hsi.patches":
        return "count"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(".gflops_per_s"):
        return "GFLOP/s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


def write_references(workloads, cls) -> int:
    wl = cls(workloads.REFERENCE_SEED)
    refs = json.loads(workloads.REFERENCES.read_text()) if workloads.REFERENCES.exists() else {}
    entries = []
    for k in range(workloads.POOL):
        wl.prepare(k)
        out = wl.run(wl.reference_pool, k)
        problems = wl.invariants(out)
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return 1
        entries.append(wl.fingerprints(out))
    refs[wl.name] = entries
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} references for {wl.name} to {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
