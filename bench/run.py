"""The l0prune benchmark: one transformer block pruned layer by layer.

    python3 bench/run.py --workload block-0.7 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else. Load is one process, closed loop: one
layer operation at a time, each starting when the previous one returned.
BLAS threads are capped at the number of usable CPUs, in this process and
in every child it starts.

Workloads (see bench/README.md for why each exists):
  block-0.7   library admm_solve on the 7 layers of a 384/1024 block,
              unstructured 0.7 sparsity
  block-nm24  the same layers and Grams under a 2:4 budget
  cli-block   `python3 -m l0prune prune` per layer of a 256/1024 block
              stored as files, once with alps and once with wanda

A run sets up three times (instance generation in a fresh process, plus a
fresh `import l0prune`), then repeats passes over the layers until
--seconds have elapsed. Every operation's output is checked. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs each
operation untraced and then traced, and reports per-module stage times
and counts.
The last line of stdout is the JSON result; the lines before it are a
readable copy and the run's environment.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402  (after the thread cap, which it reads once)

from instances import read_amtx  # noqa: E402
from tracer import Tracer, merge, summarize  # noqa: E402

WORKLOADS = ("block-0.7", "block-nm24", "cli-block")
SETUP_REPEATS = 3
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def relative_error(h, w_hat, w) -> float:
    """tr(D^T H D) / tr(W_hat^T H W_hat), D = W_hat - W, computed here."""
    delta = w_hat - w
    return float(np.vdot(delta, h @ delta)) / float(np.vdot(w_hat, h @ w_hat))


class Layer:
    def __init__(self, name, h, w, budget_kind, gram_name):
        self.name, self.h, self.w, self.gram_name = name, h, w, gram_name
        self.budget_kind = budget_kind  # "topk" or "nm24"

    def check(self, w) -> float:
        """Shape, finiteness and budget of pruned weights; returns rel_error."""
        if w.shape != self.w.shape:
            raise CheckFailed(f"{self.name}: shape {w.shape}, expected {self.w.shape}")
        if not np.all(np.isfinite(w)):
            raise CheckFailed(f"{self.name}: non-finite weights")
        n_in, n_out = w.shape
        if self.budget_kind == "topk":
            k = math.floor(n_in * n_out * 0.3 + 1e-9)
            if np.count_nonzero(w) > k:
                raise CheckFailed(f"{self.name}: {np.count_nonzero(w)} nonzeros > k={k}")
        else:
            groups = np.count_nonzero(w.reshape(n_in // 4, 4, n_out), axis=1)
            if groups.max() > 2:
                raise CheckFailed(f"{self.name}: a group of 4 keeps {groups.max()}")
        return relative_error(self.h, self.w, w)


def same(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# Set-up


def timed_run(cmd) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def set_up(workload: str, seed: int, work: Path):
    """Generate the instance SETUP_REPEATS times; time each with an import."""
    gen = [sys.executable, str(HERE / "instances.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)]
    rounds, imports = [], []
    for _ in range(SETUP_REPEATS):
        t_gen = timed_run(gen)
        imports.append(timed_run([sys.executable, "-c", "import l0prune"]))
        rounds.append(t_gen + imports[-1])
    return statistics.median(rounds), statistics.median(imports)


def load_layers(workload: str, work: Path) -> list[Layer]:
    manifest = json.loads((work / "manifest.json").read_text())
    kind = "nm24" if workload == "block-nm24" else "topk"
    grams = {}
    layers = []
    for spec in manifest["layers"]:
        g = spec["gram"]
        if g not in grams:
            grams[g] = np.load(work / f"h_{g}.npy")
        w = np.load(work / f"w_{spec['name']}.npy")
        layers.append(Layer(spec["name"], grams[g], w, kind, g))
    return layers


# --------------------------------------------------------------------------
# Operations. Each returns a record: name, method, seconds, and on success
# rel (recomputed here), plus solver facts; on failure an "error" string.


def budget_for(lp, workload, layer):
    if workload == "block-nm24":
        return lp.NM(2, 4)
    return lp.budget_from_sparsity(0.7, *layer.w.shape)


def library_ops(lp, layers, workload):
    budgets = {layer.name: budget_for(lp, workload, layer) for layer in layers}

    def run(layer):
        start = time.perf_counter()
        sol = lp.admm_solve(layer.h, layer.w, budgets[layer.name])
        seconds = time.perf_counter() - start
        rel = layer.check(sol.w)
        if not same(rel, sol.rel_error):
            raise CheckFailed(f"{layer.name}: rel_error {sol.rel_error!r} vs {rel!r}")
        return {"seconds": seconds, "rel": rel, "iterations": sol.iterations,
                "stabilized": sol.stabilized, "pcg_iters": sol.pcg_iters_used,
                "w": sol.w}

    return [(layer, "alps", run) for layer in layers]


def cli_ops(layers, work: Path, traced_dir: Path | None):
    def make(layer, method):
        def run(layer):
            out = work / f"out_{layer.name}_{method}.mat"
            report_path = work / f"report_{layer.name}_{method}.json"
            for stale in (out, report_path):
                stale.unlink(missing_ok=True)
            args = ["prune", "--weights", str(work / f"w_{layer.name}.mat"),
                    "--activations", str(work / f"x_{layer.gram_name}.mat"),
                    "--sparsity", "0.7", "--out", str(out), "--report", str(report_path)]
            if method == "wanda":
                args += ["--method", "wanda"]
            if traced_dir is None:
                cmd = [sys.executable, "-m", "l0prune", *args]
            else:
                spans = traced_dir / f"{layer.name}_{method}.json"
                cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans), *args]
            with open(work / "stderr.txt", "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                                        stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                tail = (work / "stderr.txt").read_text(errors="replace")[-300:]
                raise CheckFailed(f"{layer.name}/{method}: exit {proc.returncode}: {tail}")
            try:
                w = read_amtx(out).astype("float64")
                report = json.loads(report_path.read_text())
            except (OSError, ValueError) as exc:
                raise CheckFailed(f"{layer.name}/{method}: unreadable output: {exc}")
            rel = layer.check(w)
            if report.get("support_size") != int(np.count_nonzero(w)):
                raise CheckFailed(f"{layer.name}/{method}: support_size "
                                  f"{report.get('support_size')} vs file")
            if not isinstance(report.get("rel_error"), float) or not same(
                rel, report["rel_error"]
            ):
                raise CheckFailed(f"{layer.name}/{method}: rel_error "
                                  f"{report.get('rel_error')!r} vs {rel!r}")
            return {"seconds": seconds, "rel": rel, "iterations": report.get("iterations"),
                    "stabilized": report.get("stabilized"),
                    "pcg_iters": report.get("pcg_iters_used"),
                    "rss_mb": usage.ru_maxrss * 1024 / 1e6, "w": w}

        return run

    return [(layer, method, make(layer, method)) for layer in layers
            for method in ("alps", "wanda")]


def run_op(layer, method, run, tracer=None) -> dict:
    record = {"name": layer.name, "method": method}
    try:
        if tracer is None:
            record.update(run(layer))
        else:
            with tracer.installed():
                record.update(run(layer))
    except CheckFailed as exc:
        record["error"] = str(exc)
    except Exception as exc:  # a raising solve is a failed operation
        record["error"] = f"{layer.name}/{method}: {type(exc).__name__}: {exc}"
    return record


# --------------------------------------------------------------------------
# Measurement loop


def measure(workload, lp, layers, work, seconds, trace):
    """Passes for about `seconds`, as (plain, traced) lists of (records, summary).

    Untraced runs repeat plain passes. Traced runs repeat paired passes:
    each operation runs untraced and then traced, back to back, so the
    tracing overhead is measured under the same machine conditions.
    """
    if workload == "cli-block":
        plain = cli_ops(layers, work, None)
    else:
        plain = library_ops(lp, layers, workload)

    plain_passes, traced_passes = [], []
    min_passes = 1 if trace else 3
    deadline = time.perf_counter() + seconds
    durations = []
    # Start another pass only if a typical one still ends by the deadline.
    while len(durations) < min_passes or (
        time.perf_counter() + statistics.median(durations) <= deadline
    ):
        start = time.perf_counter()
        if not trace:
            plain_passes.append(([run_op(*op) for op in plain], None))
        elif workload == "cli-block":
            span_dir = work / f"spans{len(durations)}"
            span_dir.mkdir()
            traced = cli_ops(layers, work, span_dir)
            pairs = [(run_op(*u), run_op(*t)) for u, t in zip(plain, traced)]
            summary = merge([summarize(json.loads(p.read_text()))
                             for p in sorted(span_dir.glob("*.json"))])
            plain_passes.append(([u for u, _ in pairs], None))
            traced_passes.append(([t for _, t in pairs], summary))
        else:
            tracer = Tracer()
            pairs = [(run_op(*op), run_op(*op, tracer)) for op in plain]
            plain_passes.append(([u for u, _ in pairs], None))
            traced_passes.append(([t for _, t in pairs], summarize(tracer.spans)))
        durations.append(time.perf_counter() - start)
    return plain_passes, traced_passes


def check_determinism(passes) -> None:
    """Solves are deterministic: every pass must repeat the first's errors."""
    first = {(r["name"], r["method"]): r.get("rel") for r in passes[0][0]}
    for records, _ in passes[1:]:
        for r in records:
            ref = first.get((r["name"], r["method"]))
            if "error" not in r and ref is not None and r["rel"] != ref:
                r["error"] = f"{r['name']}/{r['method']}: rel_error changed between passes"


def pass_seconds(passes) -> float:
    """Sum over operations of each operation's median time across passes."""
    times: dict = {}
    for records, _ in passes:
        for r in records:
            if "error" not in r:
                times.setdefault((r["name"], r["method"]), []).append(r["seconds"])
    return sum(statistics.median(v) for v in times.values())


def alps_mean(records, field="rel"):
    values = [r[field] for r in records if r["method"] == "alps" and "error" not in r]
    return statistics.fmean(values) if values else math.nan


# --------------------------------------------------------------------------
# Traced-run extras: reference solves and a BLAS peak, outside any pass


def reference_extras(workload, lp, layers, records):
    """backsolve_exact on alps's final supports; wanda on the same layers."""
    by_name = {layer.name: layer for layer in layers}
    alps = [r for r in records if r["method"] == "alps" and "error" not in r]
    gaps, wanda = [], [r["rel"] for r in records if r["method"] == "wanda" and "error" not in r]
    tracer = Tracer()
    with tracer.installed():
        for r in alps:
            layer = by_name[r["name"]]
            exact = lp.backsolve_exact(layer.h, layer.w, lp.support_of(r["w"]))
            rel_exact = relative_error(layer.h, layer.w, exact)
            gaps.append((r["rel"] - rel_exact) / rel_exact)
            if workload != "cli-block":
                sol = lp.activation_weighted_prune(layer.w, layer.h,
                                                   budget_for(lp, workload, layer))
                wanda.append(relative_error(layer.h, layer.w, sol.w))
    summary = summarize(tracer.spans)
    quality = alps_mean(records) / statistics.fmean(wanda) if wanda else math.nan
    return summary, statistics.fmean(gaps) if gaps else math.nan, quality


def dgemm_peak_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Best observed rate of an n x n by n x n float64 product."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    c = np.empty((n, n))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        np.dot(a, b, out=c)
        best = min(best, time.perf_counter() - start)
    return 2 * n**3 / best / 1e9


def per_layer_metrics(plain, traced, extras, import_s) -> dict:
    extra_summary, gap, quality = extras

    def field(summary, key, name):
        return summary.get(key, {}).get(name, 0)

    def from_summary(summary, records):
        f = lambda key, name="s": field(summary, key, name)  # noqa: E731
        alps = [r for r in records if r["method"] == "alps" and "error" not in r]
        ridge_s = f("linalg.ridge_solve")
        return {
            "admm.admm_solve.s": f("admm.admm_solve"),
            "admm.self.s": f("admm.admm_solve", "self_s"),
            "admm.preprocess.s": f("admm.preprocess"),
            "admm.iterations": sum(r["iterations"] for r in alps),
            "admm.stabilized_frac": (sum(bool(r["stabilized"]) for r in alps) / len(alps)
                                     if alps else 0.0),
            "linalg.ridge_solve.s": ridge_s,
            "linalg.ridge_solve.calls": f("linalg.ridge_solve", "calls"),
            "linalg.ridge_solve.gflops": (f("linalg.ridge_solve", "flop") / ridge_s / 1e9
                                          if ridge_s else 0.0),
            "linalg.eigendecompose.s": f("linalg.eigendecompose"),
            "linalg.validate_gram.s": f("linalg.validate_gram"),
            "linalg.validate_gram.calls": f("linalg.validate_gram", "calls"),
            "linalg.as_matrix.calls": f("linalg.as_matrix", "calls"),
            "linalg.gram_from_activations.s": f("linalg.gram_from_activations"),
            "linalg.relative_error.s": f("linalg.relative_error"),
            "projections.project.s": f("projections.project"),
            "projections.project.calls": f("projections.project", "calls"),
            "projections.support.s": f("projections.support_of") + f("projections.support_change"),
            "pcg.pcg_refine.s": f("pcg.pcg_refine"),
            "pcg.iterations": sum(r["pcg_iters"] for r in alps),
            "baselines.activation_weighted_prune.s":
                f("baselines.activation_weighted_prune")
                + field(extra_summary, "baselines.activation_weighted_prune", "s"),
            "baselines.backsolve_exact.s": f("baselines.backsolve_exact")
                + field(extra_summary, "baselines.backsolve_exact", "s"),
            "matrixio.read_matrix.s": f("matrixio.read_matrix"),
            "matrixio.read_matrix.mb": f("matrixio.read_matrix", "bytes") / 1e6,
            "matrixio.write_matrix.s": f("matrixio.write_matrix"),
            "diagnostics.checks.s": f("diagnostics.check_lemma1") + f("diagnostics.check_lemma2")
                + f("diagnostics.theorem1_residual_bound"),
            "cli.cmd_prune.self.s": f("cli.cmd_prune", "self_s"),
        }

    per_pass = [from_summary(summary, records) for records, summary in traced]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update({
        "pcg.gap_to_exact": gap,
        "quality.alps_over_wanda": quality,
        "cli.import.s": import_s,
        "trace.overhead_s": pass_seconds(traced) - pass_seconds(plain),
        "blas.dgemm_peak.gflops": dgemm_peak_gflops(),
    })
    return metrics


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# --------------------------------------------------------------------------
# Environment


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "workload": workload,
        "seed": seed,
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    return env


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, or None when it is not its own git repository."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """Identifies the program version when there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "l0prune").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------


def import_program():
    """Import l0prune from this checkout's src/, refusing any other copy."""
    if not (SRC / "l0prune" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'l0prune'}")
    sys.path.insert(0, str(SRC))
    import l0prune

    if Path(l0prune.__file__).resolve().parent != SRC / "l0prune":
        raise SystemExit(f"error: imported l0prune from {l0prune.__file__}")
    return l0prune


def main() -> int:
    parser = argparse.ArgumentParser(description="l0prune benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    lp = import_program()
    import_s = time.perf_counter() - T_START
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        gen_s, cli_import_s = set_up(args.workload, args.seed, work)
        start = time.perf_counter()
        layers = load_layers(args.workload, work)
        lp.admm_solve(layers[0].h[:32, :32], layers[0].w[:32, :16], lp.Unstructured(100))
        setup_s = import_s + gen_s + (time.perf_counter() - start)

        plain, traced = measure(args.workload, lp, layers, work, args.seconds, args.trace)
        passes = plain + traced
        check_determinism(passes)
        records = [r for recs, _ in passes for r in recs]
        failed = [r for r in records if "error" in r]
        env = environment(args.workload, args.seed)
        if args.trace:
            extras = reference_extras(args.workload, lp, layers, plain[-1][0])
            metrics = per_layer_metrics(plain, traced, extras, cli_import_s)
        else:
            if args.workload == "cli-block":
                peak = statistics.median(
                    max((r["rss_mb"] for r in recs if "error" not in r), default=0.0)
                    for recs, _ in passes
                )
            else:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metrics = {
                "pass_s": pass_seconds(passes),
                "rel_error": alps_mean(passes[0][0]),
                "ok_frac": 1.0 - len(failed) / len(records),
                "setup_s": setup_s,
                "peak_rss_mb": peak,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} "
                         "are measured or declared but not both")
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(
            {"env": env, "metrics": metrics, "summary": traced[0][1]}, indent=1))

    print("env " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes, {len(records)} operations, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(records):.4g})")
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            times = " ".join(f"{sum(r.get('seconds', 0) for r in recs):.3f}" for recs, _ in group)
            print(f"  {label} pass times (s): {times}")
    for r in failed:
        print(f"  FAILED {r['error']}")
    for name, value in metrics.items():
        note = "  (computed: 4 n^2 m flop per call)" if name == "linalg.ridge_solve.gflops" else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
