"""The hinge benchmark: seeded known-answer workloads driven like the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload grid-fine --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Operations run one after
another in this process, each the way the `hinge` command runs it: the
problem is loaded from a JSON file (a fresh PrimeField per load) and the
report is written as JSON, here into a buffer.  Every operation is checked
against the answer its input was built with, outside the timed interval; a
wrong or failed operation is counted, never fatal.

Passes over all operations repeat while time remains; a pass is always
finished, so every run holds the same mix of operations.  Each plain
execution sits between two runs of a fixed reference computation, and the
gated op times are in units of it (see reference()).  With --trace 0 the
last line reports the end-to-end metrics; with --trace 1 each operation
runs once plain and once traced (spans around calls into hinge's modules,
see spans.py), and the last line reports the per-layer metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported
os.environ.pop("HINGE_BUDGET", None)

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import spans
import workloads

SETUPS = 9  # set-ups per run; setup_s is their median
REFERENCE_RUNS = 10  # reference() runs on each side of a set-up
REFERENCE_S = 2e-3  # nominal reference() time (about its time on a 2-vCPU x86-64 host)
PROBES = 3  # repetitions of each standalone probe; the median is kept


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.GRID, "ground-truth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_hinge(src: str):
    """Import hinge from the checkout's src/ (never from site-packages).

    Returns its modules by name (the package re-exports a function `lpu`
    that hides the module of that name) and the import time.
    """
    sys.path.insert(0, src)
    t0 = perf_counter()
    importlib.import_module("hinge.cli")
    import_s = perf_counter() - t0
    cli = sys.modules["hinge.cli"]
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"hinge was imported from {cli.__file__}, not {src}")
    names = ("bihinge", "cli", "field", "linalg", "lpu", "serialize")
    return SimpleNamespace(**{m: sys.modules[f"hinge.{m}"] for m in names}), import_s


# --- operations ------------------------------------------------------------

_REFERENCE = np.random.default_rng(0).integers(0, 65521, (32, 32))


def reference() -> float:
    """Seconds taken by a fixed computation of the same kind as hinge's work.

    Small numpy row operations, modular inverses and dict inserts, none of
    it from hinge.  Other tenants of a shared host slow it in step with the
    operations, so an op's time in units of this one cancels the host's load
    while still moving with any change to hinge.
    """
    t0 = perf_counter()
    m, p = _REFERENCE.copy(), 65521
    for c in range(len(m)):
        r = c + int(np.flatnonzero(m[c:, c])[0])
        m[[c, r]] = m[[r, c]]
        m[c] = m[c] * pow(int(m[c, c]), p - 2, p) % p
        m = (m - np.outer(m[:, c] * (np.arange(len(m)) != c), m[c])) % p
    table = {}
    for i in range(4000):
        table[i * 7919 % 10007] = (i, [i])
    return perf_counter() - t0


def set_up(src: str) -> float:
    """A fresh interpreter's `import hinge.cli`, what a user pays before the
    first operation, in seconds at the host speed where reference() takes
    REFERENCE_S.

    The wall time is divided by the mean of REFERENCE_RUNS reference() runs
    on either side of it, so the host's load cancels as in the op times.
    No timeout: with one, the wait polls the child at up to 50 ms steps,
    which the measured time would round up to.
    """
    env = dict(os.environ, PYTHONPATH=src)
    before = sum(reference() for _ in range(REFERENCE_RUNS))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import hinge.cli"], env=env, check=True)
    elapsed = perf_counter() - t0
    after = sum(reference() for _ in range(REFERENCE_RUNS))
    return elapsed / ((before + after) / (2 * REFERENCE_RUNS)) * REFERENCE_S


def normalize_command(hinge, path: str) -> int:
    """`normalize` the way the CLI would run it: load, compute, print JSON."""
    problem = hinge.serialize.load_problem(path)
    h = hinge.bihinge.chi(problem.matrix, problem.alpha, problem.beta)
    gs, hs, d = hinge.bihinge.normalize(h)
    print(hinge.serialize.dumps_json({
        "modulus": problem.field.p,
        "alpha": list(problem.alpha.parts),
        "beta": list(problem.beta.parts),
        "dimension_matrix": d.to_rows(),
        "gs": [g.to_rows() for g in gs],
        "hs": [x.to_rows() for x in hs],
    }))
    return 0


def argv_of(op) -> list:
    kind = op["kind"]
    if kind == "count":
        return ["count", "--alpha", ",".join(map(str, op["alpha"])), "--beta",
                ",".join(map(str, op["beta"])), "-q", str(op["q"]), "--brute", "--format", "json"]
    if kind == "selfcheck":
        return ["selfcheck", *op["args"]]
    return [kind, *op["files"], "--format", "json"]


def execute(hinge, op):
    """Run one operation; return (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    code, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if op["kind"] == "normalize":
                code = normalize_command(hinge, op["files"][0])
            else:
                code = hinge.cli.main(argv_of(op))
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue(), error


def is_permutation_with(rows, table, alpha, beta) -> bool:
    m = np.array(rows, dtype=np.int64)
    n = sum(alpha)
    return (
        m.shape == (n, n)
        and bool(np.isin(m, (0, 1)).all())
        and bool((m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all())
        and workloads.block_counts(m, alpha, beta) == table
    )


def check(hinge, op, code, stdout) -> str | None:
    """None when the output is the known answer, else what is wrong."""
    kind = op["kind"]
    want = 0 if kind != "equivalent" or op["expect"] else 1
    if code != want:
        return f"exit code {code}, expected {want}"
    if kind == "selfcheck":
        lines = stdout.strip().splitlines()
        if lines[-1:] != ["all checks passed"] or not all(x.startswith("PASS ") for x in lines[:-1]):
            return "selfcheck reported a failure"
        missing = [want for want in op["lines"] if not any(want in x for x in lines)]
        return f"selfcheck did not report {missing}" if missing else None
    report = json.loads(stdout)
    if kind == "count":
        want = {"predicted": op["expect"], "brute": op["expect"], "match": True}
        return None if report == want else f"{report} != {want}"
    if kind == "equivalent":
        return None if report == {"equivalent": op["expect"]} else f"verdict {report}"
    table, alpha, beta = op["table"], op["alpha"], op["beta"]
    if kind == "canonical":
        ok = is_permutation_with(report["matrix"], table, alpha, beta)
        return None if ok else "canonical is not the permutation with the known block counts"
    if report["dimension_matrix"] != table:
        return "dimension matrix differs from the known table"
    if kind == "invariants":
        if len(report["cells"]) != len(alpha) * len(beta):
            return f"{len(report['cells'])} cells"
        ok = is_permutation_with(report["canonical"], table, alpha, beta)
        return None if ok else "canonical is not the permutation with the known block counts"
    # normalize: the witnesses carry the grid onto the standard grid of the table
    field = hinge.field.PrimeField(op["modulus"])
    h = op.get("grid")  # the input's grid, computed at its first check
    if h is None:
        a = hinge.serialize.load_problem(op["files"][0])
        h = op["grid"] = hinge.bihinge.chi(a.matrix, alpha, beta)
    gs = [hinge.linalg.Matrix(field, g) for g in report["gs"]]
    hs = [hinge.linalg.Matrix(field, x) for x in report["hs"]]
    d = hinge.bihinge.DimensionMatrix(table, alpha, beta)
    if hinge.bihinge.hinge_act(gs, hs, h) != hinge.bihinge.standard_bihinge(d, field):
        return "hinge_act(gs, hs, h) != standard_bihinge(d)"
    return None


def observe(hinge, op, stdout) -> dict:
    """Counts read off a traced operation's output, plus standalone probes."""
    obs = {"obs.stdout_bytes": len(stdout.encode())}
    if op["kind"] == "count":
        obs["obs.classes"] = json.loads(stdout)["brute"]
    if op["kind"] == "invariants":
        obs["obs.basis_rows"] = sum(len(c["basis"]) for c in json.loads(stdout)["cells"])
        a = hinge.serialize.load_problem(op["files"][0]).matrix
        a.field.inv_table()  # probes time elimination alone
        for name, fn in (("probe.rref", a.rref), ("probe.rank", a.rank),
                         ("probe.rank_profile", lambda: hinge.lpu.rank_profile_permutation(a))):
            times = []
            for _ in range(PROBES):
                t0 = perf_counter()
                fn()
                times.append(perf_counter() - t0)
            obs[name] = statistics.median(times)
    return obs


# --- metrics ---------------------------------------------------------------


def tail(values: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; with ten or fewer samples, the maximum."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _self(name):
    return lambda r: r.get(name, (0.0, 0.0))[0]


def _incl(name):
    return lambda r: r.get(name, (0.0, 0.0))[1]


def _n(name):
    return lambda r: r.get(name, 0)


def _selfcheck_other(r):
    return _incl("selfcheck.run")(r) - _incl("selfcheck.completeness")(r) - _incl("selfcheck.stabilizers")(r)


# metric, unit, scale, op kind it is read from, value per traced op.
# Layer times are self times (child spans excluded), except the selfcheck
# suites, which include their children.  The value reported is the median
# over the traced ops of that kind, or 0 when the workload has none.
LAYERS = (
    ("field.inv_table_ms", "ms", 1e3, "invariants", _self("field.inv_table")),
    ("linalg.rref_ms", "ms", 1e3, "invariants", _n("probe.rref")),
    ("linalg.rank_ms", "ms", 1e3, "invariants", _n("probe.rank")),
    ("bihinge.chi_ms", "ms", 1e3, "invariants", _self("bihinge.chi")),
    ("bihinge.chi_per_rref", "x", 1, "invariants", lambda r: _self("bihinge.chi")(r) / r["probe.rref"]),
    ("bihinge.cells", "count", 1, "invariants", _n("bihinge.cells")),
    ("bihinge.check_axioms_ms", "ms", 1e3, "invariants", _self("bihinge.check_axioms")),
    ("bihinge.dimension_matrix_ms", "ms", 1e3, "invariants", _self("bihinge.dimension_matrix")),
    ("bihinge.normalize_ms", "ms", 1e3, "normalize", _self("bihinge.normalize")),
    ("relations.derived_ms", "ms", 1e3, "invariants", _self("relations.derived")),
    ("relations.theta_ms", "ms", 1e3, "invariants", _self("relations.theta")),
    ("relations.basis_rows", "count", 1, "invariants", _n("obs.basis_rows")),
    ("lpu.lpu_ms", "ms", 1e3, "invariants", _self("lpu.lpu")),
    ("lpu.rank_profile_ms", "ms", 1e3, "invariants", _n("probe.rank_profile")),
    ("lpu.canonical_01_ms", "ms", 1e3, "invariants", _self("lpu.canonical_01")),
    ("serialize.load_problem_ms", "ms", 1e3, "invariants", _self("serialize.load_problem")),
    ("serialize.cell_records_ms", "ms", 1e3, "invariants", _self("serialize.cell_records")),
    ("serialize.dumps_json_ms", "ms", 1e3, "invariants", _self("serialize.dumps_json")),
    ("serialize.report_bytes", "bytes", 1, "invariants", _n("obs.stdout_bytes")),
    ("enumeration.enum_gl_s", "s", 1, "count", _self("enumeration.enum_gl")),
    ("enumeration.gl_elements", "count", 1, "count", _n("enumeration.gl_elements")),
    ("enumeration.closure_s", "s", 1, "count", _self("enumeration.closure")),
    ("enumeration.classes", "count", 1, "count", _n("obs.classes")),
    ("enumeration.predicted_count_ms", "ms", 1e3, "count", _self("enumeration.predicted_count")),
    ("selfcheck.completeness_s", "s", 1, "selfcheck", _incl("selfcheck.completeness")),
    ("selfcheck.completeness.cell_intern_s", "s", 1, "selfcheck", _incl("selfcheck.completeness.cell_intern")),
    ("selfcheck.completeness.closure_s", "s", 1, "selfcheck", _incl("selfcheck.completeness.closure")),
    ("selfcheck.completeness.chi_cell_calls", "count", 1, "selfcheck", _n("selfcheck.completeness.chi_cell_calls")),
    ("selfcheck.completeness.cell_ids", "count", 1, "selfcheck", _n("selfcheck.completeness.cell_ids")),
    ("selfcheck.stabilizers_s", "s", 1, "selfcheck", _incl("selfcheck.stabilizers")),
    ("selfcheck.other_s", "s", 1, "selfcheck", _selfcheck_other),
)
KINDS = (("invariants", "ms"), ("equivalent", "ms"), ("canonical", "ms"), ("normalize", "ms"),
         ("count", "s"), ("selfcheck", "s"))
KIND_METRIC = {"count": "count_brute_p50_s", "selfcheck": "selfcheck_s"}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list, setups: list) -> dict:
    """The metrics in BENCHMARK.json: set-up, memory and the geometric mean
    of the op times in units of reference(), which stays steady while a
    shared host's load comes and goes.

    An op's time in reference units is the sum of its passes over the sum of
    the reference runs around them.
    """
    rel = [sum(t for t, _ in xs) / sum(r for _, r in xs) for xs in samples]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_geomean_ref": metric(statistics.geometric_mean(rel), "x"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_lines(kinds: list, samples: list, setups: list, failed: int, attempts: list) -> list:
    """Every end-to-end metric by name and unit, n/a where it does not apply.

    Wall-clock times follow the gated metrics; an op's time is the median
    of its passes, and ops_per_s counts every execution.
    """
    times = [statistics.median(t for t, _ in xs) for xs in samples]
    value, pct, beyond = tail(times)
    lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in end_to_end(samples, setups).items()]
    lines.append(f"ops_per_s {len(attempts) / sum(attempts):.6g} 1/s")
    lines.append(f"op_p50_ms {1e3 * statistics.median(times):.6g} ms")
    lines.append(f"op_tail_ms {1e3 * value:.6g} ms (p{pct:.1f} of {len(times)} ops, {beyond} beyond)")
    for kind, unit in KINDS:
        name = KIND_METRIC.get(kind, f"{kind}_p50_ms")
        xs = [t for k, t in zip(kinds, times) if k == kind]
        scale = 1e3 if unit == "ms" else 1
        lines.append(f"{name} {scale * statistics.median(xs):.6g} {unit} (n={len(xs)})" if xs else f"{name} n/a")
    lines.append(f"failed_frac {failed / len(attempts):.6g} ({failed}/{len(attempts)})")
    return lines


def per_layer(records: list, pairs: list, import_s: float) -> dict:
    out = {}
    for name, unit, scale, kind, fn in LAYERS:
        xs = [fn(r) for k, r in records if k == kind]
        out[name] = metric(scale * statistics.median(xs) if xs else 0, unit)
    out["cli.import_ms"] = metric(1e3 * import_s, "ms")
    out["trace.overhead_pct"] = metric(100 * (sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1), "%")
    inv = [r["op.traced_s"] for k, r in records if k == "invariants"]
    out["trace.invariants_ms"] = metric(1e3 * statistics.median(inv) if inv else 0, "ms")
    return out


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((x.split(":", 1)[1].strip() for x in fh if x.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# --- main loop ---------------------------------------------------------------


def run(args, hinge, import_s: float, ops: list, setups: list):
    attempts, failures = [], []
    tracer = spans.Tracer()
    records, pairs = [], []  # traced: (kind, op id, observations), (plain s, traced s)

    def attempt(op, traced=False):
        gc.collect()
        restore = spans.install(tracer) if traced else None
        try:
            elapsed, code, stdout, error = execute(hinge, op)
        finally:
            if restore:
                restore()
        attempts.append(elapsed)
        try:
            problem = error or check(hinge, op, code, stdout)
        except Exception as exc:  # an unreadable output is a wrong answer
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op['kind']} {op.get('files', op.get('alpha'))}: {problem}")
        return elapsed, stdout, problem

    # Passes over every op repeat while the next one is expected to end
    # within --seconds.  Each plain execution sits between two runs of
    # reference(), whose mean is the host's speed at that moment.
    samples = [[] for _ in ops]  # per op: (op seconds, reference seconds)
    start = perf_counter()
    passes = 0
    while passes == 0 or (perf_counter() - start) * (passes + 1) / passes <= args.seconds:
        for i, op in enumerate(ops):
            before = reference()
            plain, _, _ = attempt(op)
            samples[i].append((plain, (before + reference()) / 2))
            if args.trace:
                tracer.current_op = len(pairs)
                traced, stdout, problem = attempt(op, traced=True)
                if not problem:
                    obs = observe(hinge, op, stdout)
                    records.append((op["kind"], len(pairs), {**obs, "op.traced_s": traced}))
                pairs.append((plain, traced))
        passes += 1

    for line in failures[:20]:
        print("FAILED", line)
    print(f"passes {passes}, ops {len(ops)}, attempts {len(attempts)}")
    for line in report_lines([op["kind"] for op in ops], samples, setups, len(failures), attempts):
        print(line)
    if not args.trace:
        metrics = end_to_end(samples, setups)
    else:
        by_op = tracer.per_op()
        metrics = per_layer([(k, {**by_op.get(i, {}), **obs}) for k, i, obs in records], pairs, import_s)
        inv = metrics["trace.invariants_ms"]["value"]
        if inv:
            grid = sum(metrics[m]["value"] for m in ("bihinge.chi_ms", "relations.derived_ms", "relations.theta_ms"))
            lpu = sum(metrics[m]["value"] for m in ("lpu.lpu_ms", "lpu.canonical_01_ms", "field.inv_table_ms"))
            print(f"share of the traced invariants op ({inv:.6g} ms): chi + relations {100 * grid / inv:.1f}%, "
                  f"lpu + inv_table {100 * lpu / inv:.1f}%")
        print(f"trace spans {len(tracer.name)}")
    return {"correct": not failures, "attempted": len(attempts), "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hinge", "cli.py")):
        print(f"error: no hinge sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    hinge, import_s = import_hinge(src)
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir)
        setups = [set_up(src) for _ in range(SETUPS)]
        print("hinge benchmark", json.dumps(environment(args), sort_keys=True))
        result = run(args, hinge, import_s, ops, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
