"""Benchmark of the sobolev-adjoint toolkit: one workload per invocation.

    python3 perfbench/run.py --workload recon-desk --seed 1234 --seconds 30 --trace 0

Runs the workload's processes in a closed loop with one client (the next
round starts when the previous one has exited) until ``--seconds`` have
passed, checks every output, and prints a report followed by one JSON line
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A traced invocation runs one traced round, then untraced
rounds; the difference in wall time is the tracing overhead.

End-to-end metrics, each the median over the untraced rounds of a run:
``wall_s`` is the round's process wall times (launch to exit) summed,
``setup_s`` the part of each process before its first solver or backend
call, summed, ``peak_rss_mb`` the largest peak RSS of the round's processes,
and ``rel_error`` the reconstruction's relative H^0.5 error (recon
workloads) or the largest gated relative L2 discrepancy between smoothing
backends (crosscheck).  Workload metadata and metric names come
from ``BENCHMARK.json``.

Everything is written under ``.perfbench_out/`` in the checkout.  The
package is imported from the checkout's ``src/``; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever the program does
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _radon_cfg(**kw) -> str:
    return "experiment=RadonRecon\n" + "".join(f"{k}={v}\n" for k, v in kw.items())


# Each task: (name, kind, config text for cli runs).  The workload seed is
# written into every config.  "moves" maps
# per-layer metrics to the end-to-end metric they should move on the workload.
WORKLOADS = {
    "recon-desk": {
        "moves": {"radon.forward_us/adjoint_us": "wall_s",
                  "multiplier.smooth_us, core.fft_s": "wall_s",
                  "inverse.iterations": "wall_s, rel_error",
                  "radon.build_s": "setup_s (a little)",
                  "cli.import_s, cli.self_s": "setup_s"},
        "tasks": lambda seed: [("recon", "cli", _radon_cfg(
            n=64, n_offsets=100, n_angles=60, phantom="shepp_logan", s=0.5,
            noise_rel=0.10, tau=1.01, backend="multiplier", seed=seed))],
    },
    "recon-full": {
        "moves": {"radon.build_s, radon.nnz": "setup_s, peak_rss_mb",
                  "radon.forward_us/adjoint_us": "wall_s",
                  "inverse.power_iters, inverse.useful_matvec_ratio": "wall_s",
                  "multiplier.*": "no change"},
        "tasks": lambda seed: [("recon", "cli", _radon_cfg(
            n=201, n_offsets=300, n_angles=180, phantom="smooth", s=0, seed=seed))],
    },
    "crosscheck": {
        "moves": {"kernel.lattice_s, kernel.convolve_s": "wall_s",
                  "bvp.solve_s, bvp.check_s": "wall_s",
                  "spectral.svd_s, discrete.*, wavelet.*": "wall_s",
                  "cli.import_s, cli.self_s": "setup_s"},
        "tasks": lambda seed: [
            ("crosscheck1d", "cli",
             f"experiment=CrossCheck1D\nn=1024\ns=0.75\nseed={seed}\n"),
            ("smoothing2d", "cli",
             f"experiment=AdjointSmoothing2D\nn=257\nseed={seed}\n"),
            ("selftest", "selftest", None)],
    },
}

GATED_PAIRS = ("multiplier|kernel", "multiplier|svd", "multiplier|discrete",
               "multiplier|bvp")


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"),
                         ("_share", "1"), ("_ratio", "1"), ("coverage", "1"),
                         ("error", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- processes -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        if not env.get(var, "").isdigit() or int(env[var]) > nproc:
            env[var] = str(nproc)
    return env


def launch(argv, workdir: Path, env, deadline: float) -> dict:
    """Run one child to its end; wall time from launch to exit, peak RSS."""
    workdir.mkdir(parents=True, exist_ok=True)
    probe = workdir / "probe.json"
    with open(workdir / "stdout.txt", "wb") as out, \
            open(workdir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(probe)] + argv,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0),
                                 lambda: proc.send_signal(signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    probe = json.loads(probe.read_text()) if probe.exists() else {}
    first = probe.get("first_compute")
    return {"rc": proc.returncode, "wall": end - start,
            "setup": (first - start) if first is not None else None,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "probe": probe,
            "stdout": (workdir / "stdout.txt").read_text(errors="replace"),
            "stderr": (workdir / "stderr.txt").read_text(errors="replace")}


def check_task(name: str, kind: str, workdir: Path, proc: dict):
    """Returns (attempted, failed, outcome, error value) of one task."""
    if kind == "selftest":
        lines = proc["stdout"].splitlines()
        ok = proc["rc"] == 0 and lines and all(ln.endswith("PASS") for ln in lines)
        return 1, 0 if ok else 1, lines, None
    path = workdir / "out" / "summary.json"
    if proc["rc"] != 0 or not path.exists():
        return 1, 1, None, None
    doc = json.loads(path.read_text())
    res = doc["results"]
    if name == "recon":
        limit = res["tau"] * res["delta"]
        orders = {k: v for k, v in res.items() if isinstance(v, dict)}
        ok = all(v["final_residual"] <= limit for v in orders.values())
        tag = f"s{doc['config']['s']:g}".replace(".", "p")
        return 1, 0 if ok else 1, res, orders[tag]["rel_error_sobolev"]
    if name == "crosscheck1d":
        gated = [v for k, v in res["pairs"].items() if k in GATED_PAIRS]
        return 1, 0 if not res["failures"] else 1, res, max(gated)
    return 1, 0 if res["variational_gap"] < 1e-9 else 1, res, None


def run_round(workload: str, seed: int, index: int, traced: bool, env,
              deadline: float) -> dict:
    base = OUT / "run" / f"round{index}"
    rnd = {"wall": 0.0, "setup": 0.0, "rss_mb": 0.0, "attempted": 0,
           "failed": 0, "outcome": {}, "error": None, "procs": []}
    for name, kind, cfg in WORKLOADS[workload]["tasks"](seed):
        workdir = base / name
        out = workdir / "out"
        if kind == "cli":
            workdir.mkdir(parents=True, exist_ok=True)
            (workdir / "task.cfg").write_text(cfg)
            argv = ["cli", "run", "--config", str(workdir / "task.cfg"),
                    "--out", str(out)]
        else:
            argv = ["cli", "selftest"]
        proc = launch(["1" if traced else "0"] + argv, workdir, env, deadline)
        attempted, failed, outcome, error = check_task(name, kind, workdir, proc)
        if failed:
            sys.stderr.write(f"{workload}: {name} failed (exit {proc['rc']})\n"
                             + proc["stderr"][-2000:])
        if proc["setup"] is None:
            failed = attempted
        rnd["wall"] += proc["wall"]
        rnd["setup"] += proc["setup"] or 0.0
        rnd["rss_mb"] = max(rnd["rss_mb"], proc["rss_mb"])
        rnd["attempted"] += attempted
        rnd["failed"] += failed
        rnd["outcome"][name] = outcome
        if error is not None:
            rnd["error"] = error
        rnd["procs"].append((proc["probe"].get("spans", []), proc["wall"]))
    return rnd


# -- figures -------------------------------------------------------------------

def high_percentile(values):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_repeats(workload, seed, rounds, counts, prov, problems) -> None:
    """Outcomes and counts must repeat exactly for one seed, traced or not.

    The first run of a seed on these sources, benchmark files and thread
    settings records them; later runs compare.  (BLAS thread counts change the last digits.)
    """
    digests = {digest(r["outcome"]) for r in rounds}
    if len(digests) != 1:
        problems.append("outputs differ between rounds of one seed")
    record = {"outcome": digests.pop() if len(digests) == 1 else None}
    if counts is not None:
        record["counts"] = {k: v for k, v in counts.items()
                            if unit_of(k) in ("count", "B")}
        res = rounds[0]["outcome"].get("recon")
        if res is not None:
            stops = {v["stop_index"] for v in res.values() if isinstance(v, dict)}
            if stops != set(counts["stop_indices"]):
                problems.append(f"traced Landweber stops {counts['stop_indices']} "
                                f"disagree with summary.json {sorted(stops)}")
    setting = digest([prov["src_sha256"], prov["bench_sha256"],
                      prov["threads"]])[:16]
    path = OUT / "expect" / f"{workload}-{seed}-{setting}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(path.read_text()) if path.exists() else {}
    for key, value in record.items():
        if key in seen and seen[key] != value:
            problems.append(f"{key} differ from an earlier run of seed {seed}")
        seen.setdefault(key, value)
    path.write_text(json.dumps(seen, sort_keys=True))


# -- provenance ----------------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return h.hexdigest()


def provenance(env, versions) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": git_sha(), "src_sha256": tree_sha256(ROOT / "src"),
            "bench_sha256": tree_sha256(CHILD.parent),
            **versions, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": {var: env[var] for var in THREAD_VARS}}


# -- main ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sobolev_adjoint" / "__init__.py").is_file():
        print(f"no sobolev_adjoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]
    listed = bench["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + HARD_LIMIT_S
    shutil.rmtree(OUT / "run", ignore_errors=True)
    env = child_env()
    # reads the library versions; its import also warms the bytecode cache
    info = launch(["0", "info"], OUT / "run" / "info", env, deadline)
    if info["rc"] != 0:
        print(info["stderr"], file=sys.stderr)
        return 2
    prov = provenance(env, info["probe"]["versions"])

    rounds, traced_round = [], None
    start = time.monotonic()
    index = 0
    while True:
        traced = bool(args.trace) and traced_round is None
        rnd = run_round(args.workload, args.seed, index, traced, env, deadline)
        index += 1
        if traced:
            traced_round = rnd
        else:
            rounds.append(rnd)
        now = time.monotonic()
        if rounds and (now - start >= args.seconds
                       or now + 1.5 * rnd["wall"] >= deadline):
            break

    every = rounds + ([traced_round] if traced_round else [])
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    problems = []
    counts = None
    if traced_round is not None:
        counts, durations = tracing.summarize(traced_round["procs"])
        counts["trace.overhead_s"] = (traced_round["wall"]
                                      - statistics.median(r["wall"] for r in rounds))
    if not failed:
        check_repeats(args.workload, args.seed, every, counts, prov, problems)
    if problems:
        failed += 1
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    samples = {"wall_s": [r["wall"] for r in rounds],
               "setup_s": [r["setup"] for r in rounds],
               "peak_rss_mb": [r["rss_mb"] for r in rounds],
               "rel_error": [r["error"] or 0.0 for r in rounds]}
    print(f"workload {args.workload} seed {args.seed}: {why}")
    print(f"closed loop, 1 client, {len(rounds)} untraced rounds in "
          f"{time.monotonic() - start:.1f} s; {attempted} operations, {failed} failed")
    for name, vals in samples.items():
        high = high_percentile(vals)
        tail = (f"p{high[0]} {high[1]:.6g}" if high
                else "no percentile above p50 has 10 samples beyond it")
        print(f"  {name:<12} median {statistics.median(vals):.6g} "
              f"{unit_of(name)}  ({tail}; n={len(vals)})")
    print(f"  failed_ratio {failed / attempted:.6g}")
    if counts is not None:
        print("per layer (traced round; radon.matvec_bytes is computed from nnz, "
              "not measured):")
        for name in sorted(k for k in counts if k != "stop_indices"):
            print(f"  {name:<30} {counts[name]:.6g} {unit_of(name)}")
        print("per-call latency of traced spans with enough calls for a percentile:")
        for name, vals in sorted(durations.items()):
            high = high_percentile(vals)
            if high:
                print(f"  {name:<30} median {1e6 * statistics.median(vals):.6g} us, "
                      f"p{high[0]} {1e6 * high[1]:.6g} us (n={len(vals)})")
        print("layer -> end-to-end metric it should move on this workload:")
        for layer, target in WORKLOADS[args.workload]["moves"].items():
            print(f"  {layer} -> {target}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    values = counts if args.trace else {k: statistics.median(v)
                                         for k, v in samples.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / "run" / "report.json").write_text(json.dumps(
        {**report, "workload": args.workload, "seed": args.seed,
         "samples": samples, "per_layer": counts, "provenance": prov},
        indent=2, sort_keys=True, default=str))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
