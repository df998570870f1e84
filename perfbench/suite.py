"""Run every workload over several seeds, or compare two recorded suites.

    python3 perfbench/suite.py record --out FILE [--seeds 0 ... 9] [--workloads ...]
    python3 perfbench/suite.py compare BASE.json NEW.json

``record`` runs ``run.py`` once untraced and once traced per workload and
seed, each in a fresh process, prints every metric by name with its unit
(median and quartiles over the seeds), and writes the runs and the machine
they ran on to FILE.  ``compare`` prints one row per workload: each
end-to-end metric's median and quartiles on both sides, then per-layer
median ratios NEW/BASE with the BASE value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    sha = next(line.split()[1] for line in lines if line.startswith("model_sha256 "))
    return {"seed": seed, "trace": trace, "model_sha256": sha, **result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_table(runs: list[dict]) -> dict[str, dict]:
    """name -> unit and (q1, median, q3) over the runs."""
    names = runs[0]["metrics"]
    return {name: {"unit": names[name]["unit"],
                   "q": quartiles([r["metrics"][name]["value"] for r in runs])}
            for name in names}


def summarize(workload: str, runs: list[dict], bounds: dict) -> None:
    plain = [r for r in runs if r["trace"] == 0]
    traced = [r for r in runs if r["trace"] == 1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\n== {workload}: {len(plain)} untraced + {len(traced)} traced runs, "
          f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    table = metric_table(plain)
    for name, row in table.items():
        q1, med, q3 = row["q"]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  spread {spread:.3f}" + (f" (bound {bound})" if bound is not None else "")
        print(f"  {name:38s} {med:14.6g} {row['unit']:10s} [{q1:.6g}, {q3:.6g}]{note}")
    if traced:
        for name, row in metric_table(traced).items():
            q1, med, q3 = row["q"]
            print(f"  {name:38s} {med:14.6g} {row['unit']:10s} [{q1:.6g}, {q3:.6g}]")
        untraced = table["train_s"]["q"][1]
        traced_train = statistics.median(r["metrics"]["trace.train_s"]["value"] for r in traced)
        print(f"  tracing overhead on train_s: {traced_train - untraced:.4g} s "
              f"({traced_train:.4g} traced vs {untraced:.4g} untraced)")
    by_seed: dict[int, set] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(r["model_sha256"])
    for seed, shas in sorted(by_seed.items()):
        print(f"  seed {seed}: trial-0 model sha256 {' / '.join(sorted(shas))}")
        if len(shas) > 1:
            print("  WARNING: traced and untraced runs wrote different trial-0 models")


def cmd_record(args) -> int:
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    out = {"label": args.label, "machine": machine_info(), "run_seconds": seconds,
           "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            for trace in (0, 1) if args.traced else (0,):
                runs.append(run_once(workload, seed, seconds, trace))
                print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr, flush=True)
        out["workloads"][workload] = {"runs": runs}
        summarize(workload, runs, bounds)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_compare(args) -> int:
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"base {args.base} ({base.get('label')}), new {args.new} ({new.get('label')})")
    for workload, b in base["workloads"].items():
        if workload not in new["workloads"]:
            print(f"\n== {workload}: missing from {args.new}")
            continue
        n = new["workloads"][workload]
        print(f"\n== {workload}")
        for trace, what in ((0, "end-to-end: median [q1, q3] base -> new, new/base"),
                            (1, "per-layer: median ratio new/base (base value)")):
            b_runs = [r for r in b["runs"] if r["trace"] == trace]
            n_runs = [r for r in n["runs"] if r["trace"] == trace]
            if not b_runs or not n_runs:
                continue
            print(f"  {what}")
            bt, nt = metric_table(b_runs), metric_table(n_runs)
            for name, row in bt.items():
                if name not in nt:
                    continue
                bq, nq = row["q"], nt[name]["q"]
                # a per-layer count may be 0 (no stalled trials); it has no ratio
                ratio = f"x{nq[1] / bq[1]:.3f}" if bq[1] else f"new {nq[1]:.6g}"
                if trace == 0:
                    print(f"    {name:38s} {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] -> "
                          f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {row['unit']}, {ratio}")
                else:
                    print(f"    {name:38s} {ratio} (base {bq[1]:.6g} {row['unit']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the workloads and write a result file")
    rec.add_argument("--out", required=True)
    rec.add_argument("--label", default="")
    rec.add_argument("--seeds", type=int, nargs="+", default=list(range(10)),
                     help="default: 0 to 9, the seeds of results/baseline.json")
    rec.add_argument("--workloads", nargs="+", default=None)
    rec.add_argument("--no-trace", dest="traced", action="store_false",
                     help="skip the traced runs")
    rec.set_defaults(func=cmd_record)
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
