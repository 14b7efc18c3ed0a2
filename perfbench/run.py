"""oddtown benchmark: end-to-end CLI runs with a correctness gate, plus a traced run.

    python3 perfbench/run.py --workload {certify,wide,frontier,all} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from src/.
Each item is one fresh `python -m oddtown.cli --json ...` process, run one
after another from this process (a closed loop with one client), and timed
from spawn to exit.  Items repeat in order until --seconds have passed,
and every metric is computed from per-item medians, so one reading stands
for one typical pass.  Every output goes through gate.py.

Each item's CPU time (user + system, from os.wait4) is recorded next to its
wall time, and cpu_s sums the per-item median CPU times: on a shared host a
process waits for its CPU (steal) in bursts, which lengthen wall time but
not CPU time.  The host's speed also shifts by 20 % and more between
minutes, so the reference task of calibrate.py is timed between items, and
the gated time, cpu_ref_s, scales each item's CPU time to a host on which
that task takes CAL_REF_S, by the task's mean time just before and after
the item (the part of an item's time that its own --budget-secs sets is
not scaled).  wall_s and cpu_s are reported as well, not gated.

--trace 1 runs each item twice in turn, untraced and then under
trace_child.py, and reports the per-layer metrics from the traced runs and
the tracing overhead (traced minus untraced wall_s).

A report goes to stdout, the full record to .perfbench/results/, and the
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from math import comb
from pathlib import Path

import calibrate
import gate

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
E2E_UNITS = {name: m["unit"] for name, m in SPEC["metrics"]["end_to_end"].items()}
GATED = [name for name, m in SPEC["metrics"]["end_to_end"].items() if m["gated"]]
LAYER_METRICS = [name for layer in SPEC["layers"].values() for name in layer["metrics"]]

SETUP_SAMPLES = 15  # least number of fresh-interpreter imports per run; setup_s is their median, scaled as cpu_ref_s
CAL_PER_ITEM = 2  # reference-task samples between two positions of the loop
CAL_REF_S = 0.1  # the reference task's CPU time on the host that cpu_ref_s is expressed for
# Together these keep a run under 180 s even when the program hangs.
ITEM_TIMEOUT_S = 30.0  # an item still running after this is killed and counts as failed
HARD_LIMIT_S = 130.0  # no item starts later than this after the benchmark started
DESIGN_BASE = (0, 1, 6, 8, 18)  # a planar difference set mod 21: a (21,5,2) design


# ---------------------------------------------------------------------------
# Processes


def spawn(argv: list[str], env: dict, cwd: Path, out_path: Path) -> dict:
    """Run argv to completion; wall time from spawn to exit, CPU time and max RSS from wait4."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(ITEM_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
    }


def child_env(root: Path) -> dict:
    """Budgets come only from the item's flags, and the bytecode cache is on,
    as for an installed package, so no item pays for compiling the source."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ODDTOWN_BUDGET_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(root / "src")
    return env


# ---------------------------------------------------------------------------
# Statistics


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, and n."""
    s = sorted(values)
    out = {"n": len(s), "median": statistics.median(s) if s else None}
    for p in (99.9, 99, 90, 50):
        rank = math.ceil(p / 100 * len(s))
        if len(s) - rank >= 10:
            out[f"p{p:g}"] = s[rank - 1]
            break
    return out


def fmt_summary(x: dict, unit: str) -> str:
    tail = [f"{k} {v:.4f} {unit}" for k, v in x.items() if k.startswith("p")]
    return ", ".join([f"median {x['median']:.4f} {unit}"] + (tail or ["no percentile has 10 samples beyond it"]) + [f"n={x['n']}"])


# ---------------------------------------------------------------------------
# Set-up


def derive_seeds(seed: int) -> dict:
    rng = random.Random(f"oddtown-benchmark:{seed}")
    return {"local_seed": str(rng.randrange(2**31)), "family_seed": str(rng.randrange(2**31))}


def prepare_items(workload: str, seed: int, work: Path) -> list[dict]:
    fill = derive_seeds(seed)
    fill.update({
        "family": str(work / "family.txt"),
        "family_out": str(work / "family-out.txt"),
        "design": str(work / "design.txt"),
        "shadow": str(work / "shadow.txt"),
        "shadow_out": str(work / "shadow-out.txt"),
    })
    items = []
    for raw in SPEC["workloads"][workload]["items"]:
        argv = [a.format(**fill) for a in raw["argv"]]
        if argv[0] in ("search", "verify"):  # every budget is explicit
            for flag, key in (("--budget-nodes", "nodes"), ("--budget-secs", "secs")):
                if flag not in argv:
                    argv += [flag, str(SPEC["default_budget"][key])]
        exact = argv[0] in ("search", "verify") and "local" not in argv
        # node counts repeat exactly only for one worker and no time budget
        deterministic = exact and "--threads" not in raw["argv"] and "--budget-secs" not in raw["argv"]
        items.append({**raw, "run_argv": argv, "exact": exact, "deterministic": deterministic})
    return items


def setup_inputs(items: list[dict], work: Path, ctx: dict, root: Path, env: dict) -> list[dict]:
    """Write the design and its shadow; build the family file with the CLI.

    Returns the checked set-up runs of the program, which count as attempts.
    """
    runs = []
    flags = [gate.flags(item["run_argv"]) for item in items]
    if any("validate" in f for f in flags):
        design = gate.difference_set_design(21, DESIGN_BASE)
        if not gate.design_is_steiner(21, 2, design):
            raise SystemExit("internal error: the difference set does not give a design")
        (work / "design.txt").write_text(
            "n=21 k=5 t=2\n" + "".join(" ".join(map(str, b)) + "\n" for b in design), encoding="utf-8"
        )
        shadow_path = str(work / "shadow.txt")
        gate.write_family(Path(shadow_path), 21, gate.shadow(design, 4))
        ctx["shadow_path"] = shadow_path
        ctx["families"][shadow_path] = gate.read_family(Path(shadow_path))
        ctx["odd_pairs"][shadow_path] = gate.odd_pairs(ctx["families"][shadow_path][1])
    for item, f in zip(items, flags):
        if item["run_argv"][0] != "construct":
            continue
        family = str(work / "family.txt")
        argv = [a if a != f["out"] else family for a in item["run_argv"]]
        run = spawn([sys.executable, "-m", "oddtown.cli", "--json", *argv], env, root, work / "setup.out")
        setup_item = {**item, "id": "setup:" + item["id"], "run_argv": argv}
        run.update(gate.check(setup_item, run["code"], run["stdout"], ctx))
        run["id"] = setup_item["id"]
        runs.append(run)
        if run["error"] is None:
            ctx["families"][family] = gate.read_family(Path(family))
            n, masks = ctx["families"][family]
            ctx["odd_pairs"][family] = gate.odd_pairs_by_columns(masks, n)
    return runs


def import_once(root: Path, env: dict, work: Path) -> dict:
    """One fresh interpreter that imports oddtown.cli and exits."""
    return spawn([sys.executable, "-c", "import oddtown.cli"], env, root, work / "import.out")


# ---------------------------------------------------------------------------
# Traced runs


def layer_values(spans: list[list], process_wall: float, item: dict, nodes: int | None) -> dict:
    """Per-layer metrics of one traced item run."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict[str, float] = {}
    main_span = 0.0
    for i, (name, start, end, parent, error, count) in enumerate(spans):
        agg[f"{name}.calls"] = agg.get(f"{name}.calls", 0) + 1
        agg[f"{name}.self_s"] = agg.get(f"{name}.self_s", 0.0) + (end - start - child_time[i])
        agg[f"{name}.errors"] = agg.get(f"{name}.errors", 0) + error
        if name == "setfamily.op":
            agg["setfamily.op.pairs"] = agg.get("setfamily.op.pairs", 0) + (count or 0)
        elif name == "search.candidate_pool":
            agg["search.pool_members"] = agg.get("search.pool_members", 0) + (count or 0)
        elif name == "cli.main" and parent < 0:
            main_span += end - start
    agg["cli.process_s"] = process_wall - main_span
    if nodes is not None and item["exact"]:
        agg["nodes_all"] = nodes
        agg["minimize_self_exact"] = agg.get("search.minimize.self_s", 0.0)
        if item["deterministic"]:
            agg["search.nodes_explored"] = nodes
    return agg


# ---------------------------------------------------------------------------
# One workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 started: float, items_override: list[dict] | None = None) -> dict:
    env = child_env(root)
    work = root / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    loadavg_start = os.getloadavg()
    steal_start = steal_seconds()
    try:
        items = items_override or prepare_items(workload, seed, work)
        ctx: dict = {"families": {}, "odd_pairs": {}}
        setup_runs = setup_inputs(items, work, ctx, root, env)
        import_once(root, env, work)  # warms the page and bytecode caches; not a sample
        imports: list[dict] = []

        runs: list[dict] = []
        before = [calibrate.sample() for _ in range(CAL_PER_ITEM)]
        cal = list(before)

        def speed_around(records: list[dict], before: list[float]) -> list[float]:
            """Time the reference task after records and give each the mean of it just before and after."""
            after = [calibrate.sample() for _ in range(CAL_PER_ITEM)]
            for r in records:
                r["cal"] = statistics.fmean(before + after)
            cal.extend(after)
            return after

        all_spans: list[dict] = []
        modes = [False, True] if trace else [False]
        deadline = time.perf_counter() + seconds
        position = 0
        while True:
            index = position % len(items)
            first_pass = position < len(items)
            now = time.perf_counter()
            if now - started > HARD_LIMIT_S or (now >= deadline and not first_pass):
                break
            item = items[index]
            first_run, first_import = len(runs), len(imports)
            # setup_s samples are spread over the run, one before each item,
            # so that they see the same machine load as the items
            imports.append(import_once(root, env, work))
            for traced in modes:
                out_path = work / f"item-{index}-{int(traced)}.out"
                if traced:
                    spans_path = work / f"spans-{position}.json"
                    argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), item["id"], "--"]
                else:
                    argv = [sys.executable, "-m", "oddtown.cli"]
                run = spawn(argv + ["--json", *item["run_argv"]], env, root, out_path)
                run.update(gate.check(item, run["code"], run["stdout"], ctx))
                run.update({"id": item["id"], "index": index, "traced": traced})
                if traced:
                    try:
                        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
                    except (OSError, ValueError, KeyError):
                        spans = []
                        run["error"] = run["error"] or "traced run wrote no spans"
                    run["layers"] = layer_values(spans, run["wall"], item, run.get("nodes"))
                    all_spans.append({"run": len(runs), "item": item["id"], "spans": spans})
                del run["stdout"]
                runs.append(run)
            before = speed_around(imports[first_import:] + runs[first_run:], before)
            position += 1
        skipped = [it["id"] for it in items[position:]]  # first pass cut by HARD_LIMIT_S
        while len(imports) < SETUP_SAMPLES:
            imports.append(import_once(root, env, work))
            before = speed_around(imports[-1:], before)
    finally:
        loadavg_end = os.getloadavg()
        steal_end = steal_seconds()
        shutil.rmtree(work, ignore_errors=True)

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "items": items, "setup_runs": setup_runs, "runs": runs, "skipped": skipped,
        "setup_samples": [r["cpu"] * CAL_REF_S / r["cal"] for r in imports],
        "setup_wall_samples": [r["wall"] for r in imports],
        "cal_samples": cal,
        "import_failures": sum(r["code"] != 0 for r in imports),
        "loadavg": {"start": loadavg_start, "end": loadavg_end},
        "steal_s": None if steal_start is None or steal_end is None else steal_end - steal_start,
        "spans": all_spans,
    }


def per_item_medians(runs: list[dict], key) -> list[float]:
    groups: dict[int, list[float]] = {}
    for run in runs:
        value = key(run)
        if value is not None:
            groups.setdefault(run["index"], []).append(value)
    return [statistics.median(v) for _, v in sorted(groups.items())]


def incumbent(run: dict):
    if "m" not in run:
        return None
    return run["value"] if run["value"] is not None else comb(run["m"], 2)


def metrics_of(result: dict) -> dict:
    items = result["items"]
    plain = [r for r in result["runs"] if not r["traced"]]
    checked = result["setup_runs"] + result["runs"]
    # the import samples count as one attempt, failed if any import failed
    attempted = len(checked) + len(result["skipped"]) + 1
    failed = sum(r["error"] is not None for r in checked) + len(result["skipped"]) + (result["import_failures"] > 0)
    budgets = {i: float(gate.flags(it["run_argv"])["budget-secs"]) for i, it in enumerate(items)
               if "--budget-secs" in it["argv"]}
    cpu_s = sum(per_item_medians(plain, lambda r: r["cpu"]))

    def ref_time(run: dict) -> float:
        """CPU time on the reference host; time up to an item's own budget is set by the budget."""
        scale = CAL_REF_S / run["cal"]
        budget = budgets.get(run["index"])
        if budget is None:
            return run["cpu"] * scale
        return min(run["cpu"], budget) + max(0.0, run["cpu"] - budget) * scale

    e2e = {
        "cpu_ref_s": sum(per_item_medians(plain, ref_time)),
        "cpu_s": cpu_s,
        "wall_s": sum(per_item_medians(plain, lambda r: r["wall"])),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "incumbent_sum": float(sum(per_item_medians(plain, incumbent))),
        "fail_ratio": failed / attempted,
        "certified": sum(per_item_medians(plain, lambda r: None if "optimal" not in r else float(r["optimal"] is True))),
        "budget_overrun_s": max([max(0.0, r["wall"] - budgets[r["index"]]) for r in plain if r["index"] in budgets] or [0.0]),
    }
    out = {
        "attempted": attempted, "failed": failed, "end_to_end": e2e,
        "timings": {
            "per_item_wall_s": {it["id"]: summary([r["wall"] for r in plain if r["id"] == it["id"]]) for it in items},
            "item_wall_s": summary([r["wall"] for r in plain]),
            "item_cpu_s": summary([r["cpu"] for r in plain]),
            "setup_s": summary(result["setup_samples"]),
            "setup_wall_s": summary(result["setup_wall_samples"]),
            "reference_task_cpu_s": summary(result["cal_samples"]),
        },
    }
    traced = [r for r in result["runs"] if r["traced"]]
    if traced:
        layers = {}
        for name in LAYER_METRICS + ["nodes_all", "minimize_self_exact"]:
            zero = 0.0 if name.endswith("_s") else 0
            layers[name] = sum(per_item_medians(traced, lambda r: r["layers"].get(name, zero)))
        nodes_all, minimize_self = layers.pop("nodes_all"), layers.pop("minimize_self_exact")
        layers["search.nodes_per_s"] = nodes_all / minimize_self if minimize_self > 0 else 0.0
        traced_wall = sum(per_item_medians(traced, lambda r: r["wall"]))
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        out["per_layer"] = layers
        out["timings"]["traced_item_wall_s"] = summary([r["wall"] for r in traced])
    return out


# ---------------------------------------------------------------------------
# Reporting


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, over all CPUs, from /proc/stat (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def layer_unit(name: str) -> str:
    if name == "search.nodes_per_s":
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def report(result: dict, m: dict, env: dict) -> None:
    head = f"== oddtown benchmark: workload {result['workload']}, seed {result['seed']}, trace {int(result['trace'])}"
    print(head)
    print("   env " + json.dumps({**env, "loadavg": result["loadavg"], "steal_s": result["steal_s"]}))
    print(f"   {SPEC['workloads'][result['workload']]['why']}")
    runs_by_item: dict[str, list[dict]] = {}
    for r in result["runs"]:
        runs_by_item.setdefault(r["id"], []).append(r)
    for item in result["items"]:
        rs = [r for r in runs_by_item.get(item["id"], []) if not r["traced"]]
        walls = [r["wall"] for r in rs]
        bad = [r["error"] for r in runs_by_item.get(item["id"], []) if r["error"]]
        med = (f"{statistics.median(walls):8.3f} s wall {statistics.median(r['cpu'] for r in rs):8.3f} s cpu"
               if walls else "     n/a                   ")
        value = rs[-1].get("value", "") if rs else ""
        print(f"   item {item['id']:<32} {med}  runs {len(rs):2d}  exit {rs[-1]['code'] if rs else '-'}"
              f"  value {value}  {'FAIL: ' + bad[0] if bad else 'ok'}")
    for r in result["setup_runs"]:
        print(f"   set-up {r['id']}: {'FAIL: ' + r['error'] if r['error'] else 'ok'}")
    for name in result["skipped"]:
        print(f"   item {name}: not run, the {HARD_LIMIT_S:.0f} s limit was reached")
    for name, value in m["end_to_end"].items():
        print(f"   {name:<18} {value:12.4f} {E2E_UNITS[name]}")
    print(f"   item wall times: {fmt_summary(m['timings']['item_wall_s'], 's')}")
    print(f"   item CPU times: {fmt_summary(m['timings']['item_cpu_s'], 's')}")
    print(f"   setup_s samples: {fmt_summary(m['timings']['setup_s'], 's')}")
    print(f"   import wall times: {fmt_summary(m['timings']['setup_wall_s'], 's')}")
    print(f"   reference task CPU times: {fmt_summary(m['timings']['reference_task_cpu_s'], 's')}")
    if "per_layer" in m:
        print(f"   traced item wall times: {fmt_summary(m['timings']['traced_item_wall_s'], 's')}")
        for name, value in m["per_layer"].items():
            print(f"   {name:<40} {value:16.6f} {layer_unit(name)}")


def save(root: Path, result: dict, m: dict, env: dict) -> Path:
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    record = {k: v for k, v in result.items() if k != "spans"}
    path.write_text(json.dumps({"env": env, "metrics": m, **record}, indent=1), encoding="utf-8")
    if result["spans"]:
        path.with_suffix(".spans.json").write_text(json.dumps(result["spans"]), encoding="utf-8")
    return path


def contract_line(m: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": m["per_layer"][n], "unit": layer_unit(n)} for n in LAYER_METRICS}
    else:
        metrics = {n: {"value": m["end_to_end"][n], "unit": E2E_UNITS[n]} for n in GATED}
    return {"correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# Self-test of the gate


def self_test(root: Path, started: float) -> int:
    """Feed the gate one wrong reference value and show that fail_ratio rises above 0."""
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    good = [it for it in prepare_items("certify", 0, work) if it["id"] == "uniform-ckt-n6-k4-m9"]
    wrong = [{**good[0], "expect": {**good[0]["expect"], "value": good[0]["expect"]["value"] + 1}}]
    ratios = {}
    for label, items in (("true reference", good), ("one wrong reference value", wrong)):
        result = run_workload("certify", 0, 0.0, False, root, started, items_override=items)
        ratios[label] = metrics_of(result)["end_to_end"]["fail_ratio"]
        errors = [r["error"] for r in result["runs"] if r["error"]]
        print(f"self-test, {label}: fail_ratio {ratios[label]:.4f} {errors[:1]}")
    ok = ratios["true reference"] == 0 and ratios["one wrong reference value"] > 0
    print("self-test " + ("passed: the gate caught the wrong reference" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "oddtown" / "cli.py").is_file():
        print(f"error: {root} is not an oddtown checkout (no src/oddtown/cli.py)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root, started)
    if args.workload is None:
        parser.error("--workload is required")
    env = environment(root)
    names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        started_here = started if len(names) == 1 else time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root, started_here)
        m = metrics_of(result)
        report(result, m, env)
        print(f"   full record: {save(root, result, m, env).relative_to(root)}")
        lines.append(contract_line(m, bool(args.trace)))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{n}.{k}": v for n, x in zip(names, lines) for k, v in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
