#!/usr/bin/env python3
"""Record a before/after benchmark as a BENCH_<workload>.json file.

Runs the unchanged ``perfbench/run.py`` on one workload for N seeds, once in
a baseline checkout and once in the change checkout per seed.  The runs of
a pair go one after the other, and the side that runs first alternates from
seed to seed.  Each side runs its own ``perfbench/`` and ``src/``.

    python3 scripts/bench_record.py --workload rerank --seeds 101-110 \\
        --seconds 30 --baseline HEAD~1 --out BENCH_rerank.json \\
        --claim scaled_op_p50_ms --claim-frac 0.2

The baseline is a ``git clone`` of this repository under ``--work`` (a new
temporary directory by default), checked out at ``--baseline`` and removed
at the end.  The change is this checkout, working tree as it stands.  The
record is rewritten after every pair, so a run that is cut short keeps what
it measured.  The record holds the commits and the git tree id of each side's
``src/``, the machine, the seeds, every run's metrics with the median and
quartiles per metric, the count of pairs in which the change is better, a
verdict per metric (``worse``, ``unresolved`` or ``ok``, see ``verdict``)
and the names of the ``worse`` ones, and every run's ``outputs`` digests.
The machine names the OpenBLAS core that numpy loads (``blas_core``), which
``OPENBLAS_CORETYPE`` can force.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = (
    "interleaved parent/change pairs, one pair per seed, the side that runs first alternating; "
    "each run in its own checkout of the tree, one at a time"
)


def git(*args, cwd=ROOT, env=None) -> str:
    out = subprocess.run(["git", *args], cwd=cwd, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return out.stdout.strip()


def src_tree(checkout: Path) -> str:
    """git tree id of checkout/src as it stands on disk, committed or not."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "--empty", cwd=checkout, env=env)
        git("add", "-A", "--", "src", cwd=checkout, env=env)
        return git("write-tree", "--prefix=src/", cwd=checkout, env=env)


def parse_seeds(text: str) -> list[int]:
    """"101-110" or "3,5,8"."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line plus the outputs digests and the
    machine from its detail line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "outputs": detail["outputs"],
        "machine": detail["machine"],
    }


def blas_core() -> str | None:
    """The OpenBLAS core a fresh numpy import loads under this environment
    (OPENBLAS_CORETYPE included), from the "Core: <name>" line that
    OPENBLAS_VERBOSE=2 prints; None when no such line appears.  numpy's
    build info names only the build's baseline, not the kernels in use."""
    env = {**os.environ, "OPENBLAS_VERBOSE": "2"}
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=env, stderr=subprocess.PIPE, text=True)
    cores = [line.split(":", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("Core:")]
    return cores[0] if cores else None


def summarize(runs: list[float]) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": runs}


def verdict(spec: dict, parent: dict, change: dict) -> str:
    """"worse" when the change's median is worse than the parent's by more
    than the bound (a fraction of the parent's median); else "unresolved"
    when the parent's interquartile range is wider than the bound times its
    median, unless every change run beats every parent run; else "ok".
    parent and change are summarize() records."""
    limit = spec["bound"] * parent["median"]
    gap = change["median"] - parent["median"]
    if spec["better"] == "lower":
        worse, beats_all = gap > limit, max(change["runs"]) < min(parent["runs"])
    else:
        worse, beats_all = -gap > limit, min(change["runs"]) > max(parent["runs"])
    if worse:
        return "worse"
    if parent["q3"] - parent["q1"] > limit and not beats_all:
        return "unresolved"
    return "ok"


def metric_record(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ps, cs = summarize(parent), summarize(change)
    return {
        "verdict": verdict(spec, ps, cs),
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": ps,
        "change": cs,
        "change_better_pairs": better,
        "pairs": len(parent),
        "median_change_frac": cs["median"] / ps["median"] - 1.0,
        "parent_iqr": ps["q3"] - ps["q1"],
    }


def claim_record(metric: str, frac: float, rec: dict) -> dict:
    """Whether the change beats the parent on `metric` by at least `frac`
    (0.2 = 20 %) in the median, in 9 of 10 pairs, and by more than the
    parent's interquartile range."""
    sign = 1.0 if rec["better"] == "lower" else -1.0
    gap = sign * (rec["parent"]["median"] - rec["change"]["median"])
    gain = -sign * rec["median_change_frac"]
    return {
        "metric": metric,
        "target": f"at least {frac:.0%} better than the parent",
        "gain": gain,
        "met": gain >= frac and rec["change_better_pairs"] >= 0.9 * rec["pairs"] and gap > rec["parent_iqr"],
        "rule": "change better in at least 9 of 10 pairs, and the medians differ by more than the "
                "parent's interquartile range",
    }


def build_record(args, seeds, first, results, parent_commit, parent_tree, change_tree, core) -> dict:
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    done = [s for s in seeds if s in results]
    rec = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED --seconds {args.seconds:g} --trace 0",
        "protocol": PROTOCOL,
        "parent": {"commit": parent_commit, "src_tree": parent_tree},
        "change": {
            "base_commit": git("rev-parse", "HEAD"),
            "src_tree": change_tree,
            "note": "git tree id of src/ as benchmarked; each side ran its own perfbench/",
        },
        "machine": {**results[done[0]]["change"]["machine"], "blas_core": core} if done else None,
        "seeds": done,
        "first_side": {str(s): first[s] for s in done},
        "all_correct": all(results[s][side]["correct"] and not results[s][side]["failed"]
                           for s in done for side in ("parent", "change")),
        "attempted": {side: {str(s): results[s][side]["attempted"] for s in done} for side in ("parent", "change")},
        "outputs": {str(s): {side: results[s][side]["outputs"] for side in ("parent", "change")} for s in done},
        "outputs_equal": all(results[s]["parent"]["outputs"] == results[s]["change"]["outputs"] for s in done),
        "metrics": {
            name: metric_record(spec, [results[s]["parent"]["metrics"][name] for s in done],
                                [results[s]["change"]["metrics"][name] for s in done])
            for name, spec in specs.items()
        } if done else {},
    }
    rec["worse"] = [name for name, m in rec["metrics"].items() if m["verdict"] == "worse"]
    if args.claim and done:
        rec["claim"] = claim_record(args.claim, args.claim_frac, rec["metrics"][args.claim])
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help='a range "101-110" or a list "3,5,8"')
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--baseline", default="HEAD", help="git ref of the baseline side")
    p.add_argument("--work", type=Path, help="scratch directory for the baseline checkout")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--claim", help="the metric a gain is claimed on")
    p.add_argument("--claim-frac", type=float, default=0.0, help="the claimed gain as a fraction, 0.2 = 20 %%")
    args = p.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    baseline_dir = (args.work or Path(tempfile.mkdtemp(prefix="bench_record-"))) / "baseline"
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(baseline_dir))
    git("checkout", "--quiet", "--detach", git("rev-parse", "--verify", args.baseline + "^{commit}"), cwd=baseline_dir)
    try:
        parent_commit = git("rev-parse", "HEAD", cwd=baseline_dir)
        parent_tree, change_tree = src_tree(baseline_dir), src_tree(ROOT)
        dirs = {"parent": baseline_dir, "change": ROOT}
        core = blas_core()
        first, results = {}, {}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first[seed] = order[0]
            pair = {side: run_side(dirs[side], args.workload, seed, args.seconds) for side in order}
            results[seed] = pair
            rec = build_record(args, seeds, first, results, parent_commit, parent_tree, change_tree, core)
            args.out.write_text(json.dumps(rec, indent=1, sort_keys=False) + "\n")
            summary = {side: {k: round(v, 4) for k, v in pair[side]["metrics"].items()} for side in order}
            print(f"seed {seed}: {json.dumps(summary)}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(baseline_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
