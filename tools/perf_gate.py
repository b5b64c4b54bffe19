#!/usr/bin/env python3
"""Same-host A/B performance gate.

Usage, from the root of a checkout:

    python3 tools/perf_gate.py --base REV

Extracts REV with `git archive` into a temporary directory (the base) and
compares it with this checkout (the head) on this host. For every workload
in the base's BENCHMARK.json it runs PAIRS pairs of `perfbench/run.py
--trace 0 --seed 1`, one run in each tree, alternating which side runs
first. Each tree builds and runs its own perfbench. Then it compares the
medians of the end_to_end metrics against the base's bounds, so a change
cannot loosen the gate that judges it.

Exit status:
  0  no host metric of the head is worse than the base's by more than its
     bound, and every head run is correct;
  1  the head is at fault: a host metric's median is worse than the base's
     by more than its bound (the direction comes from "better"), or a head
     run is incorrect or prints no result line while the base runs pass;
  2  cannot measure: REV does not resolve or has no BENCHMARK.json, or a
     base run is incorrect or prints no result line. A failing base never
     exits 1.
The modelled metrics are printed with their differences but not gated:
tier-1's goldens pin modelled behaviour bit for bit.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = 3
# The end-to-end metrics that do not depend on the host (perfbench/NOTES.md).
MODELLED = ("sim_cycles", "aborts_per_commit", "false_abort_rate",
            "flits_per_commit", "txn_efficiency", "admitted_frac")
RUN_TIMEOUT_S = 1800  # a build plus one run; run.py caps the run itself


def parse_result(stdout, names):
    """Returns (result, None) for perfbench output whose last non-empty
    line is a result object carrying every metric in `names`, else
    (None, reason)."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None, "no output"
    last = lines[-1]
    try:
        result = json.loads(last)
        correct = result["correct"]
        values = {n: float(result["metrics"][n]["value"]) for n in names}
    except (ValueError, TypeError, KeyError) as e:
        return None, f"malformed result line ({type(e).__name__}: {e}): " \
                     f"'{last[:80]}'"
    if not isinstance(correct, bool):
        return None, "malformed result line: 'correct' is not a bool"
    return {"correct": correct, "failed": result.get("failed"),
            "values": values}, None


def worse_by(base, head, better):
    """The head's relative change against the base, positive when worse."""
    change = (head - base) / base
    return change if better == "lower" else -change


def compare(end_to_end, base_outputs, head_outputs):
    """Judges one workload from the perfbench outputs of its base and head
    runs. Returns (code, report): code 0 passes, 1 faults the head, 2
    cannot measure; report is a list of lines naming each finding."""
    names = [m["name"] for m in end_to_end]
    report = []
    sides = {}
    for side, outputs in (("base", base_outputs), ("head", head_outputs)):
        results = []
        for i, out in enumerate(outputs, 1):
            result, err = parse_result(out, names)
            if err is None and not result["correct"]:
                err = f"\"correct\": false ({result['failed']} runs failed)"
            if err is not None:
                report.append(f"{side} run {i}: {err}")
            else:
                results.append(result)
        sides[side] = results
    if len(sides["base"]) < len(base_outputs) or not base_outputs:
        report.append("cannot measure: a base run failed")
        return 2, report
    code = 0
    if len(sides["head"]) < len(head_outputs) or not head_outputs:
        report.append("FAIL: a head run failed while every base run passed")
        code = 1
    if not sides["head"]:
        return code, report

    report.append(f"{'metric':<20} {'base median':>14} {'head median':>14} "
                  f"{'worse by':>9} {'bound':>6}")
    for m in end_to_end:
        name = m["name"]
        base = statistics.median(r["values"][name] for r in sides["base"])
        head = statistics.median(r["values"][name] for r in sides["head"])
        row = f"{name:<20} {base:>14.6g} {head:>14.6g}"
        if name in MODELLED:
            row += "  modelled, " + ("identical" if base == head
                                     else "DIFFERS (not gated)")
        elif base == 0:
            row += "  base median is 0, not compared"
        else:
            worse = worse_by(base, head, m["better"])
            row += f" {worse:>+9.1%} {m['bound']:>6.0%}"
            if worse > m["bound"]:
                row += "  REGRESSION"
                code = 1
        report.append(row)
    return code, report


def regressed(report):
    """The metric names that a workload's report flags as regressions."""
    return [line.split()[0] for line in report if line.endswith("REGRESSION")]


def run_perfbench(tree, workload):
    """Runs one untraced seed-1 perfbench pass set in `tree`; returns its
    standard output (build and progress output is dropped unless the run
    fails to print anything)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--trace", "0", "--seed", "1"]
    try:
        done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"perf_gate: {e}"
    if not done.stdout.strip():
        sys.stderr.write(done.stderr[-2000:])
    return done.stdout


def extract(rev, dest):
    """Writes the tree of commit `rev` into `dest`; returns an error
    message or None."""
    tar = os.path.join(dest, "base.tar")
    done = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                           "-o", tar, f"{rev}^{{commit}}"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return done.stderr.strip() or f"git archive {rev} failed"
    # The "data" filter refuses members that would land outside `dest`;
    # Python versions before it existed extract unfiltered.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(tar) as t:
        t.extractall(os.path.join(dest, "tree"), **safe)
    os.remove(tar)
    return None


def load_spec(tree):
    """The workload names and end_to_end metrics of `tree`'s
    BENCHMARK.json; raises on a missing file or field."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [{"name": m["name"], "better": m["better"],
                   "bound": float(m["bound"])} for m in spec["end_to_end"]]
    return [w["name"] for w in spec["workloads"]], end_to_end


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, metavar="REV",
                    help="the commit to compare this checkout against")
    args = ap.parse_args()

    start = time.monotonic()
    tmp = tempfile.mkdtemp(prefix="perf_gate-")
    try:
        err = extract(args.base, tmp)
        trees = {"base": os.path.join(tmp, "tree"), "head": ROOT}
        if err is None:
            try:
                workloads, end_to_end = load_spec(trees["base"])
            except (OSError, ValueError, KeyError, TypeError) as e:
                err = f"no usable BENCHMARK.json in {args.base}: {e!r}"
        if err is not None:
            print(f"perf_gate: cannot measure: {err}")
            return 2
        verdicts = {}
        k = 0
        for w in workloads:
            outputs = {"base": [], "head": []}
            for _ in range(PAIRS):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                k += 1
                for side in order:
                    outputs[side].append(run_perfbench(trees[side], w))
            code, report = compare(end_to_end, outputs["base"],
                                   outputs["head"])
            verdicts[w] = (code, report)
            print(f"{w}: {PAIRS} pairs")
            for line in report:
                print(f"  {line}")
            sys.stdout.flush()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    minutes = (time.monotonic() - start) / 60
    code = max((c for c, _ in verdicts.values()), default=0)
    bad = [f"{w} ({', '.join(regressed(r)) or 'a failed run'})"
           for w, (c, r) in verdicts.items() if c == code and code != 0]
    if code == 2:
        print(f"perf_gate: cannot measure: base failed on {', '.join(bad)}")
    elif code == 1:
        print(f"perf_gate: FAIL against {args.base}: {', '.join(bad)}")
    else:
        print(f"perf_gate: ok against {args.base}: no host metric worse than "
              f"its bound on {len(workloads)} workloads")
    print(f"perf_gate: {minutes:.1f} min")
    return code


if __name__ == "__main__":
    sys.exit(main())
