"""A/B benchmark: the parent commit against a change, run in alternating pairs.

    python3 tools/ab_bench.py --parent ../parent --change . \\
        --workload mlp-compute --pairs 10 --seeds 0,1,7 [--json ab.json]

Each pair runs `bench/run.py --workload W --seconds S --seed s` once in
each checkout, in a fresh process, alternating which side runs first;
pair i takes seed i of the cycled --seeds list. Only the last line of a
run's standard output is read: the JSON object the bench prints. For
every metric the script prints each side's median and quartiles, how
many pairs the change won (ties count for neither side), and whether the
change passes the rule for claiming a gain: it wins at least 9 in 10 of
the pairs, and its median is better than the parent's by more than the
distance between the parent's quartiles. For every end-to-end metric it
also applies the no-regression rule with the metric's bound b: `worse`
when the change's median is worse than the parent's by more than
b * |parent median|, else `unresolved` when the parent's quartile
distance exceeds b * |parent median| and not every change run reads
better than every parent run, else `ok`. Which way is better, and each
bound, come from the change's BENCHMARK.json. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(
    parent: list[float], change: list[float], better: str | None, bound: float | None = None
) -> dict:
    """One metric over paired runs: parent[i] and change[i] form pair i.

    `better` is "higher", "lower" or None (direction unknown: no wins and
    no verdict). `bound` is an end-to-end metric's no-regression bound,
    None for a metric that has none (no regression verdict).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    out = {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "pairs": len(parent),
        "parent_iqr": p_q3 - p_q1,
        "change_vs_parent": (c_med - p_med) / p_med if p_med else None,
        "better": better,
        "wins": None,
        "passes": None,
        "regression": None,
    }
    if better in ("higher", "lower"):
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        gain = sign * (c_med - p_med)
        out["wins"] = wins
        out["passes"] = wins * 10 >= 9 * len(parent) and gain > p_q3 - p_q1
        if bound is not None:
            allowed = bound * abs(p_med)
            if -gain > allowed:
                out["regression"] = "worse"
            elif p_q3 - p_q1 > allowed and not (
                min(sign * c for c in change) > max(sign * p for p in parent)
            ):
                out["regression"] = "unresolved"
            else:
                out["regression"] = "ok"
    return out


def benchmark_rules(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """From the checkout's BENCHMARK.json: metric name -> "higher" or
    "lower", and end-to-end metric name -> its no-regression bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {
        m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])
    }
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}
    return better, bounds


def run_once(checkout: Path, workload: str, seconds: float, seed: int, trace: int) -> dict:
    """The bench's result object from one run in `checkout`."""
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed), "--trace", str(trace),
        ],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: run printed no result (exit {proc.returncode})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="0", help="comma-separated, cycled over the pairs")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order_log = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seconds, seed, args.trace)
            result["seed"] = seed
            runs[side].append(result)
            print(f"# pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)
        order_log.append(list(order))

    better, bounds = benchmark_rules(sides["change"])
    names = sorted(
        set.intersection(*(set(r["metrics"]) for side in runs.values() for r in side))
    )
    summary = {}
    print(f"{'metric':<40} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'wins':>6} {'change':>8} pass regression")
    for name in names:
        s = summarize(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            better.get(name),
            bounds.get(name),
        )
        summary[name] = s
        p, c = s["parent"], s["change"]
        wins = "-" if s["wins"] is None else f"{s['wins']}/{s['pairs']}"
        rel = "-" if s["change_vs_parent"] is None else f"{s['change_vs_parent']:+.1%}"
        verdict = {True: "yes", False: "no", None: "-"}[s["passes"]]
        print(f"{name:<40} {p['median']:>10.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
              f"{'':>2} {c['median']:>10.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
              f"{'':>2} {wins:>6} {rel:>8} {verdict:<4} {s['regression'] or '-'}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    print(f"# correct on every run: {correct}; failed runs: {failed}")
    if args.json:
        args.json.write_text(json.dumps(
            {
                "workload": args.workload, "seconds": args.seconds, "seeds": seeds,
                "order": order_log, "runs": runs, "summary": summary,
            },
            indent=1, sort_keys=True,
        ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
