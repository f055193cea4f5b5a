"""Injected-slowdown self-check for the ZQL-to-rows benchmark.

For each layer (zql, plancache, optimizer, exec) the benchmark is run with
and without `--inject LAYER`, which busy-waits for 10% of every call into
that layer, inside the layer's span. The check runs
the workload the layer is predicted to move and one it is predicted not
to move, and reports:

  * attribution: the layer's own time metric rises by about the injected
    share. The machine drifts between runs, so the verdict uses the
    layer's time relative to another layer's time in the same run
    (exec for the others, zql for exec), which the drift cancels;
  * detection: the change of `qps` against its bound in BENCHMARK.json,
    next to the change the layer's traced share predicts (share x delay).

Every run is a traced run (`--trace 1`), whose untraced first half gives
`trace.untraced_qps` and whose traced second half gives the per-layer
times. Figures are medians over the seeds; each injected run follows
its baseline run on the same seed.

Run from the repository root:

    python3 zqlbench/slowdown_check.py [--seeds 1,2,3] [--seconds 20]
"""

import argparse
import json
import statistics
import subprocess
import sys

DELAY = 0.10  # the share of each call that `--inject` adds

LAYERS = {
    # layer: (time metric, reference metric, share metric, predicted workload, bypass workload)
    "zql": ("zql.compile_us", "exec.ms", "zql.share", "lookup-hot", "report-scan"),
    "plancache": ("plancache.hit_us", "exec.ms", "plancache.share", "lookup-hot", "report-scan"),
    "optimizer": ("optimizer.cold_ms", "exec.ms", "optimizer.share", "adhoc-join", "report-scan"),
    "exec": ("exec.ms", "zql.compile_us", "exec.share", "report-scan", "adhoc-join"),
}


def run(workload, seed, seconds, inject=None):
    cmd = ["bash", "zqlbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"incorrect result: {' '.join(cmd)}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def change(base, new):
    return (new - base) / base if base else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open("BENCHMARK.json") as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}["qps"]

    pairs = sorted({(layer, w) for layer, spec in LAYERS.items() for w in spec[3:]})
    workloads = sorted({w for _, w in pairs})
    base = {w: [] for w in workloads}
    injected = {p: [] for p in pairs}
    # each injected run follows its baseline closely: the machine drifts
    for seed in seeds:
        for w in workloads:
            base[w].append(run(w, seed, args.seconds))
            for layer, w2 in pairs:
                if w2 == w:
                    injected[(layer, w)].append(run(w, seed, args.seconds, layer))

    def med(runs, metric):
        return statistics.median(r[metric] for r in runs)

    def rel(runs, tm, ref):
        return statistics.median(r[tm] / r[ref] if r[ref] else 0.0 for r in runs)

    time_metrics = [spec[0] for spec in LAYERS.values()]
    ok = True
    print(f"delay {DELAY:.0%} of each call into the layer; seeds {seeds}; "
          f"{args.seconds:g} s runs; qps bound {bound:.0%}")
    print(f"{'layer':10} {'workload':12} {'role':9} {'layer time':>11} {'vs ref':>8} "
          f"{'largest other':>24} {'qps':>8} {'predicted':>9}  verdict")
    for layer, (tm, ref, sm, predicted, bypass) in LAYERS.items():
        for w in (predicted, bypass):
            b, i = base[w], injected[(layer, w)]
            d_layer = change(med(b, tm), med(i, tm))
            d_rel = change(rel(b, tm, ref), rel(i, tm, ref))
            others = [(change(med(b, m), med(i, m)), m) for m in time_metrics
                      if m != tm and med(b, m) > 0]
            d_other, other = max(others) if others else (0.0, "-")
            d_qps = change(med(b, "trace.untraced_qps"), med(i, "trace.untraced_qps"))
            expect = -DELAY * med(b, sm) / (1 + DELAY * med(b, sm))
            if w == predicted:
                attributed = d_rel >= DELAY / 2
                flagged = -d_qps > bound
                verdict = ("attributed" if attributed else "NOT ATTRIBUTED") + \
                    (", qps flagged" if flagged else ", qps within bound")
                ok &= attributed
            else:
                quiet = abs(d_qps) <= bound
                verdict = "qps within bound" if quiet else "QPS MOVED"
                ok &= quiet
            print(f"{layer:10} {w:12} {'predicted' if w == predicted else 'bypass':9} "
                  f"{d_layer:+11.1%} {d_rel:+8.1%} {other + ' ' + format(d_other, '+.1%'):>24} "
                  f"{d_qps:+8.1%} {expect:+9.1%}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
