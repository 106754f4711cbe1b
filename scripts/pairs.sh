#!/usr/bin/env bash
# Interleaved pairs of benchmark runs: the repository benchmark
# (benchmark/run.sh) at two commits, n pairs, one workload.
#
# Usage: scripts/pairs.sh <refA> <refB> [--workload W] [-n 10] [--seed 1]
#                         [--seconds 20] [--null]
#
# refA is the base (the parent), refB the change; any git revision
# works, and `git stash create` names an uncommitted tree. Both trees
# are exported with `git archive` under .bench_build/pairs/, each with
# its own build cache. Pair i runs both sides back to back, A first in
# even pairs and B first in odd ones, so a slow stretch of the host
# hits both sides alike.
#
# --null runs refA against a second export of itself in the same
# interleaving: a same-code pair, whose verdicts show what the
# session's drift alone would call a gain or a regression.
#
# Per run it records the wall time, the child's CPU seconds (user +
# system, from bash's `times`) and the host's steal ticks over the run
# (read from /proc/stat, never written). Per end-to-end metric it
# prints each side's median [q1, q3], how many pairs B wins, and one
# verdict under benchmark/README.md's rules:
#
#   REGRESSION    B's median is worse than A's by more than the bound
#   gain          B wins >= 9 pairs in 10 and its median is better by
#                 more than A's interquartile range
#   unresolved    either side's interquartile range exceeds the bound
#   within bound  anything else
#
# Every run's result line is kept in .bench_build/pairs/<stamp>/runs.tsv.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '5,6p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}
[ $# -ge 2 ] || usage
refA="$1" refB="$2"
shift 2
workload=build-gist-r1 n=10 seed=1 seconds=20 null=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    -n) n="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --null) null=1; shift ;;
    *) usage ;;
  esac
done

shaA="$(git rev-parse --verify "$refA^{commit}")"
shaB="$(git rev-parse --verify "$refB^{commit}")"
[ "$null" = 1 ] && shaB="$shaA"
out=".bench_build/pairs/$(date +%Y%m%d-%H%M%S)-$workload"
mkdir -p "$out"
export_tree() { # side sha
  mkdir -p "$out/$1"
  git archive "$2" | tar -x -C "$out/$1"
}
export_tree A "$shaA"
export_tree B "$shaB"
# Build both sides first (run.sh builds, then the command exits on -h),
# so no timed run pays for a compile.
for side in A B; do
  (cd "$out/$side" && bash benchmark/run.sh -h >/dev/null 2>&1) || true
done
echo "# pairs: A=${shaA:0:12} B=${shaB:0:12}$([ "$null" = 1 ] && echo ' (null pair)') workload=$workload n=$n seed=$seed seconds=$seconds"

steal() { awk '/^cpu /{print $9}' /proc/stat; }
# child_cpu sets cpu_now to the user + system seconds of every child the
# shell has waited for. `times` runs in this shell, not in a command
# substitution, whose fork would start its own child counters at 0.
child_cpu() {
  times >"$out/times.txt"
  cpu_now="$(tail -1 "$out/times.txt" | awk '{
    s = 0
    for (i = 1; i <= 2; i++) { split($i, p, "m"); sub("s", "", p[2]); s += p[1] * 60 + p[2] }
    printf "%.3f", s }')"
}

runs="$out/runs.tsv"
printf 'pair\tside\torder\twall_s\tcpu_s\tsteal_ticks\tresult\n' >"$runs"
run_side() { # pair side order
  local c0 s0 t0 line
  child_cpu
  c0="$cpu_now" s0="$(steal)" t0="$(date +%s.%N)"
  line="$( (cd "$out/$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) | tail -1)" || true
  local wall cpu st
  wall="$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN{printf "%.2f", b - a}')"
  child_cpu
  cpu="$(awk -v a="$c0" -v b="$cpu_now" 'BEGIN{printf "%.2f", b - a}')"
  st=$(( $(steal) - s0 ))
  printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$wall" "$cpu" "$st" "$line" >>"$runs"
  echo "pair $1 $2: wall ${wall}s cpu ${cpu}s steal $st" >&2
}
for ((i = 0; i < n; i++)); do
  if ((i % 2 == 0)); then
    run_side "$i" A 1; run_side "$i" B 2
  else
    run_side "$i" B 1; run_side "$i" A 2
  fi
done

python3 - "$runs" BENCHMARK.json <<'EOF'
import json, sys

runs_path, spec_path = sys.argv[1], sys.argv[2]
spec = json.load(open(spec_path))
metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
pairs = {}
extra = {"A": {"wall_s": [], "cpu_s": [], "steal_ticks": []}, "B": {"wall_s": [], "cpu_s": [], "steal_ticks": []}}
attempted = {"A": 0, "B": 0}
failed = {"A": 0, "B": 0}
bad = {"A": 0, "B": 0}
with open(runs_path) as f:
    next(f)
    for row in f:
        pair, side, _, wall, cpu, st, line = row.rstrip("\n").split("\t", 6)
        for k, v in (("wall_s", wall), ("cpu_s", cpu), ("steal_ticks", st)):
            extra[side][k].append(float(v))
        try:
            res = json.loads(line)
        except ValueError:
            bad[side] += 1
            continue
        if not res.get("correct"):
            bad[side] += 1
        attempted[side] += res.get("attempted", 0)
        failed[side] += res.get("failed", 0)
        pairs.setdefault(pair, {})[side] = {k: v["value"] for k, v in res["metrics"].items()}

def quart(xs):
    xs = sorted(xs)
    def q(p):
        x = p * (len(xs) - 1)
        lo = int(x)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (x - lo)
    return q(0.25), q(0.5), q(0.75)

both = [p for p in pairs.values() if "A" in p and "B" in p]
n = len(both)
print(f"# {n} complete pairs; runs not correct: A {bad['A']}, B {bad['B']}; "
      f"failed operations: A {failed['A']}/{attempted['A']}, B {failed['B']}/{attempted['B']}")
print(f"{'metric':<14} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} {'B-A':>8} {'B wins':>7}  verdict")
gains = regressions = 0
for name, better, bound in metrics:
    a = [p["A"][name] for p in both if name in p["A"]]
    b = [p["B"][name] for p in both if name in p["B"]]
    if not a or not b:
        continue
    qa, qb = quart(a), quart(b)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p in both if sign * (p["B"][name] - p["A"][name]) > 0)
    ma = qa[1]
    rel = (qb[1] - ma) / ma if ma else 0.0
    worse = -sign * rel
    iqr_a = (qa[2] - qa[0]) / ma if ma else 0.0
    iqr_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    if worse > bound:
        verdict = "REGRESSION"
        regressions += 1
    elif wins * 10 >= 9 * n and sign * (qb[1] - ma) > (qa[2] - qa[0]):
        verdict = "gain"
        gains += 1
    elif max(iqr_a, iqr_b) > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<14} {fmt(qa):<30} {fmt(qb):<30} {rel:>+8.2%} {wins:>4}/{n}  {verdict}")
for k in ("wall_s", "cpu_s", "steal_ticks"):
    qa, qb = quart(extra["A"][k]), quart(extra["B"][k])
    print(f"{'run.' + k:<14} {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(45) + f" {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]")
print(f"# verdicts: {gains} gain, {regressions} REGRESSION")
EOF
echo "# runs: $runs"
