#!/usr/bin/env python3
"""Benchmark of the `cw` CLI, end to end and per layer.

    python3 perfbench/run.py --workload warm_all --seed 7533836924 --seconds 25 --trace 0

Run from the repository root. Builds the release `cw` binary and the
`cwprobe` helper (perfbench/probe), then runs one workload:

* `--trace 0` times whole `cw` invocations as child processes for
  `--seconds` seconds and reports the end-to-end metrics;
* `--trace 1` runs the workload once untimed and once through
  `cwprobe flow`, which replays the CLI in one process with a span around
  each call into a layer, and reports the per-layer metrics.

Every output is hashed and checked. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Raw samples and
provenance go to .bench_work/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEED = 0x1C10D3A7C
MANIFEST = Path("tests/golden/MANIFEST.sha256")
# Knobs the child must not inherit: each would change what is measured.
CLEARED_ENV = ("CW_THREADS", "CW_SHARDS", "CW_WINDOW_SECS", "CW_INJECT_PANIC")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Engine shards used wherever the benchmark simulates: two engine threads
# on the two-core reference machine, like cold_all's `--shards 2`.
SIM_SHARDS = 2

# The registry, in golden-manifest order; one render metric each.
EXHIBITS = (
    "ablation_bonferroni", "ablation_median", "ablation_topk", "all", "figure1",
    "recommendations", "section3_2", "table1", "table2", "table3", "table4",
    "table5", "table6", "table7", "table8", "table9", "table10", "table11",
    "table12", "table13", "table14", "table15", "table16", "table17",
    "temporal_stability",
)

# name -> (cw arguments without --seed, exhibit, warm, set-up passes per run)
WORKLOADS = {
    # Reproduce everything from a primed cache: snapshot reads, the fused
    # plan prefetch, 25 renders and the fleet fan-out all block the result.
    "warm_all": (["all", "--threads", "2"], "all", True, 1),
    # One exhibit from a primed cache: the snapshot read dominates and
    # prefetch and render are small, so scan or render changes must not
    # move it. Priming one world is cheap, so it is repeated.
    "warm_table1": (["table1", "--threads", "2"], "table1", True, 3),
    # Empty cache: the only workload that simulates (engine windows, shard
    # merge, classification, interning) and writes snapshots.
    "cold_all": (["all", "--threads", "1", "--shards", str(SIM_SHARDS)], "all", False, 0),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("scenario.run_s", "s"),
    ("scenario.events_per_s", "events/s"),
    ("scenario.flows_per_s", "flows/s"),
    ("bundle.fold_s", "s"),
    ("scenario.shard_busy_max_s", "s"),
    ("scenario.shard_imbalance", "ratio"),
    ("scenario.merge_tail_s", "s"),
    ("scenario.windows", "count"),
    ("scenario.peak_window_rows", "rows"),
    ("dataset.events", "count"),
    ("dataset.payload_events", "count"),
    ("dataset.distinct_payloads", "count"),
    ("dataset.distinct_payload_ratio", "ratio"),
    ("snapshot.read_s", "s"),
    ("snapshot.verify_s", "s"),
    ("snapshot.verify_mb_per_s", "MB/s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.decode_events_per_s", "events/s"),
    ("snapshot.bytes_per_event", "B/event"),
    ("snapshot.load_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.seal_s", "s"),
    ("snapshot.store_s", "s"),
    ("prefetch.s", "s"),
    ("prefetch.plans", "count"),
    ("prefetch.passes", "count"),
    ("prefetch.rows", "rows"),
    ("prefetch.rows_per_s", "rows/s"),
    ("prefetch.plans_per_pass", "ratio"),
    ("render.s", "s"),
    *((f"render.{name}_s", "s") for name in EXHIBITS),
    ("render.unplanned_passes", "count"),
    ("render.unplanned_rows", "rows"),
    ("render.out_bytes", "B"),
    ("leak.s", "s"),
    ("output.write_s", "s"),
    ("fleet.obtain_s", "s"),
    ("fleet.render_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs)


def tail_percentile(xs, ladder=(99, 95, 90, 75)):
    """The highest percentile in `ladder` with at least ten samples above
    it, as (percentile, value), or None. Nearest-rank definition."""
    s = sorted(xs)
    for p in ladder:
        rank = math.ceil(p / 100 * len(s))
        if rank >= 1 and sum(1 for x in s if x > s[rank - 1]) >= 10:
            return p, s[rank - 1]
    return None


def summary(xs):
    """Median, quartiles, sample count and the tail percentile rule."""
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"n": len(xs), "median": median(xs), "q1": q1, "q3": q3,
            "tail": tail_percentile(xs)}


class Tally:
    """Failure accounting: an invocation fails on a non-zero exit or on
    output that does not match the expected hashes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, exit_code, outputs_ok):
        self.attempted += 1
        if exit_code != 0 or not outputs_ok:
            self.failed += 1

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


# ------------------------------------------------------------ output checks

def parse_manifest(text):
    """`sha256sum` lines (`<hex>  <name>` or `<hex> *<name>`) as a dict;
    line order does not matter."""
    entries = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        m = re.fullmatch(r"([0-9a-f]{64}) [ *](.+)", line.strip())
        if m is None:
            raise ValueError(f"malformed manifest line: {line!r}")
        entries[m.group(2)] = m.group(1)
    return entries


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hash_texts(directory):
    """{name.txt: sha256} of every `*.txt` in `directory`."""
    d = Path(directory)
    if not d.is_dir():
        return {}
    return {p.name: sha256_file(p) for p in sorted(d.glob("*.txt"))}


# ------------------------------------------------------------------ tracing

def union_length(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """{span id: duration minus the part of it its children cover}.
    Children may overlap each other (parallel fleet jobs) or stick out of
    the parent; only the covered part of the parent counts once."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        covered = [(a, b) for a, b in covered if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(covered)
    return out


def load_trace(path, source):
    """Spans and counts of one cwprobe trace file; ids are prefixed with
    `source` so spans of two processes never collide."""
    data = json.loads(Path(path).read_text())
    spans = []
    for s in data["spans"]:
        spans.append({**s, "source": source, "id": f"{source}:{s['id']}",
                      "parent": None if s["parent"] is None else f"{source}:{s['parent']}"})
    return spans, data["counts"]


def profile(spans):
    """Per span name: count, total and self seconds, largest self first."""
    st = self_times(spans)
    rows = {}
    for s in spans:
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s["end"] - s["start"]
        r[2] += st[s["id"]]
    return sorted(([n, *r] for n, r in rows.items()), key=lambda r: -r[3])


def layer_metrics(spans, counts, untraced_wall, traced_wall):
    """The per-layer metrics from the spans and counts of one traced run.
    `untraced_wall` is the plain `cw` invocation of the same workload and
    `traced_wall` the wall time of the `cwprobe flow` process."""
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def c(key):
        return float(counts.get(key, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    run_s = total("scenario.run")
    busy_max = c("scenario.shard_busy_max_s")
    verify_s, decode_s, prefetch_s = total("snapshot.verify"), total("snapshot.decode"), total("prefetch")
    renders = {name: total(f"render.{name}") for name in EXHIBITS}
    render_s = sum(renders.values())
    obtain_wall, render_wall = total("obtain"), total("render")
    flow_top = [s for s in spans if s["source"] == "flow" and s["parent"] is None]
    return {
        "scenario.run_s": run_s,
        "scenario.events_per_s": ratio(c("dataset.events"), run_s),
        "scenario.flows_per_s": ratio(c("scenario.flows"), run_s),
        "bundle.fold_s": total("bundle.fold"),
        "scenario.shard_busy_max_s": busy_max,
        "scenario.shard_imbalance": ratio(busy_max, c("scenario.shard_busy_mean_s")),
        "scenario.merge_tail_s": run_s - busy_max,
        "scenario.windows": c("scenario.windows"),
        "scenario.peak_window_rows": c("scenario.peak_window_rows"),
        "dataset.events": c("dataset.events"),
        "dataset.payload_events": c("dataset.payload_events"),
        "dataset.distinct_payloads": c("dataset.distinct_payloads"),
        "dataset.distinct_payload_ratio": ratio(c("dataset.distinct_payloads"), c("dataset.payload_events")),
        "snapshot.read_s": total("snapshot.read"),
        "snapshot.verify_s": verify_s,
        "snapshot.verify_mb_per_s": ratio(c("snapshot.read_bytes") / 1e6, verify_s),
        "snapshot.decode_s": decode_s,
        "snapshot.decode_events_per_s": ratio(c("snapshot.read_events"), decode_s),
        "snapshot.bytes_per_event": ratio(c("snapshot.read_bytes") + c("snapshot.stored_bytes"),
                                          c("snapshot.read_events") + c("snapshot.stored_events")),
        "snapshot.load_s": total("snapshot.load"),
        "snapshot.encode_s": total("snapshot.encode"),
        "snapshot.seal_s": total("snapshot.seal"),
        "snapshot.store_s": total("snapshot.store"),
        "prefetch.s": prefetch_s,
        "prefetch.plans": c("prefetch.plans"),
        "prefetch.passes": c("prefetch.passes"),
        "prefetch.rows": c("prefetch.rows"),
        "prefetch.rows_per_s": ratio(c("prefetch.rows"), prefetch_s),
        "prefetch.plans_per_pass": ratio(c("prefetch.plans"), c("prefetch.passes")),
        "render.s": render_s,
        **{f"render.{name}_s": v for name, v in renders.items()},
        "render.unplanned_passes": c("render.unplanned_passes"),
        "render.unplanned_rows": c("render.unplanned_rows"),
        "render.out_bytes": c("render.out_bytes"),
        "leak.s": total("leak"),
        "output.write_s": total("write"),
        "fleet.obtain_s": obtain_wall,
        "fleet.render_s": render_wall,
        "fleet.parallel_efficiency": ratio(
            total("obtain.world") + render_s,
            c("fleet.obtain_workers") * obtain_wall + c("fleet.render_workers") * render_wall),
        "trace.unattributed_s": untraced_wall - sum(
            s["end"] - s["start"] for s in flow_top if not s["check"]),
        "trace.overhead_s": traced_wall - sum(
            s["end"] - s["start"] for s in flow_top if s["check"]) - untraced_wall,
    }


# ------------------------------------------------------------- processes

def child_env(cache):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["CW_CACHE_DIR"] = str(cache)
    return env


def invoke(argv, cwd, env, stdout_path, stderr_path):
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_checked(argv, **kw):
    """Run a build or helper step; its output goes to stderr."""
    r = subprocess.run(argv, stdout=kw.pop("stdout", sys.stderr), **kw)
    if r.returncode != 0:
        sys.exit(f"perfbench: {' '.join(map(str, argv))} exited {r.returncode}")
    return r


def capture(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except OSError:
        return None


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.seed = seed
        cw_args, self.exhibit, self.warm, self.prime_repeat = WORKLOADS[workload]
        self.cw_args = cw_args + ["--seed", str(seed)]
        self.threads = int(cw_args[cw_args.index("--threads") + 1])
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else root / target
        self.work = root / ".bench_work" / workload
        self.cache = self.work / "cache"
        self.env = child_env(self.cache)
        golden = parse_manifest((root / MANIFEST).read_text())
        self.names = set(golden) if self.exhibit == "all" else {f"{self.exhibit}.txt"}
        self.golden = {k: golden[k] for k in self.names} if seed == DEFAULT_SEED else None

    def build(self):
        env = {**os.environ, "CARGO_TARGET_DIR": str(self.target)}
        run_checked(["cargo", "build", "--release", "--offline", "-p", "cw-bench", "--bin", "cw"],
                    cwd=self.root, env=env)
        run_checked(["cargo", "build", "--release", "--offline", "--manifest-path",
                     str(Path(__file__).resolve().parent / "probe" / "Cargo.toml")],
                    cwd=self.root, env=env)
        self.cw = self.target / "release" / "cw"
        self.probe = self.target / "release" / "cwprobe"

    def fresh_dir(self, *dirs):
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    def outputs(self, stdout_path):
        if self.exhibit == "all":
            return hash_texts(self.work / "out")
        return {f"{self.exhibit}.txt": sha256_file(stdout_path)}

    def probe_args(self, command, **flags):
        argv = [str(self.probe), command, "--cache", str(self.cache), "--seed", str(self.seed),
                "--exhibit", self.exhibit, "--shards", str(SIM_SHARDS)]
        for k, v in flags.items():
            argv += [f"--{k}", str(v)]
        return argv

    def matches(self, got, expected):
        return set(got) == self.names and got == expected

    def run_cw(self):
        stdout_path = self.work / "stdout.txt"
        code, wall, cpu, rss = invoke([str(self.cw), *self.cw_args], self.work, self.env,
                                      stdout_path, self.work / "cw.log")
        return code, wall, cpu, rss, self.outputs(stdout_path)

    def prime(self, reference):
        flags = {"repeat": self.prime_repeat}
        if reference:
            flags.update(reference=self.work / "ref", threads=self.threads)
        r = run_checked(self.probe_args("prime", **flags), cwd=self.work, env=self.env,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return json.loads(r.stdout.strip().splitlines()[-1])["setup_s"]

    def timed(self, seconds):
        """Invoke `cw` until `seconds` have passed; at least once."""
        tally, samples, setup = Tally(), [], []
        expected = self.golden
        if self.warm:
            setup = self.prime(reference=expected is None)
            if expected is None:
                expected = hash_texts(self.work / "ref")
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            self.fresh_dir(self.work / "out")
            code, wall, cpu, rss, got = self.run_cw()
            if expected is None and code == 0:
                expected = got  # cold_all at another seed: later runs must repeat the first
            ok = self.matches(got, expected)
            tally.record(code, ok)
            samples.append({"exit": code, "outputs_ok": ok, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
            if not self.warm:
                # Back to the empty start state. Timed after each
                # invocation, so every sample removes the same files.
                t = time.perf_counter()
                self.fresh_dir(self.cache, self.work / "out")
                setup.append(time.perf_counter() - t)
        metrics = {
            "wall_s": median([s["wall_s"] for s in samples]),
            "cpu_s": median([s["cpu_s"] for s in samples]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
            "setup_s": median(setup),
            "ok_frac": 1.0 - tally.failed_frac,
        }
        detail = {"samples": samples, "setup_s": setup,
                  "summary": {k: summary([s[k] for s in samples]) for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
        detail["summary"]["setup_s"] = summary(setup)
        return tally, metrics, detail

    def traced(self):
        """One untraced `cw` invocation and one `cwprobe flow` replay of it."""
        tally = Tally()
        spans, counts = [], {}
        expected = self.golden
        if self.warm:
            trace = self.work / "trace_setup.json"
            flags = {"trace": trace}
            if expected is None:
                flags.update(reference=self.work / "ref", threads=self.threads)
            run_checked(self.probe_args("prime", **flags), cwd=self.work, env=self.env,
                        stderr=subprocess.DEVNULL)
            spans, counts = load_trace(trace, "setup")
            if expected is None:
                expected = hash_texts(self.work / "ref")
        code, untraced_wall, _, _, plain = self.run_cw()
        if expected is None:
            expected = plain  # cold_all at another seed: the replay must repeat it
        tally.record(code, self.matches(plain, expected))
        self.fresh_dir(self.work / "out")
        if not self.warm:
            self.fresh_dir(self.cache)
        trace = self.work / "trace_flow.json"
        stdout_path = self.work / "flow_stdout.txt"
        argv = self.probe_args("flow", threads=self.threads, trace=trace)
        code, traced_wall, _, _ = invoke(argv, self.work, self.env, stdout_path, self.work / "probe.log")
        got = self.outputs(stdout_path)
        tally.record(code, self.matches(got, expected))
        if code != 0:
            return tally, {name: 0.0 for name, _ in PER_LAYER}, {}
        flow_spans, flow_counts = load_trace(trace, "flow")
        spans += flow_spans
        for k, v in flow_counts.items():
            counts[k] = counts.get(k, 0.0) + v
        metrics = layer_metrics(spans, counts, untraced_wall, traced_wall)
        detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "counts": counts,
                  "profile": profile(spans), "spans": spans}
        return tally, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    for needed in ("Cargo.toml", "crates/bench", MANIFEST):
        if not (root / needed).exists():
            sys.exit(f"perfbench: {root / needed} is missing; run from the root of a cw checkout")
    bench = Bench(root, args.workload, args.seed)
    bench.build()
    bench.fresh_dir(bench.work)
    bench.work.mkdir(parents=True)

    if args.trace:
        tally, values, detail = bench.traced()
        units = dict(PER_LAYER)
    else:
        tally, values, detail = bench.timed(args.seconds)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cw_args": bench.cw_args, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": capture(["git", "-C", str(root), "rev-parse", "HEAD"]) if (root / ".git").exists() else None,
        "rustc": capture(["rustc", "--version"]),
        "attempted": tally.attempted, "failed": tally.failed, "failed_frac": tally.failed_frac,
        "metrics": metrics, **detail,
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}: cw {' '.join(bench.cw_args)}  "
          f"(nproc {record['nproc']}, {record['rustc']}, commit {record['commit']})")
    for name, m in metrics.items():
        line = f"  {name:<34} {m['value']:>14.6g} {m['unit']}"
        s = detail.get("summary", {}).get(name)
        if s:
            line += f"   n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}"
            if s["tail"]:
                line += f" p{s['tail'][0]}={s['tail'][1]:.6g}"
        print(line)
    print(f"  failed_frac {tally.failed_frac:g} ({tally.failed} of {tally.attempted}); raw samples in {out}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
