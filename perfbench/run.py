"""Run one workload of the adelic benchmark and print its metrics.

    python3 perfbench/run.py --workload spectrum-warm --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is used from ``src`` without
installing it.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, with the sample count, the error rate and
checksums of the operation stream and of the answers.

``--trace 0`` reports the end-to-end metrics.  wall_s is the time spent
inside operations (answer checks excluded) and ops_per_s divides the
operation count by it; setup_s is the median of several set-ups, each in a
fresh process; peak_rss_mb is the workload process's peak, or the largest
child's for the CLI workloads.  ``--trace 1`` reports the
per-layer metrics: it first runs half the operations untraced in a fresh
process, then the same operations with every layer wrapped, and reports the
ratio of the two wall times as the tracing overhead.  Spans are written to
``.perfbench_out/`` at the end of a traced run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

IMPORT_PROBE = "import adelic.cli"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only times the workload's set-up
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # internal: the untraced half of a traced run (no extra set-up samples)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    from workloads import child_env

    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- set-up ---------------------------------------------------------------------


def cold_import_seconds() -> float:
    t = time.perf_counter()
    proc = run_child(["-c", IMPORT_PROBE])
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def timed_setup(wl, seed: int, on_import=None):
    """Set up in this process; returns the seconds it took and the state."""
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    state = wl.setup(seed, on_import)
    return time.perf_counter() - t, state


def probe_children(wl, seed: int, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = run_child([str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed),
                          "--setup-probe"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(last_json(proc.stdout)["setup_s"])
    return out


def import_times() -> tuple[float, float]:
    """Median cumulative import seconds of adelic and of sympy, from
    ``python -X importtime``."""
    adelic, sympy = [], []
    for _ in range(3):
        proc = run_child(["-X", "importtime", "-c", IMPORT_PROBE])
        a = s = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            micros = int(cumulative) / 1e6
            if name.startswith(" adelic"):  # top-level adelic imports
                a += micros
            if name.strip() == "sympy":
                s = micros
        adelic.append(a)
        sympy.append(s)
    return statistics.median(adelic), statistics.median(sympy)


# -- the timed loop ------------------------------------------------------------------


def timed_loop(wl, state, ops, planned: float, tracer=None):
    """Execute the operations one at a time; checks run outside the timed
    region.  Stops early, so the run still ends in time, when the loop takes
    four times the planned seconds.  Returns per-operation seconds, the
    answer checksum and the failures."""
    latencies = []
    digest = hashlib.sha256()
    failures = []
    deadline = time.monotonic() + min(4 * planned + 10, 120)
    for i, op in enumerate(ops):
        if time.monotonic() > deadline:
            print(f"perfbench: time cap reached after {i} of {len(ops)} operations",
                  file=sys.stderr)
            break
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
        t = time.perf_counter()
        try:
            answer = wl.execute(state, op)
            problems = None
        except Exception as exc:  # a failed operation is counted, not fatal
            answer = None
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.enabled = False
        if problems is None:
            try:
                problems = wl.check(state, op, answer)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        digest.update(repr(answer[0] if answer else None).encode())
        if problems:
            failures.append(i)
            print(f"perfbench: operation {i} {op[:2]} failed: {'; '.join(problems)}",
                  file=sys.stderr)
    return latencies, digest.hexdigest(), failures


def percentile(values, fraction):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def untraced_run(wl, seed: int, seconds: float, reference: bool) -> dict:
    rounds = wl.rounds_for(seconds)
    ops = wl.generate(seed, rounds)
    cli = wl.name.startswith("cli-")
    setups = []
    if cli:
        setups = [cold_import_seconds() for _ in range(1 if reference else wl.setup_samples)]
        state = wl.setup(seed, None)
    else:
        if not reference:
            setups = probe_children(wl, seed, wl.setup_samples - 1)
        seconds_taken, state = timed_setup(wl, seed)
        setups.append(seconds_taken)
    latencies, answers, failures = timed_loop(wl, state, ops, rounds * wl.round_seconds)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    wall = sum(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": len(latencies),
        "failed": len(failures),
        "notes": {"samples": len(latencies), "setup_samples": len(setups),
                  "ops_sha256": ops_digest(ops), "answers_sha256": answers},
    }


def traced_run(wl, seed: int, seconds: float) -> dict:
    import tracing

    half = seconds / 2
    ref = run_child([str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed),
                     "--seconds", str(half), "--trace", "0", "--reference"])
    if ref.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {ref.stderr.strip()[-500:]}")
    reference = last_json(ref.stdout)
    adelic_s, sympy_s = import_times()

    tracer = tracing.Tracer()
    rounds = wl.rounds_for(half)
    ops = wl.generate(seed, rounds)
    if wl.name.startswith("cli-"):
        state = {"tracer": tracer}
    else:
        state = timed_setup(wl, seed, lambda: tracing.install(tracer))[1]
    latencies, answers, failures = timed_loop(wl, state, ops, rounds * wl.round_seconds, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.tsv")
    if answers != reference["answers_sha256"]:
        print("perfbench: traced answers differ from the untraced ones", file=sys.stderr)
        failures.append(-1)
    overhead = sum(latencies) / reference["metrics"]["wall_s"]["value"]
    metrics = tracing.per_layer_metrics(tracer, {
        "import.adelic_s": adelic_s, "import.sympy_s": sympy_s,
        "trace.overhead_ratio": overhead,
    })
    return {
        "metrics": metrics,
        "attempted": len(latencies) + reference["attempted"],
        "failed": len(failures) + reference["failed"],
        "notes": {"samples": len(latencies), "ops_sha256": ops_digest(ops),
                  "answers_sha256": answers},
    }


def ops_digest(ops) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adelic" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    import workloads

    # byte-compile up front, as an install would, so no timed import compiles
    compileall.compile_dir(str(SRC), quiet=1)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(wl, args.seed)[0]}))
        return 0
    if args.trace:
        result = traced_run(wl, args.seed, args.seconds)
    else:
        result = untraced_run(wl, args.seed, args.seconds, args.reference)
    notes = result.pop("notes")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"error_rate {rate:.6g} ratio")
    for key, value in notes.items():
        print(f"{key}={value}")
    result = {"correct": result["failed"] == 0 and result["attempted"] > 0, **result}
    if args.reference:
        result["answers_sha256"] = notes["answers_sha256"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
