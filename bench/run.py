"""hadstab benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload experiments|verdict-scan|branch-sets \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Inputs
are generated from the seed before any timed region, each item is timed
alone, and outputs are checked after timing.  The item set is fixed by the
seed and S, and is run ROUNDS times in a fresh order each round, for about S
seconds of item time in all.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, items per second, per-item p50/p90 latency, the share of items
answered correctly, and peak RSS.  Times are normalized to host speed (see
``hostspeed.py``); the raw figures go to the result file.  ``--trace 1``
runs the workload's trace set untraced and traced (see ``trace.py``) and
reports the per-layer metrics and the tracing overhead, in raw time.  The
last line of stdout is one JSON object; a result file with the environment
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

MIN_ITEMS = 100
ROUNDS = 2
WALL_CAP_S = 110.0  # no further round starts after this much wall time
SETUP_PROBES = 4  # fresh-interpreter probes after each round
IMPORT_PROBES = 5
IMPORT_CODE = "import hadstab.cli as cli; cli.build_parser()"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_probes(probes: int, host: HostSpeed) -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters importing the CLI and building its
    parser, with host-speed samples around each."""
    spans = []
    for _ in range(probes):
        host.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], env=_child_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        spans.append((t0, perf_counter()))
        host.sample()
    return spans


def import_split_ms() -> tuple[float, float]:
    """Median (numpy, rest of hadstab) import milliseconds from ``-X importtime``."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                              env=_child_env(), cwd=ROOT, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        numpy_us = top_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # header line
            if name.strip() == "numpy":
                numpy_us += int(cumulative)
            if name.startswith(" hadstab"):  # top level: one space of indent
                top_us += int(cumulative)
        numpy_ms.append(numpy_us / 1e3)
        own_ms.append((top_us - numpy_us) / 1e3)
    return statistics.median(numpy_ms), statistics.median(own_ms)


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_items(items, tracer=None, host=None):
    from workloads import Result

    results = []
    for item in items:
        if host is not None:
            host.sample()
        if tracer is not None:
            tracer.start_item(item.id)
        t0 = perf_counter()
        try:
            output = item.call()
        except Exception as exc:  # recorded and classified by the caller
            results.append(Result(item, perf_counter() - t0, error=exc, start=t0))
            continue
        results.append(Result(item, perf_counter() - t0, output, start=t0))
    return results


def run_shuffled(items, rng, host):
    """Run the items in an order drawn from ``rng``; results in item order.
    A fresh order each round puts an item's repeats, and the items of one
    kind, in different stretches of host load."""
    order = list(range(len(items)))
    rng.shuffle(order)
    results = [None] * len(items)
    for i, result in zip(order, run_items([items[i] for i in order], host=host)):
        results[i] = result
    return results


def merge(rounds, host=None):
    """One result per item from rounds over the same items: the median time
    (host-normalized when ``host`` is given), the first error, and the first
    round's output.  An output that changes between rounds is an error."""
    from workloads import Result

    merged = []
    for repeats in zip(*rounds):
        first = repeats[0]
        error = next((r.error for r in repeats if r.error is not None), None)
        if error is None and any(r.output != first.output for r in repeats):
            error = RuntimeError("output changed between repeats")
        times = [
            r.seconds * (host.scale(r.start, r.start + r.seconds) if host else 1.0)
            for r in repeats
        ]
        merged.append(Result(first.item, statistics.median(times), first.output, error))
    return merged


def classify(wl, results, warm, refusals) -> tuple[list[dict], bool]:
    """Per-item failures, and whether every failure is an honest refusal or a
    known wrong verdict (no crash, no new wrong answer)."""
    from workloads import KNOWN_WRONG

    failures, correct = [], True
    for r, wrong in zip(results, wl.check(results, warm)):
        if r.error is not None:
            refused = isinstance(r.error, refusals)
            correct &= refused
            failures.append({"item": r.item.id, "kind": "refused" if refused else "crash",
                             "detail": f"{type(r.error).__name__}: {r.error}"})
        elif wrong is not None:
            known = r.item.id in KNOWN_WRONG
            correct &= known
            failures.append({"item": r.item.id, "kind": "known-wrong" if known else "wrong",
                             "detail": wrong})
    return failures, correct


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(results, failed: int, setup: list[float], peak_rss_mb: float) -> dict:
    ms = [1e3 * r.seconds for r in results]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "item_ms_p50": (percentile(ms, 50), "ms"),
        "item_ms_p90": (percentile(ms, 90), "ms"),
        "ok_frac": ((len(results) - failed) / len(results), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def end_to_end(wl, seconds: float, seed: int, warm, refusals):
    """ROUNDS rounds over one item set.  The set is fixed by the seed and by
    ``seconds`` (passes of nominal length wl.pass_seconds, at least
    MIN_ITEMS items), never by the measured speed, so every run has the same
    composition.  Set-up probes are spread over the rounds."""
    passes = max(1, round(seconds / ROUNDS / wl.pass_seconds))
    items, k = [], 0
    while k < passes or len(items) < MIN_ITEMS:
        items += wl.pass_items(k)
        k += 1
    host = HostSpeed()
    rounds, probes = [], []
    t0 = perf_counter()
    for r in range(ROUNDS):
        rounds.append(run_shuffled(items, random.Random(f"order:{r}:{seed}"), host))
        probes += setup_probes(SETUP_PROBES, host)
        if perf_counter() - t0 > WALL_CAP_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = merge(rounds, host)
    failures, correct = classify(wl, results, warm, refusals)
    setup = [(end - start) * host.scale(start, end) for start, end in probes]
    metrics = summarize(results, len(failures), setup, peak_rss_mb)
    raw = summarize(merge(rounds), len(failures), [end - start for start, end in probes], peak_rss_mb)
    extra = {"raw_metrics": {name: value for name, (value, _) in raw.items()},
             "host_kernel_ms": host.median_ms()}
    return results, failures, correct, metrics, extra


def traced(wl, warm, refusals, spans_path: Path):
    """The trace set twice untraced and twice traced, alternating.  Per-layer
    metrics come from the last traced round; the overhead compares the
    median traced and untraced time of each item."""
    from trace import Tracer, layer_metrics, unit_of

    items = [item for k in range(wl.trace_passes) for item in wl.pass_items(k)]
    plain, with_spans = [], []
    tracer = Tracer()
    for _ in range(2):
        plain.append(run_items(items))
        tracer.spans.clear()
        tracer.install()
        try:
            with_spans.append(run_items(items, tracer))
        finally:
            tracer.uninstall()
    tracer.dump(spans_path)
    results = merge(with_spans + plain)
    failures, correct = classify(wl, results, warm, refusals)
    classes = {r.item.id: r.item.meta.get("cls") for r in results}
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer, classes).items()}
    numpy_ms, own_ms = import_split_ms()
    metrics["setup.numpy_ms"] = (numpy_ms, "ms")
    metrics["setup.hadstab_ms"] = (own_ms, "ms")
    overhead = sum(r.seconds for r in merge(with_spans)) - sum(r.seconds for r in merge(plain))
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    return results, failures, correct, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hadstab" / "__init__.py").is_file():
        print(f"error: no hadstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hadstab
    import hadstab.cli

    if Path(hadstab.__file__).resolve().parent != SRC / "hadstab":
        print(f"error: imported hadstab from {hadstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Refused

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refusals = (hadstab.HadstabError, Refused)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](hadstab, args.seed, work)
        warm = run_items(wl.warmup())
        if args.trace:
            run = traced(wl, warm, refusals, OUT / f"{stem}-spans.json")
        else:
            run = end_to_end(wl, args.seconds, args.seed, warm, refusals)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results, failures, correct, metrics, extra = run

    summary = {
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**summary, **extra, "environment": environment(args), "failures": failures,
              "item_seconds": {r.item.id: r.seconds for r in results}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for failure in failures:
        print(f"# {failure['kind']}: {failure['item']}: {failure['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value if value is not None else 'null':>16} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
