#!/usr/bin/env python3
"""The dynel benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload anchored-attn --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as JSON: whether every
check passed, the operations attempted and failed, and the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  Each result is also appended to
``perfbench/out/results.jsonl``; compare two such files with

    python3 perfbench/run.py --compare BASE.jsonl [CURRENT.jsonl]

See ``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RESULTS = OUT / "results.jsonl"
# One BLAS thread: the workloads are single-threaded, and the pin must be set
# before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="RESULTS",
                        help="BASE [CURRENT]: medians per workload and metric, "
                             "regressions beyond the bounds in BENCHMARK.json flagged")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload or --compare is required")
    if args.compare is not None and len(args.compare) > 2:
        parser.error("--compare takes BASE and at most one CURRENT file")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare is not None:
        import compare
        current = Path(args.compare[1]) if len(args.compare) > 1 else RESULTS
        return compare.main(ROOT / "BENCHMARK.json", Path(args.compare[0]), current)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dynel" / "__init__.py").is_file():
        print(f"error: no dynel sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import measure
    from spans import Tracer
    from workloads import WORKLOADS, write_corpus

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{w.name}-s{args.seed}-{os.getpid()}"
    try:
        write_corpus(w, args.seed, work / "corpus")
        corpus_dir, ckpt = work / "corpus", work / "model.npz"
        if args.trace == 0:
            out = measure.run(w, args.seed, corpus_dir, ckpt, args.seconds, w.setup_repeats)
            runs = [out]
            metrics = out.end_to_end()
            extra = {"uncorrected": {name: value for name, (value, _)
                                     in out.end_to_end(speed_corrected=False).items()},
                     "rounds": {name: {"wall_s": phase.wall_s, "probes_s": phase.probes}
                                for name, phase in (("setup", out.setup), ("train", out.train),
                                                    ("dynamic", out.dynamic),
                                                    ("offset", out.offset))}}
        else:
            # One cycle untraced, then the same cycle traced: the calls repeat
            # exactly, and the wall-time difference is the tracing overhead.
            plain = measure.run(w, args.seed, corpus_dir, ckpt, 0, 1)
            tracer = Tracer()
            with tracer.installed():
                traced = measure.run(w, args.seed, corpus_dir, ckpt, 0, 1, tracer)
            tracer.write(OUT / f"trace-{w.name}-s{args.seed}.jsonl")
            runs = [plain, traced]
            extra = {}
            if traced.digest != plain.digest:
                traced.count(0, {"links differ from the untraced run":
                                 range(traced.attempted)}, "traced run")
            metrics = tracer.layer_metrics()
            metrics["trace.train_coverage"] = (tracer.coverage("bench.train"), "share")
            metrics["trace.link_coverage"] = (tracer.coverage("bench.link"), "share")
            overhead = traced.timed_s() - plain.timed_s()
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_share"] = (overhead / plain.timed_s(), "share")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for problem in (p for r in runs for p in r.problems):
        print(f"FAILED CHECK: {problem}")
    notes = "".join(f" {k}={v:.4f}" for k, v in runs[0].notes.items())
    print(f"# workload={w.name} seed={args.seed} trace={args.trace} "
          f"links_sha256={runs[0].digest}{notes}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS, "a") as fh:
        fh.write(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, "links_sha256": runs[0].digest,
                             **result, **extra}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
