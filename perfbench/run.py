"""Benchmark of the autgates pipeline: one workload per process.

    python3 perfbench/run.py --workload bb72-gates --seed 1 --seconds 8 --trace 0

Runs from the root of a source checkout and imports the program from its
``src/``.  A closed loop with one client issues whole rounds of jobs until
the timed job time reaches --seconds, checks every job's output outside
the timed region, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  --trace 0 gives
the end-to-end metrics; --trace 1 reruns the same workload with the
program's public functions wrapped and gives the per-layer metrics.
Exits 2 without a result when the program's sources are missing.

Times are rescaled to a reference machine speed.  On a shared machine
the same job can take twice as long from one minute to the next, so a
fixed reference loop is timed before, during and after every job and
set-up step, and each measured time is rescaled by those loop times
(see clock.py).  The raw wall-clock figures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from clock import Clock, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
    "import autgates.cli; raw = time.perf_counter() - start; "
    "import clock; print(raw, raw * clock.scale_now())"
)


def _import_program() -> None:
    """Import autgates from ROOT/src, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import autgates
    import autgates.cli  # noqa: F401

    if src not in Path(autgates.__file__).resolve().parents:
        raise ImportError("autgates was not imported from %s" % src)


def _import_probe() -> tuple[float, float]:
    """Raw and rescaled seconds of `import autgates.cli` in a fresh interpreter.

    The child rescales with reference loops of its own, run right after
    the import on the same CPU.
    """
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    raw, scaled = probe.stdout.split()
    return float(raw), float(scaled)


def _medians(pairs) -> tuple[float, float]:
    """Medians of the raw and of the rescaled seconds of repeated steps."""
    return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)


def _quantile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _self_ms(tracer, scales: list[float]) -> dict[str, float]:
    """Rescaled self time per job in ms for every span name."""
    out: dict[str, float] = {}
    for (job, name), seconds in tracer.self_times().items():
        if job is not None:
            out[name] = out.get(name, 0.0) + seconds * scales[job] * 1000.0 / len(scales)
    return out


def _layer_metrics(tracer, scales: list[float], job_s: float) -> dict[str, tuple[float, str]]:
    jobs = len(scales)
    self_ms = _self_ms(tracer, scales)
    counts = tracer.counts

    def ms(span):
        return self_ms.get(span, 0.0), "ms"

    def per_job(name):
        return counts.get(name, 0) / jobs, "count"

    synth = counts.get("logsearch.synth.calls", 0)
    cands = counts.get("embedded.candidates", 0)
    word_len = counts.get("logsearch.word_factors", 0) / synth if synth else 0.0
    accepted = (cands - counts.get("embedded.rejected", 0)) / cands if cands else 0.0
    return {
        "cli.self_ms": ms("cli"),
        "stabilizer.tableau_ms": ms("stabilizer.tableau"),
        "stabilizer.tableau_calls": per_job("stabilizer.tableau.calls"),
        "binrep.ms": ms("binrep"),
        "binrep.matrix_cells": per_job("binrep.matrix_cells"),
        "autsearch.ms": ms("autsearch"),
        "autsearch.calls": per_job("autsearch.calls"),
        "autsearch.nodes": per_job("autsearch.nodes"),
        "autsearch.generators": per_job("autsearch.generators"),
        "cliffordmap.lift_ms": ms("cliffordmap.lift"),
        "cliffordmap.lift_gates": per_job("cliffordmap.lift_gates"),
        "cliffordmap.correct_ms": ms("cliffordmap.correct"),
        "cliffordmap.correct_calls": per_job("cliffordmap.correct.calls"),
        "cliffordmap.correct_gate_rows": per_job("cliffordmap.correct_gate_rows"),
        "cliffordmap.verify_ms": ms("cliffordmap.verify"),
        "cliffordmap.verify_calls": per_job("cliffordmap.verify.calls"),
        "logsearch.discover_ms": ms("logsearch.discover"),
        "logsearch.add_ms": ms("logsearch.add"),
        "logsearch.add_calls": per_job("logsearch.add.calls"),
        "logsearch.add_grew": per_job("logsearch.add_grew"),
        "logsearch.synth_ms": ms("logsearch.synth"),
        "logsearch.synth_calls": per_job("logsearch.synth.calls"),
        "logsearch.word_len": (word_len, "factors"),
        "permgroup.sift_calls": per_job("permgroup.sift_calls"),
        "permgroup.inverse_calls": per_job("permgroup.inverse_calls"),
        "permgroup.orbit_points": per_job("permgroup.orbit_points"),
        "gf2.invert_calls": per_job("gf2.invert_calls"),
        "gf2.rref_calls": per_job("gf2.rref_calls"),
        "gf2.mat2_calls": per_job("gf2.mat2_calls"),
        "circuits.conjugate_calls": per_job("circuits.conjugate_calls"),
        "pauli.allocs": per_job("pauli.allocs"),
        "embedded.self_ms": ms("embedded"),
        "embedded.interpret_ms": ms("embedded.interpret"),
        "embedded.sound_ms": ms("embedded.sound"),
        "embedded.candidates": per_job("embedded.candidates"),
        "embedded.rejected": per_job("embedded.rejected"),
        "embedded.accept_ratio": (accepted, "ratio"),
        "job.self_ms": ms("job"),
        "trace.job_ms": (job_s * 1000.0 / jobs, "ms"),
        "trace.jobs_per_s": (jobs / job_s, "1/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print("cannot import the program: %s" % exc, file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    work = out_dir / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.make(args.workload, work, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    import_raw, import_s = _medians([_import_probe() for _ in range(SETUP_REPEATS)])
    clock = Clock(tracer)
    prepared = [clock.time(wl.prepare)[1:] for _ in range(SETUP_REPEATS)]
    prepare_raw, prepare_s = _medians([(raw, raw * scale) for raw, scale in prepared])
    _, once_raw, scale = clock.time(wl.setup_once)
    setup_s = import_s + prepare_s + once_raw * scale
    setup_raw = import_raw + prepare_raw + once_raw
    wl.prepare_inputs()
    if tracer is not None:
        tracer.counts.clear()

    raw_times: list[float] = []
    scales: list[float] = []
    gate_counts: list[int] = []
    failed = wrong = 0
    clock.last = reference_loop()  # the untimed input preparation may be long
    while sum(raw_times) < args.seconds:
        for job in wl.round():
            run = job.run if tracer is None else tracer.job_span(len(raw_times), job.run)
            result, raw, scale = clock.time(run)
            raw_times.append(raw)
            scales.append(scale)
            try:
                gate_counts.extend(job.check(result))
            except workloads.JobFailed as exc:
                failed += 1
                print("FAILED %s: %s" % (job.label, exc), file=sys.stderr)
            except (workloads.CheckError, KeyError, ValueError) as exc:
                failed += 1
                wrong += 1
                print("WRONG %s: %s" % (job.label, exc), file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    late = wl.finish()
    failed += late
    wrong += late

    jobs = len(raw_times)
    job_s = [t * k for t, k in zip(raw_times, scales)]
    if tracer is not None:
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
        metrics = _layer_metrics(tracer, scales, sum(job_s))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": ((jobs - failed) / sum(job_s), "1/s"),
            "job_ms_p50": (statistics.median(job_s) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "circuit_gates": (statistics.fmean(gate_counts) if gate_counts else 0.0, "gates"),
        }
    # a tail is a tail only with ten samples beyond it
    tail = ""
    if jobs >= 100:
        tail = " p90 %.2f ms (raw %.2f ms)" % (
            _quantile(job_s, 0.9) * 1000.0, _quantile(raw_times, 0.9) * 1000.0
        )
    print(
        "%s seed=%d jobs=%d failed=%d; raw: timed %.2f s, p50 %.2f ms, setup %.3f s "
        "(import %.3f, prepare %.3f, once %.3f); mean scale %.3f;%s"
        % (args.workload, args.seed, jobs, failed, sum(raw_times),
           statistics.median(raw_times) * 1000.0,
           setup_raw, import_raw, prepare_raw, once_raw, statistics.fmean(scales), tail),
        file=sys.stderr,
    )
    if tracer is not None:
        self_ms = _self_ms(tracer, scales)
        sampling = self_ms.pop("sample", 0.0)
        shares = ", ".join(
            "%s %.1f%%" % (name, 100.0 * v / sum(self_ms.values()))
            for name, v in sorted(self_ms.items(), key=lambda kv: -kv[1])
        )
        print(
            "self time per job: layers %.2f ms, traced job %.2f ms, speed samples %.2f ms; %s"
            % (sum(self_ms.values()), sum(job_s) * 1000.0 / jobs, sampling, shares),
            file=sys.stderr,
        )
    result = {
        "correct": wrong == 0,
        "attempted": jobs,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
