#!/usr/bin/env python3
"""togglesim benchmark: the real CLI in fresh processes, checked against an oracle.

    python3 perfbench/run.py --workload lfsr16_pipe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 times untraced invocations and reports the end-to-end metrics;
--trace 1 runs the traced in-process replay and reports per-layer metrics.
`--workload all` runs both modes on every workload and prints one table.
The last line of a single-workload run is one JSON object: correct,
attempted, failed and metrics. Inputs come only from --seed; the program
is imported from src/ next to this directory, and every file the run
writes goes to .perfbench_work/<pid>/ there and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from calibration import REFERENCE_S, calibrate, pin_to_one_cpu, scale
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / str(os.getpid())  # one per run: runs may overlap

SETUP_SAMPLES = 9  # fresh interpreters per run for setup_s
MIN_SAMPLES = 5  # invocations timed even when --seconds is short
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "words_per_s": "words/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer self-time metric -> span name recorded by replay.py
LAYER_SPANS = {
    "generators.generate_s": "generators.generate",
    "trace_io.render_s": "trace_io.render",
    "trace_io.parse_s": "trace_io.parse",
    "trace_io.report_s": "trace_io.report",
    "activity.analyze_s": "activity.analyze",
    "encoders.gray_s": "encoders.gray",
    "encoders.businvert_s": "encoders.businvert",
    "transition_counter.run_trace_s": "transition_counter.run_trace",
    "cli.self_s": "cli.main",
}
PER_LAYER_UNITS = {
    **{metric: "s" for metric in LAYER_SPANS},
    "generators.words": "count",
    "trace_io.text_bytes": "B",
    "activity.flips": "count",
    "transition_counter.cycles": "count",
    "encoders.inverted_frac": "ratio",
    "encoders.businvert_saved_frac": "ratio",
    "bits.bytes_per_word": "B",
    "tracing.overhead_frac": "ratio",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}


class BenchmarkError(Exception):
    """The benchmark cannot run here (not a program failure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "togglesim.cli", *args]


# --- processes ------------------------------------------------------------


@dataclass
class ChainResult:
    exit_codes: list[int]
    stdout: str
    cpu_s: float
    peak_rss_mb: float
    wall_s: float
    stderr: str


def run_chain(argvs: list[list[str]], env: dict, timeout: float) -> ChainResult:
    """Run argvs as a pipeline, the last one's stdout captured.

    Each child is reaped with os.wait4, so its CPU time and peak RSS are its
    own; RUSAGE_CHILDREN would mix in every earlier child of this process.
    """
    procs: list[subprocess.Popen] = []
    usages = {}
    lock = threading.Lock()

    def kill_unreaped() -> None:
        with lock:
            for p in procs:
                if p.pid not in usages:
                    os.kill(p.pid, signal.SIGKILL)

    def reap(p: subprocess.Popen) -> None:
        _, status, usage = os.wait4(p.pid, 0)
        with lock:
            usages[p.pid] = usage
        p.returncode = os.waitstatus_to_exitcode(status)

    err_paths = [WORK / f"stderr{i}.txt" for i in range(len(argvs))]
    timer = threading.Timer(timeout, kill_unreaped)
    start = time.perf_counter()
    try:
        stdin = subprocess.DEVNULL
        for argv, err_path in zip(argvs, err_paths):
            with open(err_path, "wb") as err:
                p = subprocess.Popen(argv, cwd=WORK, env=env, stdin=stdin,
                                     stdout=subprocess.PIPE, stderr=err)
            procs.append(p)
            if stdin is not subprocess.DEVNULL:
                stdin.close()
            stdin = p.stdout
        timer.start()
        out = procs[-1].stdout.read()
        procs[-1].stdout.close()
        for p in procs:
            reap(p)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        kill_unreaped()
        for p in procs:
            if p.pid not in usages:
                reap(p)
    return ChainResult(
        exit_codes=[p.returncode for p in procs],
        stdout=out.decode("utf-8", "replace"),
        cpu_s=sum(u.ru_utime + u.ru_stime for u in usages.values()),
        peak_rss_mb=max(u.ru_maxrss for u in usages.values()) / 1024,  # KiB on Linux
        wall_s=wall,
        stderr="".join(p.read_text(errors="replace") for p in err_paths),
    )


# --- set-up ---------------------------------------------------------------

SETUP_CODE = (
    "import time; t = time.perf_counter(); import togglesim.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t, c.__file__)"
)


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """Host seconds for a fresh interpreter to import togglesim.cli and build
    the parser, with the factor to reference seconds; once untimed (it may
    write bytecode caches) and then SETUP_SAMPLES times. Empty if the import
    fails."""
    samples = []
    before = calibrate()
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=WORK, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:  # a program fault: counted as a failed attempt
            sys.stderr.write(done.stderr[-2000:])
            return []
        seconds, path = done.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"togglesim imported from {path.strip()}, not {SRC}")
        after = calibrate()
        samples.append((float(seconds), scale(before, after)))
        before = after
    return samples[1:]


def check_tables(env: dict) -> dict:
    """Run `togglesim tables` once; its computed counts must equal the
    oracle's, and each generator cell's flag must agree with its counts."""
    done = subprocess.run(cli_argv(["tables"]), cwd=WORK, env={**env, "NO_COLOR": "1"},
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.splitlines()
    want = oracle.table_counts()
    counter_ok = counter_right = 0
    for line in lines:
        m = re.match(r"(Binary|Gray) Counter \((\d+)-bit\)\s+(\d+)\s+\S+\s+\S+\s+(\S+)$", line)
        if m:
            counter_right += int(m[3]) == want["counters"][f"{m[1].lower()}{m[2]}"]
            counter_ok += m[4] == "ok"
    labels = {"Internal LFSR": "lfsr_internal", "External LFSR": "lfsr_external",
              "CA-90": "ca90", "CA-150": "ca150"}
    generator_ok = generator_right = 0
    for i, line in enumerate(lines):
        m = re.match(r"(.+?)\s+computed((?:\s+\d+){3})$", line)
        if not m or m[1] not in labels or i + 4 >= len(lines):
            continue
        computed = [int(x) for x in m[2].split()]
        reference = [int(x) for x in lines[i + 1].split()[1:]]
        flags = lines[i + 4].split()[1:]
        generator_right += computed == want["generators"][labels[m[1]]] and flags == [
            "ok" if c == r else "differs" for c, r in zip(computed, reference)
        ]
        generator_ok += flags.count("ok")
    return {
        "correct": done.returncode == 0 and counter_right == 4 and counter_ok == 4
        and generator_right == 4,
        "counter_rows_matched": f"{counter_ok}/4",
        "generator_counts_matched": f"{generator_ok}/12",
    }


# --- end-to-end -----------------------------------------------------------


@dataclass
class Sample:
    """One untraced invocation; times in host seconds, `factor` converts them
    to reference seconds."""

    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    factor: float = 1.0


def invoke(workload: workloads.Workload, env: dict) -> Sample:
    """One untraced invocation of the workload in fresh processes."""
    if workload.spec["kind"] == "probe":
        chains = [[[sys.executable, str(HERE / "replay.py"), "spec.json", "--once"]]]
    else:
        chains = [
            ([cli_argv(step["gen"])] if "gen" in step else []) + [cli_argv(step["analyze"])]
            for step in workload.spec["steps"]
        ]
    results = [run_chain(chain, env, CHILD_TIMEOUT_S) for chain in chains]
    ok = all(
        r.exit_codes == [0] * len(r.exit_codes) and workloads.matches(r.stdout, want)
        for r, want in zip(results, workload.expected)
    )
    if not ok:
        sys.stderr.write(f"{workload.name}: invocation failed or disagrees with the oracle\n")
        sys.stderr.write("".join(r.stderr for r in results)[-2000:])
    return Sample(
        ok=ok,
        wall_s=sum(r.wall_s for r in results),
        cpu_s=sum(r.cpu_s for r in results),
        peak_rss_mb=max(r.peak_rss_mb for r in results),
    )


def measure_end_to_end(workload: workloads.Workload, env: dict, seconds: float) -> dict:
    warm = invoke(workload, env)  # page cache and bytecode; checked, not timed
    attempted, failed = 1, int(not warm.ok)
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while time.perf_counter() < deadline or (len(samples) < MIN_SAMPLES and not failed):
        sample = invoke(workload, env)
        after = calibrate()
        sample.factor, before = scale(before, after), after
        attempted += 1
        if sample.ok:
            samples.append(sample)
        else:
            failed += 1
    setup = measure_setup(env)
    attempted += 1
    failed += not setup
    series = {
        "words_per_s": [workload.words / (s.wall_s * s.factor) for s in samples],
        "cpu_s": [s.cpu_s * s.factor for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": [host_s * factor for host_s, factor in setup],
    }
    host = {
        "words_per_s": [workload.words / s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "setup_s": [host_s for host_s, _ in setup],
        "calibration_ms": [1000 * REFERENCE_S / s.factor for s in samples],
    }
    return {"attempted": attempted, "failed": failed, "series": series, "host": host}


# --- per-layer ------------------------------------------------------------


def measure_layers(workload: workloads.Workload, env: dict, seconds: float) -> dict:
    """Per-layer metrics from the traced replay (medians over traced replays)."""
    child = run_chain([[sys.executable, str(HERE / "replay.py"), "spec.json",
                        "--seconds", str(seconds)]], env, seconds + CHILD_TIMEOUT_S)
    if child.exit_codes != [0]:
        sys.stderr.write(child.stderr[-2000:])
        return {"attempted": 1, "failed": 1, "series": {}}
    result = json.loads(child.stdout)
    attempted = result["replays"]
    outputs_ok = len(result["outputs"]) == len(workload.expected) and all(
        workloads.matches(out, want) for out, want in zip(result["outputs"], workload.expected)
    )
    counts = list(result["counts"].values())
    failed = result["mismatched"] + sum(c != counts[0] for c in counts)
    if not outputs_ok:
        failed = attempted
    factors = {int(run): factor for run, factor in result["factors"].items()}
    per_run = self_times(result["spans"])
    series = {
        metric: [times.get(span, 0.0) * factors[run] for run, times in per_run.items()]
        for metric, span in LAYER_SPANS.items()
    }
    count = counts[0]
    for metric in ("generators.words", "trace_io.text_bytes", "activity.flips",
                   "transition_counter.cycles"):
        series[metric] = [count.get(metric, 0)]
    transfers = count.get("encoders.businvert_transfers", 0)
    series["encoders.inverted_frac"] = [
        count.get("encoders.inverted", 0) / transfers if transfers else 0.0
    ]
    raw = workload.businvert_raw_total
    series["encoders.businvert_saved_frac"] = [
        (raw - count["encoders.businvert_transitions"]) / raw if raw else 0.0
    ]
    series["bits.bytes_per_word"] = [
        result["held_trace_bytes"] / result["held_trace_words"]
    ]
    series["tracing.overhead_frac"] = [
        result["traced_wall_s"] / result["untraced_wall_s"] - 1
    ]
    return {"attempted": attempted, "failed": failed, "series": series}


# --- reporting ------------------------------------------------------------


def describe(values: list[float]) -> str:
    if len(values) == 1:
        return f"{values[0]:.6g} (n=1)"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  (n={len(values)})"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up and run one workload; returns the result object and report lines."""
    if not (SRC / "togglesim" / "cli.py").is_file():
        raise BenchmarkError(f"no togglesim sources at {SRC}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cpu = pin_to_one_cpu()
    try:
        env = child_env()
        workload = workloads.build(name, seed, WORK)
        tables = check_tables(env)
        measure = measure_layers if trace else measure_end_to_end
        measured = measure(workload, env, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    names = list(PER_LAYER_UNITS if trace else END_TO_END_UNITS)
    series = measured["series"]
    metrics = {
        metric: {"value": statistics.median(series[metric]) if series.get(metric) else 0.0,
                 "unit": UNITS[metric]}
        for metric in names
    }
    attempted, failed = measured["attempted"], measured["failed"]
    facts = {
        "workload": name, "seed": seed, "trace": int(trace), "nproc": os.cpu_count(),
        "pinned_cpu": cpu, "python": platform.python_version(),
        "words_per_invocation": workload.words,
        **workload.facts,
    }
    host = measured.get("host", {})
    if host.get("calibration_ms"):
        facts["calibration_ms"] = statistics.median(host["calibration_ms"])
    lines = [
        f"[{name}] facts {json.dumps(facts)}",
        f"[{name}] model accuracy: counter table {tables['counter_rows_matched']} rows, "
        f"generator table {tables['generator_counts_matched']} counts match the "
        f"reference (oracle agrees: {tables['correct']})",
        f"[{name}] failed_frac {failed}/{attempted} = {failed / attempted:.6g}",
    ]
    lines += [f"[{name}] {m} [{UNITS[m]}]: {describe(series[m])}"
              + (f"; host {describe(host[m])}" if m in host else "")
              for m in names if series.get(m)]
    result = {
        "correct": failed == 0 and tables["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload != "all":
            result, lines = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        table, all_correct = [], True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result, lines = run_workload(name, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
                all_correct &= result["correct"]
                failed_frac = result["failed"] / result["attempted"]
                label = "failed_frac (traced replay)" if trace else "failed_frac"
                table.append(f"{name:18} {label:32} {failed_frac:>14.6g} ratio")
                table += [f"{name:18} {m:32} {v['value']:>14.6g} {v['unit']}"
                          for m, v in result["metrics"].items()]
        print(f"\n{'workload':18} {'metric':32} {'median':>14} unit")
        print("\n".join(table))
        print(lines[1].split("] ", 1)[1])  # model accuracy, the same on every run
        print(f"all outputs correct: {all_correct}")
        return 0 if all_correct else 1
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
