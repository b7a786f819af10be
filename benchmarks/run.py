#!/usr/bin/env python3
"""bohrlab benchmark harness.

One single-threaded, closed-loop client: each operation starts only when
the previous one has finished.  Workloads:

  report-all   ``bohrlab report --all --seed 7`` in a fresh interpreter
  cli-queries  a fixed mix of short fresh-interpreter CLI calls
  spec-build   seeded spec construction in this process

Every operation's output is checked (see checks.py).  Times are scaled
to a reference core speed measured while they run (see speed.py); raw
wall times are printed beside them.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the layers are traced from outside (tracer.py) and the metrics are the
per-layer ones.  Run every workload, printing every metric:

    python3 benchmarks/run.py --workload all --seed 7 --seconds 25

Exit status: 0 all outputs correct, 1 an output was wrong, 2 the program
could not be set up (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("report-all", "cli-queries", "spec-build")
#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 5
#: -X importtime probes per traced run; the import metrics are medians.
IMPORTTIME_REPEATS = 3
#: A CLI call running longer than this is killed and counted as failed.
OP_TIMEOUT_S = 150
#: spec-build operations per unit.
SPEC_BATCH = 100
#: The report seed: the ROADMAP's end-to-end definition (see README.md).
REPORT_SEED = 7

#: J ladder of cli-queries; True marks the point where refusing (exit 2)
#: is an accepted answer.  0.99999 and beyond are left out for run cost.
J_LADDER = (("0.0432139", False), ("0.9", False), ("0.99", False),
            ("0.999", False), ("0.9999", False), ("-0.9", False),
            ("-0.99", True))
VERIFY_SUITES = ("algebra", "classical-bohr", "littlewood", "max-modulus",
                 "density-distance", "univalence")

_SUITE_LINE = re.compile(r"^suite (\S+): \d+ checks, \d+ failed, ([\d.]+)s$")


class SetupError(Exception):
    """The program under test could not be imported or run at all."""


class Ops:
    """Samples and failures of the operations of one run.  ``times`` are
    raw wall times, ``norm`` the same at the reference speed (speed.py)."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.times = []
        self.norm = []
        self.failed = 0
        self.suite_s = defaultdict(list)

    def record(self, t0: float, t1: float, problem: str | None,
               what: str) -> float:
        """Record one operation; returns its normalised duration."""
        self.times.append(t1 - t0)
        self.norm.append((t1 - t0) * self.probe.scale(t0, t1))
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print("FAILED %s: %s" % (what, problem), file=sys.stderr)
        return self.norm[-1]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list[str]):
    """Run one child to completion; returns (t0, t1, rc, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                           cwd=ROOT, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:     # run() has killed and reaped it
        return t0, time.perf_counter(), None, "", "timed out"
    return t0, time.perf_counter(), p.returncode, p.stdout, p.stderr


def cli_op(ops: Ops, args: list[str], check, traced: bool = False):
    """One CLI call, timed, checked; returns (normalised duration, trace
    snapshot)."""
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), *args]
    else:
        cmd = [sys.executable, "-m", "bohrlab.cli", *args]
    t0, t1, rc, out, err = _run(cmd)
    snap = None
    if traced and err:
        lines = err.splitlines()
        if lines[-1].startswith(tracer.TRACE_PREFIX):
            snap = json.loads(lines.pop()[len(tracer.TRACE_PREFIX):])
            err = "\n".join(lines)
    if rc is None:
        problem = "timed out after %ds" % OP_TIMEOUT_S
    elif traced and snap is None:
        problem = "no trace"
    else:
        try:
            problem = check(rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = "unreadable output: %s" % exc
    norm = ops.record(t0, t1, problem, " ".join(args))
    for line in err.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            ops.suite_s[m.group(1)].append(float(m.group(2)))
    return norm, snap


# ---------------------------------------------------------------------------
# Set-up


def _setup_cmd(workload: str) -> list[str]:
    if workload == "spec-build":
        return [sys.executable, str(HERE / "specbuild.py")]
    return [sys.executable, "-c", "import bohrlab.cli"]


def measure_setup(workload: str, ops: Ops) -> tuple[list, list]:
    """Raw and normalised times of fresh-interpreter set-ups.  The first,
    untimed, fills the bytecode cache and proves bohrlab imports at all."""
    raw, norm = [], []
    for i in range(SETUP_REPEATS + 1):
        t0, t1, rc, _, err = _run(_setup_cmd(workload))
        if rc != 0:
            raise SetupError("set-up failed (exit %s): %s"
                             % (rc, err.strip()[-500:]))
        if i:
            raw.append(t1 - t0)
            norm.append((t1 - t0) * ops.probe.scale(t0, t1))
    return raw, norm


def import_times() -> dict:
    """Self import time summed by top-level package, from -X importtime."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        _, _, rc, _, err = _run([sys.executable, "-X", "importtime", "-c",
                              "import bohrlab.cli"])
        if rc != 0:
            raise SetupError("import failed: %s" % err.strip()[-500:])
        self_us = defaultdict(int)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue             # the header line
            self_us[fields[2].strip().split(".")[0]] += int(fields[0])
        for pkg in ("scipy", "numpy", "bohrlab"):
            samples[pkg].append(self_us[pkg] / 1e6)
    return {"setup.import.%s_s" % pkg: (statistics.median(v), "s")
            for pkg, v in samples.items()}


# ---------------------------------------------------------------------------
# Workload units: one report, one round of the CLI mix, a batch of specs


def report_unit(ops: Ops, traced: bool):
    return cli_op(ops, ["report", "--all", "--seed", str(REPORT_SEED)],
                  lambda rc, out: checks.check_report(REPORT_SEED, rc, out),
                  traced)


def cli_mix(seed: int) -> list[tuple[list[str], object]]:
    """The fixed call mix; the seed draws the Q point and the suite seeds
    and shuffles the order.  univalence keeps seed 7: its collision search
    takes 0.2 s to 50 s depending on the seed (see README.md)."""
    rng = random.Random(seed)
    counts = {k: v["checks_run"]
              for k, v in checks.report_reference()["suites"].items()}
    mix = [
        (["coeffs", "--order", "20", "--exact"], None),
        (["coeffs", "--order", "200"], None),
        (["bohr-radius"], None),
    ]
    alpha, x, y = rng.uniform(0.8, math.pi), rng.uniform(-0.5, 0.5), \
        rng.uniform(-0.5, 0.5)
    mix.append((["eval", "--fn", "q", "--re", repr(x), "--im", repr(y),
                 "--alpha", repr(alpha)], False))
    mix += [(["eval", "--fn", "j", "--re", re_], refuse)
            for re_, refuse in J_LADDER]
    for suite in VERIFY_SUITES:
        s = 7 if suite == "univalence" else seed
        mix.append((["verify", suite, "--seed", str(s)], counts[suite]))
    rng.shuffle(mix)

    def checker(args, extra):
        if args[0] == "coeffs":
            return lambda rc, out: checks.check_coeffs(args, rc, out)
        if args[0] == "bohr-radius":
            return checks.check_bohr_radius
        if args[0] == "eval":
            return lambda rc, out: checks.check_eval(args, rc, out, extra)
        return lambda rc, out: checks.check_verify(rc, out, extra)

    return [(args, checker(args, extra)) for args, extra in mix]


def cli_round(ops: Ops, mix, traced: bool):
    norm, snaps = 0.0, []
    for args, check in mix:
        dt, snap = cli_op(ops, args, check, traced)
        norm += dt
        snaps.append(snap)
    return norm, (tracer.merge(s for s in snaps if s) if traced else None)


def spec_unit(ops: Ops, seed: int, batch: int, traced: bool):
    """SPEC_BATCH spec-build operations; checks run after the unit so
    that they stay out of the timings and the trace."""
    import specbuild
    tr = tracer.Tracer() if traced else None
    if tr:
        tr.install()
    results = []
    try:
        for i in range(batch * SPEC_BATCH, (batch + 1) * SPEC_BATCH):
            t0 = time.perf_counter()
            out = specbuild.build(specbuild.op_seed(seed, i))
            results.append((t0, time.perf_counter(), out, i))
    finally:
        if tr:
            tr.uninstall()
    norm = sum(ops.record(t0, t1, spec_problem(out), "spec %d" % i)
               for t0, t1, out, i in results)
    return norm, (tr.snapshot() if tr else None)


def spec_problem(out) -> str | None:
    import specbuild
    spec, littlewood, majorant = out
    return checks.check_spec(spec, littlewood, majorant, specbuild.E_PI,
                             specbuild.PROBE)


# ---------------------------------------------------------------------------
# Runs


def run_unit(workload: str, ops: Ops, seed: int, mix, k: int,
             traced: bool):
    """Unit k of a workload; returns (normalised seconds, trace)."""
    if workload == "report-all":
        return report_unit(ops, traced)
    if workload == "cli-queries":
        return cli_round(ops, mix, traced)
    return spec_unit(ops, seed, k, traced)


def untraced(workload: str, seed: int, seconds: float, ops: Ops) -> None:
    """Whole units until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    mix = cli_mix(seed)
    k = 0
    while time.perf_counter() < deadline:
        run_unit(workload, ops, seed, mix, k, False)
        k += 1


def traced(workload: str, seed: int, seconds: float, ops: Ops) -> dict:
    """Alternate untraced and traced units until ``seconds`` have passed.
    The per-layer metrics come from the first traced unit, whose work is
    the same on every run with this seed."""
    deadline = time.perf_counter() + seconds
    mix = cli_mix(seed)
    norm = {False: 0.0, True: 0.0}
    first = None
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        for on in (False, True):
            unit_s, snap = run_unit(workload, ops, seed, mix, 2 * k + on, on)
            norm[on] += unit_s
            if on and first is None:
                first = snap or tracer.merge([])
        k += 1
    metrics = tracer.layer_metrics(first)
    metrics["trace.overhead_ratio"] = (norm[True] / norm[False], "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    if not (SRC / "bohrlab").is_dir():     # never fall back to an install
        raise SetupError("no bohrlab sources in %s" % SRC)
    with SpeedProbe() as probe:
        ops = Ops(probe)
        setup_raw, setup = measure_setup(workload, ops)
        if workload == "spec-build":
            sys.path.insert(0, str(SRC))
            import specbuild
            specbuild.build(specbuild.op_seed(seed,
                                              specbuild.WARM_UP_INDEX))
        if trace:
            metrics = import_times()
            metrics.update(traced(workload, seed, seconds, ops))
        else:
            untraced(workload, seed, seconds, ops)
    if trace:
        notes = dict.fromkeys(metrics, "first traced unit")
        notes.update(dict.fromkeys(
            [k for k in metrics if k.startswith("setup.")],
            "n=%d" % IMPORTTIME_REPEATS))
        notes["trace.overhead_ratio"] = "all units"
        extras = {}
    else:
        if workload == "spec-build":
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        n = len(ops.times)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s_p50": (statistics.median(ops.norm), "s"),
            "ops_per_s": (n / sum(ops.norm), "1/s"),
            "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        }
        notes = dict.fromkeys(metrics, "n=%d" % n)
        notes["setup_s"] = "n=%d" % len(setup)
        extras = {
            "raw.setup_s": (statistics.median(setup_raw), "s"),
            "raw.op_s_p50": (statistics.median(ops.times), "s"),
            "raw.ops_per_s": (n / sum(ops.times), "1/s"),
            "ops_failed_ratio": (ops.failed / n, "ratio"),
        }
        if n >= 100:
            extras["op_s_p90"] = (statistics.quantiles(ops.norm, n=10)[-1],
                                  "s")
        for suite, times in sorted(ops.suite_s.items()):
            if suite in ("theorem4", "von-neumann", "harmonic"):
                extras["raw.suite_s." + suite] = (statistics.median(times),
                                                  "s")
        notes.update(dict.fromkeys(extras, "n=%d, not gated" % n))
        notes["raw.setup_s"] = "n=%d, not gated" % len(setup)
    for name, (value, unit) in {**metrics, **extras}.items():
        print("%-12s %-44s %14.6g %-6s %s"
              % (workload, name, value, unit, notes[name]))
    return {
        "correct": ops.failed == 0,
        "attempted": len(ops.times),
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        # One process per workload, so that peak RSS is per workload.
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for name in WORKLOADS)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
