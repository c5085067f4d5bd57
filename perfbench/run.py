"""eigenchain benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload simplicial-z --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a source checkout and imports eigenchain from its
``src`` directory.  One process, one thread, one caller in a closed loop:
each op starts when the previous one has returned.  The workload's inputs
are built from ``--seed`` (several times, to time set-up), then its ops
run round-robin for ``--seconds``, and at least until every op has run
once and every op kind has MIN_SAMPLES samples.  Every output is then
checked against an answer eigenchain did not compute.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
one untraced pass over the ops is followed by traced passes (whole passes,
at least one, for ``--seconds``), and the per-layer metrics are reported
per pass; spans are written to ``perfbench/out``.  The last line of
standard output is the JSON result; metric names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from refkernel import REF_NOMINAL_S, RefMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3  # at least; set-up repeats until SETUP_SECONDS have passed, at most SETUP_MAX times
SETUP_SECONDS = 3.0
SETUP_MAX = 400
MIN_SAMPLES = 100  # a p90 needs ten samples beyond it
WORKLOAD_NAMES = ("simplicial-z", "random-q", "random-z", "reverify")


def _load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def _import_eigenchain():
    if not (SRC / "eigenchain" / "__init__.py").is_file():
        raise SystemExit(f"error: no eigenchain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigenchain

    if Path(eigenchain.__file__).resolve().parent != SRC / "eigenchain":
        raise SystemExit(f"error: imported eigenchain from {eigenchain.__file__}, not {SRC}")


# -- running ops ---------------------------------------------------------------


class Results:
    """Timings and distinct outputs of the ops run.

    Op times are kept in ref units (see refkernel): each op's seconds are
    divided by the median of the kernel timings taken just before and just
    after it.
    """

    def __init__(self):
        self.meter = RefMeter()
        self.samples = {kind: self.meter.refs[kind] for kind in ("main", "aux")}  # ref units
        self.outputs: Counter = Counter()  # (op index, output) -> times seen
        self.errors: list[str] = []
        self.attempted = 0
        self.seconds = 0.0  # wall-clock seconds inside ops

    def run(self, index: int, op):
        self.attempted += 1
        t0 = perf_counter()
        try:
            raw = op.run()
            took = perf_counter() - t0
            out = op.settle(raw)
        except Exception:  # a failing op is counted, reported and the loop goes on
            self.errors.append(f"op {index} ({op.kind}):\n{traceback.format_exc()}")
        else:
            self.seconds += took
            self.meter.add(op.kind, took)
            self.outputs[(index, out)] += 1

    def refs(self) -> float:
        """Total op time in ref units."""
        return sum(sum(s) for s in self.samples.values())


def run_setup(setup, seed: int, workdir: Path):
    """Set the workload up SETUP_REPEATS times or more, for at least SETUP_SECONDS.

    Returns the ops of the last repeat (each repeat rewrites the same
    files), the ref time of each repeat and its wall-clock seconds.  The
    setup calls ``tick`` between its steps; the time since the previous
    tick goes to the meter, which times the reference kernel in between.
    """
    meter = RefMeter()
    seconds: list[float] = []  # kernel timings left out
    while len(seconds) < SETUP_MAX and (len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SECONDS):
        repeat, mark = len(seconds), perf_counter()
        seconds.append(0.0)

        def tick():
            nonlocal mark
            took = perf_counter() - mark
            seconds[repeat] += took
            meter.add(repeat, took)
            mark = perf_counter()

        ops = setup(seed, workdir, tick)
        tick()
    meter.flush()
    return ops, [sum(meter.refs[i]) for i in range(len(seconds))], seconds


def run_timed(ops, seconds: float) -> Results:
    res = Results()
    attempts = Counter()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        index = i % len(ops)
        res.run(index, ops[index])
        attempts[ops[index].kind] += 1
        i += 1
        done = i >= len(ops) and all(attempts[k] >= MIN_SAMPLES for k in res.samples)
        if done and perf_counter() >= deadline:
            res.meter.flush()
            return res


def run_traced(ops, seconds: float, tracer):
    reference = Results()
    for index, op in enumerate(ops):
        reference.run(index, op)
    reference.meter.flush()
    traced = Results()
    passes = 0
    tracer.install()
    try:
        deadline = perf_counter() + seconds
        while passes == 0 or perf_counter() < deadline:
            for index, op in enumerate(ops):
                tracer.op = traced.attempted
                traced.run(index, op)
            passes += 1
    finally:
        tracer.uninstall()
    traced.meter.flush()
    return reference, traced, passes


# -- checking ------------------------------------------------------------------


def check_outputs(ops, results: Results):
    """(failed, unchecked, messages) over every op run, errors included."""
    from workloads import OK, UNCHECKED

    failed, unchecked, messages = len(results.errors), 0, list(results.errors)
    for (index, out), seen in results.outputs.items():
        try:
            status = ops[index].check(out)
        except Exception:
            status = f"check raised:\n{traceback.format_exc()}"
        if status == UNCHECKED:
            unchecked += seen
        elif status != OK:
            failed += seen
            messages.append(f"op {index} ({ops[index].kind}): {status}")
    return failed, unchecked, messages


# -- metrics -------------------------------------------------------------------


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def _certificates(ops, results: Results) -> list[bytes]:
    """The certificate each op made or checked, once per op."""
    certs = {}
    for index, out in results.outputs:
        data = ops[index].certificate(out)
        if data is not None:
            certs[index] = data
    return list(certs.values())


def witness_bits(certs) -> list[int]:
    """Bit lengths of the nonzero entries of every shipped witness homotopy and eigenmap."""
    from independent import entry_bits

    bits = []
    for data in certs:
        witness = json.loads(data).get("witness")
        if witness:
            for part in ("homotopy", "alpha"):
                for block in witness[part]["blocks"]:
                    bits.extend(entry_bits(v) for row in block["entries"] for v in row if v != "0")
    return bits


def end_to_end(ops, results: Results, setup_refs) -> dict[str, float]:
    main, aux = results.samples["main"], results.samples["aux"]
    metrics = {
        "setup_s": REF_NOMINAL_S * statistics.median(setup_refs),
        "main_ref_p50": statistics.median(main),
        "main_ref_p90": _p90(main),
        "aux_ref_p50": statistics.median(aux),
        "aux_ref_p90": _p90(aux),
        "ops_per_kref": 1000 * (len(main) + len(aux)) / results.refs(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics["cert_kib"] = statistics.fmean(len(c) for c in _certificates(ops, results)) / 1024
    return metrics


def per_layer(ops, reference: Results, traced: Results, passes: int, tracer) -> tuple[dict, dict]:
    """Per-layer metrics (counts per pass over the ops) and the full function table."""
    table = tracer.per_function()
    c = tracer.counts
    m = {}
    for name, row in table.items():
        m[f"{name}.calls"] = row["calls"] / passes
        m[f"{name}.self_pct"] = 100 * row["self_s"] / traced.seconds

    def calls(name):
        return table[name]["calls"]

    traced_refs = traced.refs()
    ops_per_pass = len(ops)
    mults = c["matrix.matmul.mults"]
    m["matrix.matmul.mults"] = mults / passes
    m["matrix.matmul.nonzero_ratio"] = c["matrix.matmul.nonzero_products"] / mults if mults else 0.0
    m["linalg.eliminations_per_op"] = (calls("linalg.rref") + calls("linalg.smith_normal_form")) / passes / ops_per_pass
    m["linalg.elim_cells"] = c["linalg.elim_cells"] / passes
    m["linalg.rref.max_bits"] = c["linalg.rref.max_bits"]
    m["linalg.smith_normal_form.max_bits"] = c["linalg.smith_normal_form.max_bits"]
    m["complexes.validate_complex.per_op"] = calls("complexes.validate_complex") / passes / ops_per_pass
    m["decompose.decompose.per_op"] = calls("decompose.decompose") / passes / ops_per_pass
    contractible = calls("cones.is_contractible")
    m["cones.is_contractible.hit_ratio"] = c["cones.is_contractible.true"] / contractible if contractible else 0.0
    outer = c["certify.outer_calls"]
    m["certify.positive_ratio"] = c["certify.positive"] / outer if outer else 0.0
    m["formats.bytes_in"] = (c["formats.bytes_in"] + sum(op.bytes_in for op in ops) * passes) / passes
    m["formats.bytes_out"] = c["formats.bytes_out"] / passes
    bits = witness_bits(_certificates(ops, traced))
    m["witness_max_bits"] = max(bits, default=0)
    m["witness_bits_mean"] = statistics.fmean(bits) if bits else 0.0
    m["trace.pass_kref"] = traced_refs / passes / 1000
    m["trace.overhead_ratio"] = (traced_refs / passes) / reference.refs()
    return m, table


# -- entry points ----------------------------------------------------------------


def run_workload(args) -> int:
    _import_eigenchain()
    from tracing import Tracer
    from workloads import WORKLOADS

    e2e_units, layer_units = _load_spec()
    setup = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops, setup_refs, setup_seconds = run_setup(setup, args.seed, Path(tmp))
        if args.trace:
            tracer = Tracer()
            reference, results, passes = run_traced(ops, args.seconds, tracer)
            metrics, table = per_layer(ops, reference, results, passes, tracer)
            units = layer_units
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
            print(f"untraced pass {reference.seconds:.3f} s, traced {results.seconds / passes:.3f} s/pass"
                  f" over {passes} passes", file=sys.stderr)
            for name, row in table.items():
                print(f"  {name:40s} calls/pass {row['calls'] / passes:10.1f}  self {row['self_s'] / passes:9.4f} s/pass",
                      file=sys.stderr)
            runs = [reference, results]
        else:
            results = run_timed(ops, args.seconds)
            metrics = end_to_end(ops, results, setup_refs)
            units = e2e_units
            runs = [results]
    failed = unchecked = attempted = 0
    messages = []
    for res in runs:
        res_failed, res_unchecked, res_messages = check_outputs(ops, res)
        failed, unchecked, attempted = failed + res_failed, unchecked + res_unchecked, attempted + res.attempted
        messages += res_messages
    for text in messages[:5]:
        print(text, file=sys.stderr)
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
    for name, value in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {units[name]}")
    print(
        f"{args.workload} ops: {attempted} attempted, {failed} failed "
        f"(fail_ratio {failed / attempted:.4g}), {unchecked} with no independent answer"
    )
    print(f"{args.workload} set-up: {len(setup_seconds)} repeats, median {statistics.median(setup_seconds):.4g} s wall clock")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Run every workload in its own process and print each metric."""
    combined = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exit code {proc.returncode}, no result", file=sys.stderr)
            ok = False
            continue
        combined[name] = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and combined[name]["correct"]
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
