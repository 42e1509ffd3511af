"""Runs one workload of the benchmark in a fresh JVM and prints its result.

    python3 hivebench/run.py --workload tpcds_llap --seed 1 --seconds 5 --trace 0
    python3 hivebench/run.py --selftest

The first call builds the program (see build.py); later calls reuse the
prebuilt classes. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, with
the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1, named and ordered as in BENCHMARK.json, which also gives their
units. Logs go to standard error. Everything the run writes stays under
`.bench_build/` of the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("tpcds_llap", "ssb_druid", "acid_dml")
# The JVM is killed past this, so that a run ends within 180 s.
JVM_TIMEOUT_S = 170
MAX_CORES = 4

JAVA_OPTS = [
    "-Xmx3g",
    "-XX:-UsePerfData",
    "-XX:+UseG1GC",
    "-Dspark.ui.enabled=false",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def load_spec():
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def name_metrics(result, trace, spec):
    """Returns `result` with each measured metric given its unit from
    `spec` (BENCHMARK.json), in the catalogue's order. Every end-to-end
    metric must have been measured; a per-layer metric the workload does
    not cross reads 0. A name outside the catalogue is an error."""
    catalogue = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in catalogue}
    if unknown:
        raise ValueError(f"metrics outside BENCHMARK.json: {', '.join(sorted(unknown))}")
    metrics = {}
    for m in catalogue:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif trace:
            value = 0.0
        else:
            raise ValueError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return dict(result, metrics=metrics)


def selftest(spec):
    """Tests name_metrics; returns the number of failures."""
    failures = 0

    def test(name, body):
        nonlocal failures
        try:
            body()
            print(f"ok   {name}")
        except Exception as e:  # noqa: BLE001 - a failing test of any kind
            failures += 1
            print(f"FAIL {name}: {e!r}")

    def raises(body):
        try:
            body()
        except ValueError:
            return
        raise AssertionError("no ValueError")

    e2e = {m["name"]: 1.5 for m in spec["end_to_end"]}
    first = spec["per_layer"][0]

    def all_end_to_end():
        got = name_metrics({"correct": True, "metrics": e2e}, 0, spec)["metrics"]
        assert list(got) == [m["name"] for m in spec["end_to_end"]], list(got)
        assert all(got[m["name"]] == {"value": 1.5, "unit": m["unit"]} for m in spec["end_to_end"])

    def per_layer_filled():
        got = name_metrics({"metrics": {first["name"]: 3.5}}, 1, spec)["metrics"]
        assert list(got) == [m["name"] for m in spec["per_layer"]], list(got)
        assert got[first["name"]] == {"value": 3.5, "unit": first["unit"]}
        assert all(v["value"] == 0.0 for k, v in got.items() if k != first["name"])

    test("end-to-end metrics get their units, in catalogue order", all_end_to_end)
    test("absent per-layer metrics read 0", per_layer_filled)
    test("an unmeasured end-to-end metric is an error", lambda: raises(
        lambda: name_metrics({"metrics": dict(list(e2e.items())[1:])}, 0, spec)))
    test("a metric outside the catalogue is an error", lambda: raises(
        lambda: name_metrics({"metrics": {**e2e, "no_such_metric": 1.0}}, 0, spec)))
    return failures


def cores():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(MAX_CORES, n))


def run_jvm(cp, main, args, work):
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    cmd = [build.java_bin()] + JAVA_OPTS + [
        f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(build.BENCH_DIR, 'log4j2.properties')}",
        "-cp", cp, main] + args
    # Spark takes its scratch directories from this variable before its conf
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[hivebench] killed after {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 3, []
    return proc.returncode, out.splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests instead of a workload")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    spec = load_spec()
    try:
        cp = build.build()
    except build.BuildError as e:
        print(f"[hivebench] build failed: {e}", file=sys.stderr)
        return 2

    name = "selftest" if a.selftest else f"{a.workload}-{a.seed}"
    work = os.path.join(build.OUT_ROOT, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if a.selftest:
            code, lines = run_jvm(cp, "repro.hivebench.SelfTest", [], work)
            print("\n".join(lines))
            failures = selftest(spec)
            return code or min(1, failures)
        trace_out = os.path.join(build.OUT_ROOT, "traces", f"{a.workload}-seed{a.seed}.jsonl")
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--cores", str(cores()), "--work", work,
                "--trace-out", trace_out]
        code, lines = run_jvm(cp, "repro.hivebench.Main", args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = None
    for line in lines[:-1]:
        print(line)
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if code != 0 or not isinstance(result, dict):
        print(f"[hivebench] run failed (exit code {code})", file=sys.stderr)
        return code or 1
    try:
        result = name_metrics(result, a.trace, spec)
    except ValueError as e:
        print(f"[hivebench] {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
