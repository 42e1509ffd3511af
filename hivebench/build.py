"""Build file of the benchmark package.

Compiles the repository's program sources (`src/main/scala`) together with
the benchmark's own sources (`hivebench/src`) with the Scala compiler that
ships in Spark's `jars/` directory, into `.bench_build/hivebench/<hash>/`.
The hash covers every source file, so an unchanged tree is built once and
every later run starts a plain JVM on the prebuilt classpath, without a
build tool.

    python3 hivebench/build.py     # builds if needed, prints the classpath

Needs: `java` (JAVA_HOME or PATH), Spark (SPARK_HOME, or `spark-submit` on
PATH) and the DuckDB JDBC jar in the local coursier/ivy/maven cache (it is
the result checker's reference engine).
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_build", "hivebench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
PROGRAM_RESOURCES = os.path.join(ROOT, "src", "main", "resources")
BENCH_SOURCES = os.path.join(BENCH_DIR, "src")
DUCKDB_JAR = "duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return found


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else ""
    if not jars or not os.path.isdir(jars):
        raise BuildError("no Spark jars: set SPARK_HOME")
    return jars


def find_duckdb_jar():
    roots = [os.environ.get("COURSIER_CACHE", ""),
             os.path.expanduser("~/.cache/coursier"),
             os.path.expanduser("~/.ivy2"),
             os.path.expanduser("~/.m2/repository")]
    for root in roots:
        if not root or not os.path.isdir(root):
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            if DUCKDB_JAR in filenames:
                return os.path.join(dirpath, DUCKDB_JAR)
    raise BuildError(f"{DUCKDB_JAR} not found in the local dependency caches")


def sources():
    if not os.path.isdir(PROGRAM_SOURCES):
        raise BuildError(f"program sources missing: {PROGRAM_SOURCES}")
    found = []
    for base in (PROGRAM_SOURCES, BENCH_SOURCES):
        found += sorted(glob.glob(os.path.join(base, "**", "*.scala"), recursive=True))
    return found


def source_hash(files, extra):
    h = hashlib.sha256()
    for f in files + extra:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build(log=sys.stderr):
    """Compiles when the sources changed; returns the runtime classpath."""
    files = sources()
    jars = spark_jars()
    compiler = sorted(glob.glob(os.path.join(jars, "scala-compiler-*.jar")))
    if not compiler:
        raise BuildError(f"no scala-compiler jar in {jars}")
    duckdb = find_duckdb_jar()
    out = os.path.join(OUT_ROOT, source_hash(files, [os.path.abspath(__file__)]))
    classes = os.path.join(out, "classes")
    cp = os.pathsep.join([classes, PROGRAM_RESOURCES, os.path.join(jars, "*"), duckdb])
    if os.path.exists(os.path.join(out, "ok")):
        return cp

    tool_cp = os.pathsep.join(compiler + glob.glob(os.path.join(jars, "scala-library-*.jar"))
                              + glob.glob(os.path.join(jars, "scala-reflect-*.jar")))
    staging = out + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(os.path.join(staging, "classes"))
    print(f"[hivebench] compiling {len(files)} sources into {out}", file=log, flush=True)
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", tool_cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.pathsep.join([os.path.join(jars, "*"), duckdb]),
           "-d", os.path.join(staging, "classes")] + files
    proc = subprocess.run(cmd, stdout=log, stderr=log)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise BuildError("scalac failed")
    shutil.rmtree(out, ignore_errors=True)
    os.rename(staging, out)
    with open(os.path.join(out, "ok"), "w") as fh:
        fh.write("ok\n")
    return cp


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[hivebench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
