package repro.hivebench

import java.io.File
import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.hivebench.SparkInternals
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** Everything a workload needs from the run. */
final class Ctx(
    val spark: SparkSession,
    val seed: Long,
    val tracer: Tracer,
    val work: File,
    val cores: Int) {
  val rng = new scala.util.Random(seed)

  /** A query suite in its fixed order, started at a seeded position. Every
    * pass of a run uses this one order, so runs of different seeds do the
    * same work in nearly the same sequence. */
  def rotation[A](suite: Seq[A]): Seq[A] = {
    val k = Math.floorMod(seed, suite.size.toLong).toInt
    suite.drop(k) ++ suite.take(k)
  }
}

/** What a workload's timed phase produced. */
final class Outcome {
  val tally = new Tally
  /** Latency of every completed read query, ms, with the query's id. */
  val queryMs = mutable.ArrayBuffer[(String, Double)]()
  /** Completed operations that make up the workload's throughput. */
  var completed = 0L
  /** Time spent in checks inside a round; not part of the timed phase. */
  var untimedSeconds = 0.0
  private val problems = mutable.ArrayBuffer[String]()

  def untimed(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    try body finally untimedSeconds += (System.nanoTime() - t0) / 1e9
  }

  def check(ok: Boolean, what: => String): Unit = if (!ok) problems += what
  def correct: Boolean = problems.isEmpty
  def problemList: Seq[String] = problems.toSeq
}

/** A workload: set-up, whole rounds of timed operations, result checks
  * outside the timed window, and its per-layer figures in traced runs. */
trait Workload {
  /** Builds the workload's inputs. There is no warm-up: the timed phase
    * starts cold, whose first round runs the same code in the same order
    * in every run and reads steadier than a partly warmed JVM. */
  def inputs(): Unit
  def round(r: Int, out: Outcome): Unit
  def verify(out: Outcome): Unit
  def layerMetrics(out: Outcome): Map[String, Double]
}

/** Runs Spark work for one timed query, recording Spark's own phase
  * timings and the query's tasks in traced runs. */
object SparkLayer {
  val QueryProperty = "hivebench.query"

  /** Collects `df`; `source` is the DataFrame it was derived from, whose
    * analysis also counts. */
  def collect(tr: Tracer, df: DataFrame, source: DataFrame): Array[Row] = {
    if (!tr.enabled) return df.collect()
    val sc = df.sparkSession.sparkContext
    sc.setLocalProperty(QueryProperty, "1")
    val t0 = System.nanoTime()
    val rows = try tr.span("spark.collect")(df.collect()) finally sc.setLocalProperty(QueryProperty, null)
    val wall = (System.nanoTime() - t0) / 1e6
    def phase(d: DataFrame, p: String): Double =
      d.queryExecution.tracker.phases.get(p).map(_.durationMs.toDouble).getOrElse(0.0)
    val analysis = phase(df, "analysis") + (if (source ne df) phase(source, "analysis") else 0.0)
    tr.add("spark.analysis_ms", analysis)
    tr.add("spark.optimization_ms", phase(df, "optimization"))
    tr.add("spark.planning_ms", phase(df, "planning"))
    tr.add("spark.exec_ms", wall - phase(df, "optimization") - phase(df, "planning"))
    tr.add("spark.queries", 1)
    rows
  }

  /** Per-query means of the counters above, plus tasks per query. */
  def metrics(tr: Tracer, tasks: TaskCounter): Map[String, Double] = {
    val n = tr.counter("spark.queries")
    if (n == 0) return Map.empty
    Seq("spark.analysis_ms", "spark.optimization_ms", "spark.planning_ms", "spark.exec_ms")
      .map(k => k -> tr.counter(k) / n).toMap +
      ("spark.tasks_per_query" -> tasks.queryTasks / n)
  }
}

/** Counts the tasks of stages submitted by timed queries. */
final class TaskCounter extends SparkListener {
  @volatile var queryTasks = 0L
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    if (e.properties != null && e.properties.getProperty(SparkLayer.QueryProperty) != null)
      queryTasks += e.stageInfo.numTasks
}

object Main {

  private def arg(args: Array[String], name: String): String = {
    val i = args.indexOf(s"--$name")
    require(i >= 0 && i + 1 < args.length, s"missing --$name")
    args(i + 1)
  }

  def session(cores: Int, work: File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("hivebench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getAbsolutePath)
      .config("spark.hadoop.hadoop.tmp.dir", new File(work, "hadoop-tmp").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def workload(name: String, ctx: Ctx): Workload = name match {
    case "tpcds_llap" => new TpcdsLlap(ctx)
    case "ssb_druid"  => new SsbDruid(ctx)
    case "acid_dml"   => new AcidDml(ctx)
    case other        => throw new IllegalArgumentException(s"unknown workload: $other")
  }

  /** Heap still reachable after full collections, MB. */
  def retainedHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(50) }
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def sinceStart(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0

  private def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  def main(args: Array[String]): Unit = {
    val code = try { run(args); 0 } catch {
      case e: Throwable => e.printStackTrace(); 1
    }
    System.out.flush()
    sys.exit(code)
  }

  private def run(args: Array[String]): Unit = {
    val name = arg(args, "workload")
    val seed = arg(args, "seed").toLong
    val runSeconds = arg(args, "seconds").toDouble
    val traced = arg(args, "trace") == "1"
    val cores = arg(args, "cores").toInt
    val work = new File(arg(args, "work"))
    val traceOut = new File(arg(args, "trace-out"))

    val spark = session(cores, work)
    val tracer = new Tracer
    val tasks = new TaskCounter
    val ctx = new Ctx(spark, seed, tracer, work, cores)
    val wl = workload(name, ctx)

    val sessionS = sinceStart()
    val inputsS = seconds(wl.inputs())
    val setupS = sinceStart()
    System.err.println(f"[hivebench] set-up: session $sessionS%.2f s, inputs $inputsS%.2f s")
    if (traced) {
      tracer.enabled = true
      spark.sparkContext.addSparkListener(tasks)
    }

    val out = new Outcome
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9 - out.untimedSeconds
    var r = 0
    do { wl.round(r, out); r += 1 } while (elapsed < runSeconds)
    val timedS = elapsed
    val heapMb = retainedHeapMb()
    System.err.println(f"[hivebench] $name seed=$seed: $r rounds, ${out.queryMs.size} queries, " +
      f"${out.completed} ops in $timedS%.1f s; set-up $setupS%.2f s")

    val checkS = seconds(wl.verify(out))
    System.err.println(f"[hivebench] result checks $checkS%.2f s")
    out.tally.errorCounts.foreach { case (e, n) => System.err.println(s"[hivebench] failed x$n: $e") }
    out.problemList.take(10).foreach(p => System.err.println(s"[hivebench] WRONG: $p"))

    val endToEnd = Map(
      "setup_s" -> setupS,
      "query_geomean_ms" -> Stats.geomeanOfMedians(out.queryMs.toSeq),
      "ops_per_s" -> out.completed / timedS,
      "heap_mb" -> heapMb)
    System.err.println("[hivebench] end to end: " +
      endToEnd.toSeq.sortBy(_._1).map { case (k, v) => f"$k=$v%.4f" }.mkString(" "))

    // run.py names the units and checks the names against BENCHMARK.json
    val metrics =
      if (!traced) endToEnd
      else {
        SparkInternals.drainListenerBus(spark.sparkContext)
        tracer.write(traceOut)
        wl.layerMetrics(out) ++ SparkLayer.metrics(tracer, tasks)
      }
    val result = Result(out.correct, out.tally.attempted, out.tally.failed, metrics)
    spark.stop()
    println(result.json)
  }
}
