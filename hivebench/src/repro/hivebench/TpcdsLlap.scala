package repro.hivebench

import java.io.File
import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import org.apache.spark.sql.execution.datasources.v2.DataSourceV2ScanRelation

import repro.core.HiveOptimizer
import repro.llap.{LlapIo, LlapTableProvider, LlapTables, OrcLite}
import repro.tpcds.{DsQuery, TpcDsLite, TpcDsQueries}

/** `tpcds_llap`: the 20 TPC-DS-lite queries through `HiveOptimizer` (shared
  * work on) over OrcLite tables read by the LLAP DSv2 provider.
  *
  * Set-up writes the tables (`store_sales` sorted on `ss_sold_date_sk`,
  * written with `OrcLite.write`), sizes the chunk cache at half the suite's
  * chunk working set (every row group of every column a query reads). A
  * round is one pass over the suite in the order [[Ctx.rotation]] gives,
  * starting from an empty chunk cache; it outlasts the default 5 s timed
  * phase. The first execution of each query gives its reference result.
  */
final class TpcdsLlap(ctx: Ctx) extends Workload {
  import TpcdsLlap._
  import ctx.{spark, tracer => tr}

  private val optimizer = new HiveOptimizer(spark, None)
  private var tables: Map[String, File] = Map.empty
  private val reference = new References
  private var start: Counters = _
  private val order = ctx.rotation(TpcDsQueries.all)

  override def inputs(): Unit = {
    tables = writeTables(new File(ctx.work, "tpcds"), spark)
    tables.foreach { case (t, d) => LlapTables.read(spark, d).createOrReplaceTempView(t) }
    val workingSetBytes = suiteWorkingSetBytes()
    LlapIo.configure(workingSetBytes / 2)
    System.err.println(f"[hivebench] chunk working set ${workingSetBytes / MB}%.2f MB, " +
      f"cache ${LlapIo.cache.capacityBytes / MB}%.2f MB")
    start = Counters.now()
  }

  /** Bytes the suite's chunks take in the cache: every row group of every
    * column that some query of the suite reads. */
  private def suiteWorkingSetBytes(): Long = {
    val columns = TpcDsQueries.all.flatMap { q =>
      spark.sql(q.sql).queryExecution.optimizedPlan.collect {
        case s: DataSourceV2ScanRelation => s.relation.table.name.stripPrefix("orclite:") -> s.output.map(_.name)
      }
    }.groupMapReduce(_._1)(_._2.toSet)(_ ++ _)
    columns.toSeq.map { case (path, names) =>
      LlapTableProvider.listFiles(new File(path)).map { f =>
        val m = OrcLite.readMeta(f)
        val idx = names.toSeq.map(m.schema.fieldIndex)
        (for (rg <- 0 until m.rowGroups; c <- idx) yield OrcLite.readChunk(m, rg, c).sizeBytes).sum
      }.sum
    }.sum
  }

  override def round(r: Int, out: Outcome): Unit =
    order.foreach { q =>
      val t0 = System.nanoTime()
      out.tally.attempt(tr.operation(s"${q.id}#$r")(execute(q))).foreach { rows =>
        out.queryMs += q.id -> (System.nanoTime() - t0) / 1e6
        out.completed += 1
        reference.check(out, q.id, Rows.ofSpark(rows))
      }
    }

  /** One query: planning through `HiveOptimizer`, then collection. */
  private def execute(q: DsQuery): Array[Row] = tr.span("query") {
    val df = spark.sql(q.sql)
    val opt = tr.span("core.optimize")(optimizer.optimize(df))
    tr.add("core.shared_subplans", opt.rewrites.collect {
      case s if s.startsWith("shared-work:") => s.stripPrefix("shared-work:").toDouble
    }.sum)
    SparkLayer.collect(tr, opt.df, df)
  }

  /** Checks each query's reference result against DuckDB over Parquet
    * copies of the same generated tables. */
  override def verify(out: Outcome): Unit = {
    val duck = new DuckDb
    try {
      TpcDsLite.all(spark, Sf).foreach { case (t, df) =>
        val dir = new File(ctx.work, s"duckdb/$t")
        df.write.parquet(dir.getAbsolutePath)
        duck.registerParquet(t, dir)
      }
      TpcDsQueries.all.foreach { q =>
        Rows.diff(reference(q.id), duck.query(q.sql))
          .foreach(d => out.check(false, s"${q.id} vs DuckDB: $d"))
      }
    } finally duck.close()
  }

  override def layerMetrics(out: Outcome): Map[String, Double] = {
    val d = Counters.now() - start
    val n = math.max(1L, out.completed).toDouble
    val probes = Probes.run(tables("store_sales"), ctx)
    Map(
      "core.optimize_ms" -> tr.meanMs("core.optimize"),
      "core.shared_subplans" -> tr.counter("core.shared_subplans") / tr.count("query"),
      "core.persisted_rdds" -> spark.sparkContext.getPersistentRDDs.size.toDouble,
      "llap.rowgroups_read" -> d.rowGroupsRead / n,
      "llap.rowgroups_skipped" -> d.rowGroupsSkipped / n,
      "llap.chunk_hits" -> d.chunkHits / n,
      "llap.chunk_misses" -> d.chunkMisses / n,
      "llap.chunk_evictions" -> d.chunkEvictions / n,
      "llap.chunk_hit_ratio" -> d.chunkHits.toDouble / math.max(1L, d.chunkHits + d.chunkMisses),
      "llap.meta_hits" -> d.metaHits / n,
      "llap.meta_misses" -> d.metaMisses / n,
      "llap.cache_used_mb" -> LlapIo.cache.usedBytes / MB,
    ) ++ probes
  }
}

object TpcdsLlap {
  val Sf = 0.1
  val FactFiles = 4
  val RowGroupRows = 2048
  val UnboundedCacheBytes: Long = 1L << 40
  val MB: Double = 1024.0 * 1024.0

  /** Writes the six tables as OrcLite directories; returns name -> dir. */
  def writeTables(root: File, spark: SparkSession): Map[String, File] =
    TpcDsLite.all(spark, Sf).map { case (t, df) =>
      val dir = new File(root, t)
      if (t == "store_sales") writeClustered(df, dir, "ss_sold_date_sk")
      else LlapTables.writeTable(df, dir, numFiles = if (t == "store_returns") FactFiles else 1,
        rowGroupSize = RowGroupRows)
      t -> dir
    }

  /** Sorts `df` on `key` and writes it as [[FactFiles]] contiguous slices,
    * so each file and row group covers a narrow key range. */
  def writeClustered(df: DataFrame, dir: File, key: String): Unit = {
    dir.mkdirs()
    val rows = df.orderBy(key).collect()
    val per = (rows.length + FactFiles - 1) / FactFiles
    rows.grouped(per).zipWithIndex.foreach { case (slice, i) =>
      OrcLite.write(new File(dir, f"part-$i%05d.orclite"), df.schema, slice.iterator, RowGroupRows)
    }
  }

  /** Process-wide LLAP counters at one instant. */
  final case class Counters(rowGroupsRead: Long, rowGroupsSkipped: Long, chunkHits: Long,
                            chunkMisses: Long, chunkEvictions: Long, metaHits: Long, metaMisses: Long) {
    def -(o: Counters): Counters = Counters(rowGroupsRead - o.rowGroupsRead,
      rowGroupsSkipped - o.rowGroupsSkipped, chunkHits - o.chunkHits, chunkMisses - o.chunkMisses,
      chunkEvictions - o.chunkEvictions, metaHits - o.metaHits, metaMisses - o.metaMisses)
  }
  object Counters {
    def now(): Counters = {
      val m = LlapIo.elevator.metrics
      val c = LlapIo.cache
      Counters(m.rowGroupsRead.get, m.rowGroupsSkipped.get, c.hits.get, c.misses.get,
        c.evictions.get, LlapIo.metaCache.hits.get, LlapIo.metaCache.misses.get)
    }
  }
}

/** Direct probes of the LLAP layers over one OrcLite directory. Each reads
  * from disk (no chunk cache) and reports the median of three repetitions.
  *   - elevator: `IoElevator.scan` of every column, drained, one thread per
  *     file (as the DSv2 scan runs one task per file);
  *   - decode: `OrcLite.readChunk` over every chunk, one thread, as encoded
  *     MB per second;
  *   - dsv2: a filterless scan of every column through the provider into
  *     Spark's no-op sink. Its gap over the elevator is row materialisation
  *     and Spark's task overhead. */
object Probes {
  private val Reps = 3

  private def medianMs(body: => Unit): Double =
    Stats.median((1 to Reps).map { _ =>
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6
    })

  def run(dir: File, ctx: Ctx): Map[String, Double] = {
    val files = LlapTableProvider.listFiles(dir)
    val metas = files.map(OrcLite.readMeta)
    val cols = metas.head.schema.fieldNames.toSeq
    val pool = Executors.newFixedThreadPool(ctx.cores)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val elevatorMs = medianMs {
        val scans = files.map(f => Future(LlapIo.elevator.scan(f, cols, useCache = false).foreach(_ => ())))
        Await.result(Future.sequence(scans), Duration.Inf)
      }
      val encodedMb = metas.map(_.index.iterator.flatten.map(_.length.toLong).sum).sum / TpcdsLlap.MB
      val decodeMs = medianMs {
        metas.foreach(m => for (rg <- 0 until m.rowGroups; c <- cols.indices) OrcLite.readChunk(m, rg, c))
      }
      val dsv2Ms = medianMs {
        LlapTables.read(ctx.spark, dir, llapEnabled = false).write.format("noop").mode("overwrite").save()
      }
      Map(
        "llap.elevator_scan_ms" -> elevatorMs,
        "llap.decode_mb_per_s" -> encodedMb / (decodeMs / 1000),
        "llap.dsv2_scan_ms" -> dsv2Ms)
    } finally pool.shutdown()
  }
}
