package repro.hivebench

import java.io.File

import org.apache.spark.sql.Row

import repro.core.{MvCatalog, MvRewriter}
import repro.federation.druid.{DruidFederation, DruidSim}
import repro.ssb.{SsbLite, SsbQueries, SsbQuery}

/** `ssb_druid`: the 13 SSB-lite queries, each rewritten by `MvRewriter`
  * onto the denormalised materialized view stored in `DruidSim`, then
  * pushed down by `DruidFederation.pushdown`.
  *
  * Set-up generates the star tables, ingests the view's contents into
  * Druid as segments on `lo_orderdate` and registers the view for
  * rewriting. A round is [[SsbDruid.PassesPerRound]] passes over the suite;
  * every pass runs the queries in the same order, [[Ctx.rotation]] of the
  * suite. The first execution of each query gives its reference result.
  */
final class SsbDruid(ctx: Ctx) extends Workload {
  import SsbDruid._
  import ctx.{spark, tracer => tr}

  private val sim = new DruidSim
  private var fed: DruidFederation = _
  private var catalog: MvCatalog = _
  private val reference = new References
  private val order = ctx.rotation(SsbQueries.all)

  override def inputs(): Unit = {
    SsbLite.registerViews(spark, Sf)
    sim.createDataSource(DataSource, spark.sql(SsbLite.DenormalizedMvSql),
      segmentKey = Some("lo_orderdate"), targetSegments = Segments)
    fed = new DruidFederation(spark, sim)
    fed.registerExternalTable(MvView, DataSource)
    catalog = new MvCatalog(spark)
    catalog.registerSource("lineorder")
    Dimensions.foreach(catalog.registerDimension)
    catalog.registerExternalMaterializedView(MvView, SsbLite.DenormalizedMvSql)
  }

  override def round(r: Int, out: Outcome): Unit =
    Seq.fill(PassesPerRound)(order).flatten.foreach { q =>
      val t0 = System.nanoTime()
      out.tally.attempt(tr.operation(s"${q.id}#$r")(execute(q))).foreach { rows =>
        out.queryMs += q.id -> (System.nanoTime() - t0) / 1e6
        out.completed += 1
        reference.check(out, q.id, Rows.ofSpark(rows))
      }
    }

  /** One query: MV rewrite, Druid pushdown, collection. A query that does
    * not rewrite or push down still runs, over what the earlier step gave. */
  private def execute(q: SsbQuery): Array[Row] = tr.span("query") {
    val df = spark.sql(q.sql)
    val rewrite = tr.span("core.mv_rewrite")(MvRewriter.rewrite(spark, df, catalog))
    val onView = rewrite.map(_.df).getOrElse(df)
    val pushed = tr.span("druid.pushdown")(fed.pushdown(onView))
    val rows = SparkLayer.collect(tr, pushed.map(_.df).getOrElse(onView), df)
    if (tr.enabled) {
      tr.add("core.mv_full_rewrites", if (rewrite.exists(_.kind == MvRewriter.FullContainment)) 1 else 0)
      tr.add("druid.segments_scanned", sim.lastSegmentsScanned)
      tr.add("druid.segments_pruned", sim.lastSegmentsPruned)
      pushed.foreach { p =>
        tr.add("druid.pushed_queries", 1)
        tr.span("druid.execute")(sim.execute(p.query))
      }
    }
    rows
  }

  /** Checks each reference result against DuckDB running the original,
    * un-rewritten SQL over Parquet copies of the base star tables. */
  override def verify(out: Outcome): Unit = {
    val duck = new DuckDb
    try {
      SsbLite.all(spark, Sf).foreach { case (t, df) =>
        val dir = new File(ctx.work, s"duckdb/$t")
        df.write.parquet(dir.getAbsolutePath)
        duck.registerParquet(t, dir)
      }
      SsbQueries.all.foreach { q =>
        Rows.diff(reference(q.id), duck.query(q.sql))
          .foreach(d => out.check(false, s"${q.id} vs DuckDB: $d"))
      }
    } finally duck.close()
  }

  override def layerMetrics(out: Outcome): Map[String, Double] = {
    val n = math.max(1, tr.count("query")).toDouble
    Map(
      "core.mv_rewrite_ms" -> tr.meanMs("core.mv_rewrite"),
      "core.mv_full_rewrites" -> tr.counter("core.mv_full_rewrites") / n,
      "core.persisted_rdds" -> spark.sparkContext.getPersistentRDDs.size.toDouble,
      "druid.pushdown_ms" -> tr.meanMs("druid.pushdown"),
      "druid.execute_ms" -> tr.meanMs("druid.execute"),
      "druid.segments_scanned" -> tr.counter("druid.segments_scanned") / n,
      "druid.segments_pruned" -> tr.counter("druid.segments_pruned") / n,
      "druid.pushed_queries" -> tr.counter("druid.pushed_queries") / n)
  }
}

object SsbDruid {
  val Sf = 0.1
  val Segments = 32
  /** A cold pass takes 1.5–2.5 s, so a round outlasts the default 5 s
    * timed phase and every run times one whole round: a run that stopped
    * after a varying number of passes would sample another stretch of the
    * JIT's warm-up. */
  val PassesPerRound = 5
  val DataSource = "ssb_flat_ds"
  val MvView = "ssb_flat_druid"
  val Dimensions = Seq("date", "customer", "supplier", "part")
}
