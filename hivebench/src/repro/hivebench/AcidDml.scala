package repro.hivebench

import java.io.File

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.acid.{AcidLayout, AcidTable, Compactor}
import repro.metastore.{Catalog, TableDesc}

/** `acid_dml`: a seeded stream of ACID transactions on a table partitioned
  * on `p`, with a snapshot read after each transaction.
  *
  * A round is five transactions, always in this order, each committed one
  * followed by a timed snapshot read:
  *   1. INSERT of fresh keys into every partition;
  *   2. UPDATE of the rows whose key has a seeded residue;
  *   3. DELETE likewise (another seeded residue);
  *   4. MERGE, matched rows deleted and unmatched source rows inserted, from
  *      a seeded source of existing and fresh keys;
  *   5. MERGE, matched rows updated and unmatched source rows inserted, from
  *      a source that does not depend on the seed: one pinned key that the
  *      stream never deletes, and one fresh key in the same partition. Both
  *      branches write `delta_w_w` of that partition, and the second move
  *      onto the existing directory throws, so this transaction fails every
  *      time; it is aborted and counted as failed.
  * Each transaction touches the same partitions whatever the seed, so the
  * directory layout, and with it the compaction schedule, is the same in
  * every run; the seed picks the keys and values.
  * Minor compaction runs whenever `Compactor.shouldCompact` says so after a
  * read; major compaction runs at the end of every round.
  *
  * Every read is compared with an independent model of the stream (failed
  * transactions not applied): per partition the row count and the sums of
  * `k`, `v` and `k * v`. Every compaction is followed by a read that must
  * give the same result.
  */
final class AcidDml(ctx: Ctx) extends Workload {
  import AcidDml._
  import ctx.{spark, tracer => tr}
  private implicit val sp: SparkSession = spark

  private var catalog: Catalog = _
  private var table: AcidTable = _
  private var compactor: Compactor = _
  private def txns = catalog.txns
  /** The model: key -> (v, p) of every committed row. */
  private val model = mutable.HashMap[Long, (Long, Int)]()
  private var nextKey = 1L

  /** A new table holding the initial rows. */
  override def inputs(): Unit = {
    val dir = new File(ctx.work, s"acid/$Table")
    dir.mkdirs()
    catalog = new Catalog
    catalog.createTable(TableDesc(Table, Schema, dir.getAbsolutePath, Some("p")))
    table = new AcidTable(catalog, Table)
    compactor = new Compactor(table)
    val initial = freshRows(InitialRows, new scala.util.Random(ctx.seed))
    val load = new Outcome
    require(transaction(load, "insert")(t => table.insert(t, frame(initial)))(initial.foreach(put)),
      "initial load failed")
  }

  override def round(r: Int, out: Outcome): Unit = {
    // a timed read after each committed transaction
    def readAfter(committed: Boolean): Unit = if (committed) read(out)
    // 1. INSERT
    val ins = freshRows(InsertRows)
    readAfter(transaction(out, "insert")(t => table.insert(t, frame(ins)))(ins.foreach(put)))

    // 2. UPDATE
    val ua = ctx.rng.nextInt(Residues).toLong
    val delta = 1L + ctx.rng.nextInt(100)
    readAfter(transaction(out, "update")(t =>
      table.update(t, col("k") % Residues === ua, Map("v" -> (col("v") + delta)))) {
      model.keys.filter(_ % Residues == ua).toSeq
        .foreach(k => model(k) = (model(k)._1 + delta, model(k)._2))
    })

    // 3. DELETE
    val da = ctx.rng.nextInt(Residues).toLong
    readAfter(transaction(out, "delete")(t =>
      table.delete(t, col("k") % Residues === da && col("k") > PinnedKeys)) {
      model.keys.filter(k => k % Residues == da && k > PinnedKeys).toSeq.foreach(model.remove)
    })

    // 4. MERGE: delete matched, insert not matched
    val unpinned = model.keys.filter(_ > PinnedKeys).toVector
    val matched = Vector.fill(MergeRows)(unpinned(ctx.rng.nextInt(unpinned.size))).distinct
      .map(k => (k, model(k)._1, model(k)._2))
    val fresh = freshRows(MergeRows)
    readAfter(transaction(out, "merge")(t =>
      table.merge(t, frame(matched ++ fresh), col("t.k") === col("s.k"),
        matchedDelete = true, insertNotMatched = true)) {
      matched.foreach(m => model.remove(m._1))
      fresh.foreach(put)
    })

    // 5. MERGE: update matched, insert not matched (fails: see above)
    val p = (PinnedKeys % Partitions).toInt
    val faultSource = Seq((PinnedKeys, 777L, p), (FaultKeyBase + r, 777L, p))
    readAfter(transaction(out, "merge")(t =>
      table.merge(t, frame(faultSource), col("t.k") === col("s.k"),
        matchedSet = Map("v" -> col("s.v")), insertNotMatched = true)) {
      model(PinnedKeys) = (777L, p)
      put(faultSource(1))
    })

    compact(out, "acid.major_compact")(compactor.majorCompact())
  }

  private def put(row: (Long, Long, Int)): Unit = model(row._1) = (row._2, row._3)

  /** `n` rows with fresh keys; `p` follows the key, `v` is seeded. */
  private def freshRows(n: Int, rng: scala.util.Random = ctx.rng): Seq[(Long, Long, Int)] =
    (0 until n).map { _ =>
      val k = nextKey
      nextKey += 1
      (k, rng.nextInt(10000).toLong, (k % Partitions).toInt)
    }

  private def frame(rows: Seq[(Long, Long, Int)]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(
      rows.map { case (k, v, p) => Row(k, v, p) }, 1), Schema)

  /** Runs one transaction; on success commits it and applies `effect` to the
    * model, on failure aborts it. Returns whether it committed. */
  private def transaction(out: Outcome, kind: String)(body: Long => Any)(effect: => Unit): Boolean = {
    val txn = txns.openTxn()
    val ok = out.tally.attempt {
      tr.span(s"acid.$kind")(body(txn))
      tr.span("metastore.commit")(txns.commit(txn))
    }
    if (ok.isDefined) {
      effect
      out.completed += 1
    } else if (txns.isOpen(txn)) txns.abort(txn)
    ok.isDefined
  }

  /** The timed snapshot read, checked against the model; then minor
    * compaction if the compactor asks for it. */
  private def read(out: Outcome): Unit = {
    if (tr.enabled) sampleLayout()
    val t0 = System.nanoTime()
    out.tally.attempt(tr.span("query")(aggregates())).foreach { got =>
      out.queryMs += "read" -> (System.nanoTime() - t0) / 1e6
      out.check(got == expected, s"snapshot read $got, model ${expected}")
    }
    if (compactor.shouldCompact(MinorDeltas)) compact(out, "acid.minor_compact")(compactor.minorCompact())
  }

  /** Runs a compaction, then checks it left the read result unchanged;
    * the check is left out of the timed phase. */
  private def compact(out: Outcome, span: String)(run: => Any): Unit = {
    tr.span(span)(run)
    tr.add("acid.compactions", 1)
    out.untimed {
      val after = aggregates()
      out.check(after == expected, s"read after $span $after, model $expected")
    }
  }

  private def aggregates(): Map[Int, Agg] = {
    val snap = tr.span("metastore.writeidlist")(table.currentSnapshot())
    val df = tr.span("acid.read_plan")(table.read(snap)).groupBy("p")
      .agg(count(lit(1)), sum("k"), sum("v"), sum(col("k") * col("v")))
    SparkLayer.collect(tr, df, df)
      .map(r => r.getInt(0) -> Agg(r.getLong(1), r.getLong(2), r.getLong(3), r.getLong(4))).toMap
  }

  private def expected: Map[Int, Agg] =
    model.groupBy(_._2._2).map { case (p, rows) =>
      p -> Agg(rows.size.toLong, rows.keys.sum, rows.values.map(_._1).sum,
        rows.iterator.map { case (k, (v, _)) => k * v }.sum)
    }

  /** Traced runs: store directories, and delete markers still on disk. */
  private def sampleLayout(): Unit = {
    tr.add("acid.samples", 1)
    tr.add("acid.store_dirs", table.storeDirCount)
    val root = new File(catalog.table(Table).location)
    val deleteDirs = AcidLayout.listPartitionDirs(root).flatMap(AcidLayout.list).collect {
      case d: AcidLayout.DeleteDeltaDir => d.path.getAbsolutePath
    }
    if (deleteDirs.nonEmpty) tr.add("acid.delete_markers_live", spark.read.parquet(deleteDirs: _*).count())
  }

  /** Every read and compaction was checked in the round. */
  override def verify(out: Outcome): Unit = ()

  override def layerMetrics(out: Outcome): Map[String, Double] = {
    val samples = math.max(1.0, tr.counter("acid.samples"))
    val attemptedTxns = Seq("insert", "update", "delete", "merge").map(k => tr.count(s"acid.$k")).sum
    Map(
      "acid.store_dirs" -> tr.counter("acid.store_dirs") / samples,
      "acid.read_plan_ms" -> tr.meanMs("acid.read_plan"),
      "acid.delete_markers_live" -> tr.counter("acid.delete_markers_live") / samples,
      "acid.insert_ms" -> tr.meanMs("acid.insert"),
      "acid.update_ms" -> tr.meanMs("acid.update"),
      "acid.delete_ms" -> tr.meanMs("acid.delete"),
      "acid.merge_ms" -> tr.meanMs("acid.merge"),
      "metastore.commit_ms" -> tr.meanMs("metastore.commit"),
      "metastore.writeidlist_ms" -> tr.meanMs("metastore.writeidlist"),
      "acid.minor_compact_ms" -> tr.meanMs("acid.minor_compact"),
      "acid.major_compact_ms" -> tr.meanMs("acid.major_compact"),
      "acid.compactions" -> tr.counter("acid.compactions") / math.max(1, attemptedTxns))
  }
}

object AcidDml {
  val Table = "acid_t"
  val Schema: StructType = StructType(Seq(
    StructField("k", LongType), StructField("v", LongType), StructField("p", IntegerType)))
  val Partitions = 2
  val InitialRows = 4000
  val InsertRows = 100
  val MergeRows = 20
  /** UPDATE and DELETE hit the keys of one residue class of this modulus;
    * it is odd, so the class has keys in both partitions. */
  val Residues = 21
  /** Keys 1..PinnedKeys are never deleted, so the failing MERGE always
    * finds its matched row. */
  val PinnedKeys = 4L
  val FaultKeyBase = 1000000000L
  val MinorDeltas = 6

  /** Per-partition read result: row count and sums of k, v and k * v. */
  final case class Agg(rows: Long, sumK: Long, sumV: Long, sumKV: Long)
}
