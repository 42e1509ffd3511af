package repro.hivebench

import java.io.File
import java.sql.{Connection, DriverManager}

import org.apache.spark.sql.Row

/** Order-free comparison of query results.
  *
  * A result is canonicalised into rows of normalised values (integers as
  * BigInt, floating and decimal values as Double, everything else as its
  * string), sorted. Integers and strings compare exactly; doubles compare
  * to a relative 1e-9, because two engines sum doubles in different
  * orders. Columns compare by position: both sides run the same SELECT
  * list.
  */
object Rows {
  type Canon = Vector[Vector[Any]]

  val RelTolerance = 1e-9

  def value(v: Any): Any = v match {
    case null                       => null
    case d: Double                  => d
    case f: Float                   => f.toDouble
    case b: java.math.BigDecimal    => b.doubleValue
    case b: scala.math.BigDecimal   => b.toDouble
    case i: Int                     => BigInt(i)
    case l: Long                    => BigInt(l)
    case s: Short                   => BigInt(s.toInt)
    case b: Byte                    => BigInt(b.toInt)
    case b: java.math.BigInteger    => BigInt(b)
    case d: java.sql.Date           => d.toLocalDate.toString
    case x                          => x.toString
  }

  private def rank(v: Any): Int = v match {
    case null             => 0
    case _: BigInt | _: Double => 1
    case _                => 2
  }

  private def num(v: Any): Double = v match {
    case b: BigInt => b.toDouble
    case d: Double => d
  }

  private val valueOrdering: Ordering[Any] = (a: Any, b: Any) =>
    (a, b) match {
      case (x: BigInt, y: BigInt) => x.compare(y)
      case _ if rank(a) != rank(b) => rank(a).compare(rank(b))
      case (null, null)           => 0
      case _ if rank(a) == 1      => java.lang.Double.compare(num(a), num(b))
      case _                      => a.toString.compareTo(b.toString)
    }

  private val rowOrdering: Ordering[Vector[Any]] = (a: Vector[Any], b: Vector[Any]) =>
    a.iterator.zip(b.iterator).map { case (x, y) => valueOrdering.compare(x, y) }
      .find(_ != 0).getOrElse(a.size.compare(b.size))

  def canon(rows: Seq[Seq[Any]]): Canon =
    rows.map(_.map(value).toVector).toVector.sorted(rowOrdering)

  def ofSpark(rows: Array[Row]): Canon = canon(rows.toSeq.map(_.toSeq))

  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (x: BigInt, y: BigInt) => x == y
    case _ if rank(a) == 1 && rank(b) == 1 =>
      val (x, y) = (num(a), num(b))
      x == y || math.abs(x - y) <= RelTolerance * math.max(math.abs(x), math.abs(y))
    case _ => a == b
  }

  /** None when `got` equals `expected`, else a short description. */
  def diff(got: Canon, expected: Canon): Option[String] = {
    val bad = got.size != expected.size ||
      got.iterator.zip(expected.iterator).exists { case (g, e) =>
        g.size != e.size || g.iterator.zip(e.iterator).exists { case (x, y) => !same(x, y) }
      }
    if (!bad) None
    else {
      def show(xs: Seq[Vector[Any]]) = xs.take(3).map(_.mkString("|")).mkString("; ")
      Some(s"${got.size} rows vs ${expected.size} expected; " +
        s"unexpected: [${show(got.diff(expected))}] missing: [${show(expected.diff(got))}]")
    }
  }
}

/** The first result of each query of a run. Every later execution must
  * equal it, and after the timed phase it is checked against DuckDB. */
final class References {
  private val first = scala.collection.mutable.Map[String, Rows.Canon]()

  def apply(id: String): Rows.Canon = first(id)

  def check(out: Outcome, id: String, got: Rows.Canon): Unit = first.get(id) match {
    case Some(want) => Rows.diff(got, want).foreach(d => out.check(false, s"$id: $d"))
    case None       => first(id) = got
  }
}

/** DuckDB over Parquet copies of the generated tables: the reference
  * engine the workloads' results are checked against. */
final class DuckDb extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")

  def registerParquet(table: String, dir: File): Unit = {
    val glob = new File(dir, "*.parquet").getAbsolutePath.replace("'", "''")
    conn.createStatement().execute(
      s"""CREATE VIEW "$table" AS SELECT * FROM read_parquet('$glob')""")
  }

  def query(sql: String): Rows.Canon = {
    val rs = conn.createStatement().executeQuery(sql)
    val n = rs.getMetaData.getColumnCount
    val rows = Iterator.continually(rs).takeWhile(_.next())
      .map(r => (1 to n).map(r.getObject)).toVector
    Rows.canon(rows)
  }

  override def close(): Unit = conn.close()
}
