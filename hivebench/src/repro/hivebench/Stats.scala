package repro.hivebench

/** Summary statistics of one run's samples. */
object Stats {

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Geometric mean, over the query ids, of each id's median latency. Each
    * query counts once however long it runs, and a change to one query
    * moves the figure by its share of the suite; a median over a mix of
    * different queries instead jumps whenever two of them swap ranks. */
  def geomeanOfMedians(samples: Seq[(String, Double)]): Double = {
    require(samples.nonEmpty, "no query samples")
    val medians = samples.groupMap(_._1)(_._2).values.map(median)
    math.exp(medians.map(math.log).sum / medians.size)
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** Counts the operations a run attempted and the ones that failed. A failed
  * operation is not retried and its effects are not applied to any model. */
final class Tally {
  private var attempts = 0L
  private var failures = 0L
  private val errors = scala.collection.mutable.LinkedHashMap[String, Long]()

  def attempted: Long = attempts
  def failed: Long = failures
  /** Failure messages (class: first line) with their counts. */
  def errorCounts: Map[String, Long] = errors.toMap

  /** Runs one operation; returns None when it threw. */
  def attempt[A](op: => A): Option[A] = {
    attempts += 1
    try Some(op)
    catch {
      case e: Exception =>
        failures += 1
        val key = s"${e.getClass.getSimpleName}: ${String.valueOf(e.getMessage).linesIterator.nextOption().getOrElse("")}"
          .replaceAll("\\d+", "N")
        errors(key) = errors.getOrElse(key, 0L) + 1
        None
    }
  }
}
