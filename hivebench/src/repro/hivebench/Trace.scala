package repro.hivebench

import java.io.{File, PrintWriter}

import scala.collection.mutable

/** In-memory tracer for the traced mode.
  *
  * A span is recorded around each call the benchmark makes into a layer:
  * its name, start and end (ns), the span that was open when it started
  * (its parent) and the id of the operation it belongs to. Counters are
  * recorded at the same boundaries. While `enabled` is false (timed runs,
  * and every run's set-up) `span` only runs its body and `add` does
  * nothing.
  */
final class Tracer {
  @volatile var enabled = false
  import Tracer.Span

  private val spans = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var op = ""
  private val counters = mutable.LinkedHashMap[String, Double]()

  /** Runs `body` as operation `id`: spans opened inside carry this id. */
  def operation[A](id: String)(body: => A): A = {
    val saved = op
    op = id
    try body finally op = saved
  }

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val idx = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += Span(name, System.nanoTime(), -1L, parent, op)
      open = idx :: open
      try body
      finally {
        spans(idx) = spans(idx).copy(end = System.nanoTime())
        open = open.tail
      }
    }

  def add(counter: String, v: Double): Unit =
    if (enabled) counters(counter) = counters.getOrElse(counter, 0.0) + v

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  def durationsMs(name: String): Seq[Double] =
    spans.iterator.filter(s => s.name == name && s.end >= 0).map(_.ms).toSeq

  /** Mean duration of the spans called `name`; 0 when there are none. */
  def meanMs(name: String): Double = Stats.mean(durationsMs(name))

  def count(name: String): Int = spans.count(_.name == name)

  /** Writes every span as one JSON line (index, name, start/end ns, parent
    * index, operation id). */
  def write(file: File): Unit = if (enabled) {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.zipWithIndex.foreach { case (s, i) =>
      w.println(s"""{"id":$i,"name":${Json.str(s.name)},"start_ns":${s.start},"end_ns":${s.end},""" +
        s""""parent":${s.parent},"op":${Json.str(s.op)}}""")
    } finally w.close()
  }
}

object Tracer {
  final case class Span(name: String, start: Long, end: Long, parent: Int, op: String) {
    def ms: Double = (end - start) / 1e6
  }
}
