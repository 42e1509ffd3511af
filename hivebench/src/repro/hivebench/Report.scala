package repro.hivebench

/** The outcome of one run: the correctness verdict, the operation counts
  * and the measured metrics of the run's mode, by name. */
final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Map[String, Double]) {
  def json: String = {
    val ms = metrics.toSeq.sortBy(_._1).map { case (k, v) => s"${Json.str(k)}: ${Json.num(v)}" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').result()
  }

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    d.toString
  }
}
