package repro.hivebench

/** Tests of the benchmark's own statistics and checks; run with
  * `python3 hivebench/run.py --selftest`, which also tests its own check of
  * the result line against BENCHMARK.json. Exits non-zero on a failure. */
object SelfTest {

  private var failures = 0
  private var run = 0

  private def test(name: String)(body: => Unit): Unit = {
    run += 1
    try { body; println(s"ok   $name") }
    catch {
      case e: Throwable =>
        failures += 1
        println(s"FAIL $name: $e")
    }
  }

  private def assertEq[A](got: A, want: A): Unit =
    if (got != want) throw new AssertionError(s"got $got, want $want")

  def main(args: Array[String]): Unit = {
    test("median of odd and even counts") {
      assertEq(Stats.median(Seq(3.0, 1.0, 2.0)), 2.0)
      assertEq(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)), 2.5)
    }

    test("geometric mean of per-query medians") {
      val got = Stats.geomeanOfMedians(Seq("a" -> 1.0, "a" -> 3.0, "a" -> 100.0, "b" -> 4.0))
      assert(math.abs(got - math.sqrt(12.0)) < 1e-12, got)
      assertEq(Stats.geomeanOfMedians(Seq("read" -> 5.0, "read" -> 7.0)), 6.0)
    }

    test("failures are counted against attempts") {
      val t = new Tally
      (1 to 10).foreach { i =>
        val r = t.attempt { if (i % 5 == 0) throw new IllegalStateException(s"op $i") else i }
        assertEq(r.isDefined, i % 5 != 0)
      }
      assertEq((t.attempted, t.failed), (10L, 2L))
      assertEq(t.errorCounts, Map("IllegalStateException: op N" -> 2L))
    }

    test("result check accepts reordering and float noise") {
      val a = Rows.canon(Seq(Seq(1L, "x", 0.1 + 0.2), Seq(2L, "y", 1.0)))
      val b = Rows.canon(Seq(Seq(2L, "y", 1.0), Seq(1L, "x", 0.3)))
      assertEq(Rows.diff(a, b), None)
    }

    test("result check rejects a wrong row set") {
      val want = Rows.canon(Seq(Seq(1L, "x", 2.5), Seq(2L, "y", 1.0)))
      val missing = Rows.canon(Seq(Seq(1L, "x", 2.5)))
      val extra = Rows.canon(Seq(Seq(1L, "x", 2.5), Seq(2L, "y", 1.0), Seq(2L, "y", 1.0)))
      val changed = Rows.canon(Seq(Seq(1L, "x", 2.500001), Seq(2L, "y", 1.0)))
      val nulled = Rows.canon(Seq(Seq(1L, "x", 2.5), Seq(2L, null, 1.0)))
      Seq(missing, extra, changed, nulled).foreach(got => assert(Rows.diff(got, want).isDefined, got))
    }

    test("integers compare exactly, across integer types") {
      assertEq(Rows.diff(Rows.canon(Seq(Seq(123456789L))), Rows.canon(Seq(Seq(123456789)))), None)
      assert(Rows.diff(Rows.canon(Seq(Seq(123456789L))), Rows.canon(Seq(Seq(123456788L)))).isDefined)
    }

    test("result line carries every measured metric by name") {
      val line = Result(correct = true, 10, 1, Map("setup_s" -> 2.5, "heap_mb" -> 1e-5)).json
      assertEq(line, """{"correct": true, "attempted": 10, "failed": 1, "metrics": """ +
        """{"heap_mb": 1.0E-5, "setup_s": 2.5}}""")
    }

    println(s"${run - failures}/$run passed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
