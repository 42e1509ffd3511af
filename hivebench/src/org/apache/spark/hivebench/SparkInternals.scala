package org.apache.spark.hivebench

import org.apache.spark.SparkContext

/** Bridge into Spark's `private[spark]` listener bus: the traced mode waits
  * for queued listener events before reading its task counts. */
object SparkInternals {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(30000L)
}
