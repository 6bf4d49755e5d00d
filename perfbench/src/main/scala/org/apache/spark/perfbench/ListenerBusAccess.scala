package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus is private to Spark; this lives in Spark's package only
  * to wait until every posted event has reached the registered listeners.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
