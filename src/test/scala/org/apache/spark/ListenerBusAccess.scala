package org.apache.spark

/** The listener bus is private to Spark; this lives in Spark's package only
  * so tests can wait until every posted event has reached their listeners.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
