package repro

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is `-Xmx` from SPARK_DRIVER_MEM, set in build.sbt's
  * ``Test / javaOptions`` (48g when unset). The Tier-1 command in ROADMAP.md
  * exports it as half of the host's `MemTotal`, clamped to 2–8 g. Broadcast
  * joins are disabled, so a join in a test takes the shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Spark jobs started, shuffle bytes written and tasks finished while
    * `body` runs.
    */
  def sparkActivity(body: => Unit): (Int, Long, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val tasks = new AtomicInteger
    val shuffleWriteBytes = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
        tasks.incrementAndGet()
        if (e.taskMetrics != null)
          shuffleWriteBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
      }
    }
    ListenerBusAccess.drain(sc)
    sc.addSparkListener(listener)
    try {
      body
      ListenerBusAccess.drain(sc)
    } finally sc.removeSparkListener(listener)
    (jobs.get, shuffleWriteBytes.get, tasks.get)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output with the driver heap setting, the master and
    // the default parallelism this run got.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
