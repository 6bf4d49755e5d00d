package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** One span: a call into a layer's public function, made from the benchmark.
  * Spans of one op share `opId`; `parent` is the enclosing span (0 for the
  * op's root span). Counts are attached where the work is done. A root span
  * also holds the latency the op reported (`wallMs`), which is taken outside
  * the span and so includes the tracer's own work around it.
  */
final case class Span(id: Long, parent: Long, opId: Long, phase: String, name: String,
                      startNs: Long, var endNs: Long = 0L, var wallMs: Double = 0.0,
                      counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty) {
  def durMs: Double = (endNs - startNs) / 1e6
}

/** Spark work attributed to one span (summed over the jobs it submitted). */
final class SparkCounters {
  var jobs = 0L; var stages = 0L; var tasks = 0L; var failedTasks = 0L
  var runMs = 0.0; var cpuMs = 0.0
  var shuffleWriteBytes = 0.0; var shuffleReadBytes = 0.0
}

/** Spans kept in memory, plus a `SparkListener` that attributes jobs, stages
  * and tasks to the span that submitted them.
  *
  * Tracing is off unless `enabled`: then `span` only runs its body, no
  * listener is registered and no job is tagged, so untraced runs measure the
  * program alone. Jobs are tagged through Spark's thread-local properties,
  * which every job submitted from the calling thread inherits.
  */
final class Tracer(val enabled: Boolean, sc: SparkContext) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private var nextId = 1L
  private var active = enabled
  private var phase = "setup"

  private val bySpan = mutable.Map.empty[Long, SparkCounters]
  private val jobsByPhase = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private val stageSpan = mutable.Map.empty[Int, Long]
  private val lock = new Object
  /** Time spent in the tracer's own bookkeeping on the op thread. */
  private var ownNs = 0L

  private def own[A](f: => A): A = {
    val t = System.nanoTime()
    try f finally ownNs += System.nanoTime() - t
  }

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = lock.synchronized {
      val props = Option(e.properties)
      props.flatMap(p => Option(p.getProperty(PhaseKey))).foreach(ph => jobsByPhase(ph) += 1)
      props.flatMap(p => Option(p.getProperty(SpanKey))).map(_.toLong).foreach { id =>
        counters(id).jobs += 1
        e.stageIds.foreach(stageSpan(_) = id)
      }
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = lock.synchronized {
      stageSpan.get(e.stageInfo.stageId).foreach(counters(_).stages += 1)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = lock.synchronized {
      stageSpan.get(e.stageId).foreach { id =>
        val c = counters(id)
        c.tasks += 1
        if (e.reason != Success) c.failedTasks += 1
        Option(e.taskMetrics).foreach { m =>
          c.runMs += m.executorRunTime
          c.cpuMs += m.executorCpuTime / 1e6
          c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
          c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        }
      }
    }
  }

  if (enabled) sc.addSparkListener(listener)

  private def counters(id: Long): SparkCounters = bySpan.getOrElseUpdate(id, new SparkCounters)

  /** Phase of the ops that follow: "setup", "warmup" or "timed". */
  def setPhase(p: String): Unit = {
    phase = p
    if (enabled) sc.setLocalProperty(PhaseKey, p)
  }

  /** Trace the ops that follow (only meaningful when enabled). */
  def setActive(on: Boolean): Unit = active = enabled && on

  def tracing: Boolean = active

  /** Run one op under a root span named `op`; returns its result and wall ms.
    * The root span counts the GC work and the tracer's own bookkeeping
    * (`tracer_ms`: span open/close and GC totals) done during the op.
    */
  def op[A](opId: Long)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    if (!active) {
      val r = body
      (r, (System.nanoTime() - t0) / 1e6)
    } else {
      val own0 = ownNs
      val gc0 = own(gcTotals())
      val root = own(open("op", opId))
      val r = try body finally own {
        close(root)
        val gc1 = gcTotals()
        root.counts("gc_ms") = gc1._1 - gc0._1
        root.counts("gc_count") = gc1._2 - gc0._2
      }
      val ms = (System.nanoTime() - t0) / 1e6
      root.wallMs = ms
      root.counts("tracer_ms") = (ownNs - own0) / 1e6
      (r, ms)
    }
  }

  /** A span around one call into a layer. */
  def span[A](name: String)(body: => A): A =
    if (!active) body
    else {
      val s = own(open(name, stack.headOption.map(_.opId).getOrElse(0L)))
      try body finally own(close(s))
    }

  /** Add to a count of the innermost open span. */
  def count(key: String, v: Double): Unit =
    if (active) stack.headOption.foreach(s => s.counts(key) = s.counts.getOrElse(key, 0.0) + v)

  private def open(name: String, opId: Long): Span = {
    val s = Span(nextId, stack.headOption.map(_.id).getOrElse(0L), opId, phase, name, System.nanoTime())
    nextId += 1
    spans += s
    stack = s :: stack
    sc.setLocalProperty(SpanKey, s.id.toString)
    s
  }

  private def close(s: Span): Unit = {
    s.endNs = System.nanoTime()
    stack = stack.tail
    sc.setLocalProperty(SpanKey, stack.headOption.map(_.id.toString).orNull)
  }

  /** Wait until the listener has seen every event posted so far, then
    * return a snapshot of the spans and the Spark work attributed to them.
    */
  def finish(): Trace = {
    if (enabled) org.apache.spark.perfbench.ListenerBusAccess.drain(sc)
    lock.synchronized {
      Trace(spans.toVector, bySpan.toMap, jobsByPhase.toMap)
    }
  }
}

object Tracer {
  val SpanKey = "perfbench.span"
  val PhaseKey = "perfbench.phase"

  /** Total (collection ms, collection count) over all garbage collectors. */
  def gcTotals(): (Double, Double) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(b => math.max(0L, b.getCollectionTime)).sum.toDouble,
     beans.map(b => math.max(0L, b.getCollectionCount)).sum.toDouble)
  }
}

/** The spans of a finished run and what was attributed to them. */
final case class Trace(spans: Vector[Span], spark: Map[Long, SparkCounters],
                       jobsByPhase: Map[String, Long]) {
  private lazy val children: Map[Long, Vector[Span]] = spans.groupBy(_.parent)
  private lazy val byOp: Map[Long, Vector[Span]] = spans.groupBy(_.opId)

  def roots(phase: String): Vector[Span] = spans.filter(s => s.name == "op" && s.phase == phase)

  def inOp(opId: Long): Vector[Span] = byOp.getOrElse(opId, Vector.empty)

  /** Span duration minus the part of it its child spans cover. */
  def selfMs(s: Span): Double = {
    val iv = children.getOrElse(s.id, Vector.empty).map(c => (c.startNs, c.endNs)).sortBy(_._1)
    var covered = 0L
    var end = Long.MinValue
    iv.foreach { case (a, b) =>
      val lo = math.max(a, end)
      if (b > lo) covered += b - lo
      end = math.max(end, b)
    }
    s.durMs - covered / 1e6
  }
}
