package repro.query

import scala.annotation.tailrec
import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan, Project}
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, SynthVideo, VideoProfile}
import repro.video.OperatorModel.{Consumer, Operator}

/** Query execution: a cascade of operators streamed over stored segments.
  *
  * Two layers:
  *  - [[analyticStageSpeed]] / [[analyticQuerySpeed]] — closed-form speeds
  *    from the cost models (what the configurator reasons about);
  *  - [[runCascade]] — the executed cascade, one Spark job over the frames:
  *    `runJob` over the physical plan's rows (`queryExecution.toRdd`, read
  *    by ordinal, so no encoder or per-frame object is built) streams each
  *    frame once through every stage, sampling it at the stage's
  *    consumption rate and running the per-frame detector, and returns one
  *    array of counters per partition (frames, and each stage's
  *    sampled/tp/fn). The driver sums those arrays and derives decode time
  *    (simulated), operator time, F1 and speeds from the totals. Every total
  *    is a plain sum over frames, so the result does not depend on how
  *    frames fall across partitions (oracle-checked in tests).
  *
  * The task function is a named class, [[CascadeCounters]], handed to the
  * `(TaskContext, Iterator)` overload of `runJob`: Spark's closure cleaner
  * returns at once for a class that is not a closure, whereas for a lambda,
  * or for the wrapper lambda the other overloads build, it re-reads and
  * parses class bytecode on every call, which cost more driver time than
  * the job itself.
  *
  * Planning is memoized per cached frame window. Catalyst's analysis is
  * cheap, but optimizing, physical planning and codegen of a fresh
  * `frames.select(...)` cost about as much driver time as the job on a
  * 400 s window, and retrospective queries run cascades over the same
  * stored windows again and again. A window takes one of two paths in
  * [[plannedRows]]:
  *  - memoized, when its cache-substituted plan
  *    (`queryExecution.withCachedData`) is projections and filters over
  *    exactly one cached table, and that plan and every cached plan it
  *    reads are deterministic. At most [[PlanMemoCap]] such windows are
  *    kept, least recently used out first, keyed by the plan canonicalized
  *    (equal windows built apart share an entry) and the table's cache by
  *    identity (an `unpersist()` then `cache()` gives an equal plan over
  *    new blocks, and must miss). Its first job runs every partition and
  *    keeps those whose task counted a frame (`c(0)`); every later job runs
  *    only those.
  *  - planned per call, for any other input (uncached frames,
  *    `repartition`, unions, a cached table whose own plan is not
  *    deterministic): its one job runs every partition.
  * Pruning is exact: the key pins the cached blocks, and with them the
  * `SparkContext`, and a deterministic plan over them yields the same rows
  * from the same partitions, even from blocks recomputed from lineage; an
  * empty partition adds only zeros to the summed counters. A table cached
  * from, say, `rand()` could put rows where none were, so it is never
  * memoized.
  *
  * Speed metric: video duration / processing delay, in multiples of
  * realtime; retrieval and consumption are pipelined, so a stage's speed is
  * min(retrievalSpeed, consumptionSpeed) and a query's wall time sums the
  * stage times over the fraction of video each stage scans (paper §2.2).
  */
object QueryEngine {

  /** One stage of a query: the operator, its consumption fidelity, and the
    * storage format it reads from.
    */
  final case class Stage(op: Operator, cf: Fidelity, sf: StorageFormat) {
    require(sf.fidelity.richerOrEqual(cf), s"R1 violated: $sf cannot serve CF<$cf>")
  }

  /** Pipelined speed of one stage, x realtime. */
  def analyticStageSpeed(stage: Stage): Double = {
    val retr = CodecModel.retrievalSpeed(stage.sf, stage.cf.sampling.fps)
    val cons = stage.op.consumptionSpeed(stage.cf)
    math.min(retr, cons)
  }

  /** Analytic query speed over a cascade (see [[cascadeSpeed]]). */
  def analyticQuerySpeed(stages: Seq[Stage]): Double =
    cascadeSpeed(stages, stages.map(analyticStageSpeed))

  /** Query speed over a cascade from its stage speeds: stage i scans the
    * fraction of video that survived stages 0..i-1 (product of
    * selectivities).
    */
  private def cascadeSpeed(stages: Seq[Stage], stageSpeeds: Seq[Double]): Double = {
    var fraction = 1.0
    var timePerVideoSec = 0.0
    stages.lazyZip(stageSpeeds).foreach { (st, speed) =>
      timePerVideoSec += fraction / speed
      fraction *= st.op.selectivity
    }
    1.0 / timePerVideoSec
  }

  /** Aggregated result of one cascade run. */
  final case class CascadeResult(perOp: Map[String, OpResult], querySpeed: Double)
  /** One stage's totals. There is no false-positive count: the detector has
    * precision 1 (`OperatorModel.detectProb`).
    */
  final case class OpResult(f1: Double, sampled: Long, tp: Long, fn: Long,
                            decodeSec: Double, opSec: Double, stageSpeed: Double)

  object OpResult {
    /** The former 8-field form with its false-positive count, which must be
      * 0; perfbench's `ChecksSpec` still builds results this way. Remove it
      * together with that call.
      */
    def apply(f1: Double, sampled: Long, tp: Long, fn: Long, fp: Long,
              decodeSec: Double, opSec: Double, stageSpeed: Double): OpResult = {
      require(fp == 0L, s"OpResult: fp $fp, but the detector has precision 1")
      OpResult(f1, sampled, tp, fn, decodeSec, opSec, stageSpeed)
    }
  }

  /** Execute a cascade over `frames` (ingest-format frame table of `video`)
    * in one Spark job. Stage i charges time only for the fraction of
    * video that survived stages 0..i-1 (the cumulative selectivity, as
    * segment-level early exit).
    */
  def runCascade(spark: SparkSession, frames: DataFrame, video: VideoProfile,
                 stages: Seq[Stage]): CascadeResult = {
    require(stages.nonEmpty, "runCascade: the cascade has no stages")
    val names = stages.map(_.op.name)
    val repeated = names.diff(names.distinct).distinct
    require(repeated.isEmpty, s"runCascade: operator ${repeated.mkString(", ")} " +
      "appears in more than one stage, but per-op results are keyed by operator name")
    val perPartition = plannedRows(frames.select("frame", "isEvent"))
      .run(spark.sparkContext, new CascadeCounters(video, stages))
    val counters = perPartition.foldLeft(new Array[Long](1 + 3 * stages.size)) { (sum, c) =>
      c.indices.foreach(j => sum(j) += c(j)); sum
    }
    require(counters(0) > 0, "runCascade: the frame table is empty")

    val videoSec = counters(0).toDouble / SynthVideo.Fps
    val perOp = stages.zipWithIndex.map { case (st, i) =>
      val (sampled, tp, fn) = (counters(1 + 3 * i), counters(2 + 3 * i), counters(3 + 3 * i))
      // decode/retrieve the whole video at the CF's sampling rate
      val decodeSec = videoSec / CodecModel.retrievalSpeed(st.sf, st.cf.sampling.fps)
      val opSec = sampled * st.op.perFrameSec(st.cf.pixelsPerFrame)
      val f1 = if (tp == 0) 0.0 else 2.0 * tp / (2.0 * tp + fn)
      // pipelined: the stage's wall time is the max of decode and op time
      val stageSec = math.max(decodeSec, opSec)
      st.op.name -> OpResult(f1, sampled, tp, fn, decodeSec, opSec, videoSec / stageSec)
    }
    CascadeResult(perOp.toMap, cascadeSpeed(stages, perOp.map(_._2.stageSpeed)))
  }

  /** The most windows [[plannedRows]] keeps planned. */
  private[query] val PlanMemoCap = 32

  /** A planned window's memo key: `plan` by value, `cache` by identity. The
    * cache pins the `SparkContext` too: a new context has a new session
    * state and so new caches, and `newSession()` shares both.
    */
  private final class PlanKey(private val plan: LogicalPlan, private val cache: AnyRef) {
    override def equals(o: Any): Boolean = o match {
      case k: PlanKey => (k.cache eq cache) && k.plan == plan
      case _ => false
    }
    override val hashCode: Int = (plan, System.identityHashCode(cache)).##
  }

  /** A window's planned rows and, once its first job has run, the partitions
    * that held at least one of its rows (see [[QueryEngine]]).
    */
  private[query] final class PlannedWindow(val rows: RDD[InternalRow]) {
    @volatile private var live: Option[Seq[Int]] = None

    /** The partitions the next job over this window runs. */
    def partitions: Seq[Int] = live.getOrElse(rows.partitions.indices)

    /** `task`'s counters of each partition run, in one job; the first run
      * keeps the partitions whose task counted a frame, `c(0)`. A window
      * planned per call keeps them too, but is never run again.
      */
    def run(sc: SparkContext, task: CascadeCounters): Array[Array[Long]] = {
      val ran = partitions
      val perPartition = sc.runJob(rows, task, ran)
      if (live.isEmpty) live = Some(ran.zip(perPartition).collect { case (p, c) if c(0) > 0 => p })
      perPartition
    }
  }

  /** Planned windows, in access order; guarded by its own lock. */
  private val planMemo =
    new java.util.LinkedHashMap[PlanKey, PlannedWindow](2 * PlanMemoCap, 0.75f, true) {
      override protected def removeEldestEntry(
          e: java.util.Map.Entry[PlanKey, PlannedWindow]): Boolean = size > PlanMemoCap
    }

  private[query] def planMemoSize: Int = planMemo.synchronized(planMemo.size)

  /** `df`'s physical rows (`queryExecution.toRdd`) as a window, memoized or
    * planned per call (see [[QueryEngine]]).
    */
  private[query] def plannedRows(df: DataFrame): PlannedWindow = {
    val qe = df.queryExecution
    val plan = qe.withCachedData
    admittedCache(plan) match {
      case None => new PlannedWindow(qe.toRdd)
      case Some(cache) =>
        val key = new PlanKey(plan.canonicalized, cache)
        Option(planMemo.synchronized(planMemo.get(key))).getOrElse {
          val window = new PlannedWindow(qe.toRdd)
          planMemo.synchronized(Option(planMemo.putIfAbsent(key, window)).getOrElse(window))
        }
    }
  }

  /** The cache of the one table under a `Project`/`Filter` chain, if `plan`
    * and every cached plan it reads are deterministic; None for any other
    * plan.
    */
  private def admittedCache(plan: LogicalPlan): Option[AnyRef] = {
    @tailrec def cachedScan(p: LogicalPlan): Option[InMemoryRelation] = p match {
      case r: InMemoryRelation => Some(r)
      case Project(_, child) => cachedScan(child)
      case Filter(_, child) => cachedScan(child)
      case _ => None
    }
    // a cached table is a leaf of the plan over it, so `plan.deterministic`
    // alone does not look inside it
    def deterministic(p: LogicalPlan): Boolean =
      p.deterministic &&
        p.collect { case r: InMemoryRelation => r }.forall(r => deterministic(r.cacheBuilder.logicalPlan))
    cachedScan(plan).filter(_ => deterministic(plan)).map(_.cacheBuilder)
  }

  /** Build the stages of a cascade from a consumer->CF and CF->SF mapping. */
  def stagesFor(cascade: Seq[Operator], accuracy: Double,
                cfOf: Consumer => Fidelity, sfOf: Consumer => StorageFormat): Seq[Stage] =
    cascade.map { op =>
      val c = Consumer(op, accuracy)
      Stage(op, cfOf(c), sfOf(c))
    }
}

/** [[QueryEngine.runCascade]]'s task: one partition's counters over rows of
  * (frame, isEvent) of `video`'s frame table. Sampling counts from a frame's
  * position in its segment, `frame % SegmentFrames`. c(0) counts frames;
  * c(1 + 3i), c(2 + 3i), c(3 + 3i) are stage i's sampled frames, true
  * positives and false negatives. A named class, not a lambda, so that
  * Spark's closure cleaner skips it (see [[QueryEngine]]).
  */
private[query] final class CascadeCounters(video: VideoProfile, stages: Seq[QueryEngine.Stage])
    extends ((TaskContext, Iterator[InternalRow]) => Array[Long]) with Serializable {
  private val everyN = stages.map(st =>
    math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)).toArray
  private val detectProb = stages.map(st => st.op.detectProb(st.cf, video)).toArray
  private val draw = stages.map(st => new SynthVideo.U01Draw(video.name, s"detect-${st.op.name}")).toArray

  def apply(task: TaskContext, rows: Iterator[InternalRow]): Array[Long] = {
    val n = everyN.length
    val c = new Array[Long](1 + 3 * n)
    rows.foreach { r =>
      c(0) += 1
      val pos = (r.getLong(0) % SynthVideo.SegmentFrames).toInt
      var i = 0
      while (i < n) {
        if (pos % everyN(i) == 0) {
          c(1 + 3 * i) += 1
          if (r.getBoolean(1)) {
            val hit = draw(i)(r.getLong(0)) < detectProb(i)
            c((if (hit) 2 else 3) + 3 * i) += 1
          }
        }
        i += 1
      }
    }
    c
  }
}
