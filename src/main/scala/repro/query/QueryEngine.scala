package repro.query

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
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

  /** Query speed over a cascade: stage i scans the fraction of video that
    * survived stages 0..i-1 (product of selectivities).
    */
  def analyticQuerySpeed(stages: Seq[Stage]): Double = {
    var fraction = 1.0
    var timePerVideoSec = 0.0
    stages.foreach { st =>
      timePerVideoSec += fraction / analyticStageSpeed(st)
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

  /** Execute a cascade over `frames` (ingest-format frame table of one
    * video) in one Spark job. Stage i charges time only for the fraction of
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
    val rows = frames.select("video", "frame", "frameIdx", "isEvent").queryExecution.toRdd
    val counters = spark.sparkContext
      .runJob(rows, new CascadeCounters(video, stages), rows.partitions.indices)
      .foldLeft(new Array[Long](1 + 3 * stages.size)) { (sum, c) =>
        c.indices.foreach(j => sum(j) += c(j)); sum
      }
    require(counters(0) > 0, "runCascade: the frame table is empty")

    val videoSec = counters(0).toDouble / SynthVideo.Fps
    var fraction = 1.0
    var timePerVideoSec = 0.0
    val perOp = stages.zipWithIndex.map { case (st, i) =>
      val (sampled, tp, fn) = (counters(1 + 3 * i), counters(2 + 3 * i), counters(3 + 3 * i))
      // decode/retrieve the whole video at the CF's sampling rate
      val decodeSec = videoSec / CodecModel.retrievalSpeed(st.sf, st.cf.sampling.fps)
      val opSec = sampled * st.op.perFrameSec(st.cf.pixelsPerFrame)
      val f1 = if (tp == 0) 0.0 else 2.0 * tp / (2.0 * tp + fn)
      // pipelined: the stage's wall time is the max of decode and op time,
      // over the fraction of video it actually scans
      val stageSec = math.max(decodeSec, opSec)
      timePerVideoSec += stageSec * fraction / videoSec
      fraction *= st.op.selectivity
      st.op.name -> OpResult(f1, sampled, tp, fn, decodeSec, opSec, videoSec / stageSec)
    }.toMap
    CascadeResult(perOp, 1.0 / timePerVideoSec)
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
  * (video, frame, frameIdx, isEvent). c(0) counts frames; c(1 + 3i),
  * c(2 + 3i), c(3 + 3i) are stage i's sampled frames, true positives and
  * false negatives. A named class, not a lambda, so that Spark's closure
  * cleaner skips it (see [[QueryEngine]]).
  */
private[query] final class CascadeCounters(video: VideoProfile, stages: Seq[QueryEngine.Stage])
    extends ((TaskContext, Iterator[InternalRow]) => Array[Long]) with Serializable {
  private val everyN = stages.map(st =>
    math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)).toArray
  private val detectProb = stages.map(st => st.op.detectProb(st.cf, video)).toArray
  private val salt = stages.map(st => s"detect-${st.op.name}").toArray

  def apply(task: TaskContext, rows: Iterator[InternalRow]): Array[Long] = {
    val n = everyN.length
    val c = new Array[Long](1 + 3 * n)
    rows.foreach { r =>
      c(0) += 1
      val frameIdx = r.getInt(2)
      var i = 0
      while (i < n) {
        if (frameIdx % everyN(i) == 0) {
          c(1 + 3 * i) += 1
          if (r.getBoolean(3)) {
            val hit = SynthVideo.u01Scala(r.getUTF8String(0).toString, r.getLong(1), salt(i)) < detectProb(i)
            c((if (hit) 2 else 3) + 3 * i) += 1
          }
        }
        i += 1
      }
    }
    c
  }
}
