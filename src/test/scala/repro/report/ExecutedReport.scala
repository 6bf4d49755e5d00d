package repro.report

import repro.SparkSpec
import repro.core.VStoreConfigurator
import repro.query.QueryEngine
import repro.query.QueryEngine.{CascadeResult, Stage}
import repro.store.SegmentStore
import repro.video.{OperatorModel, SynthVideo, VideoProfile}

/** The executed path end to end: `VideoSec` seconds of jackson and of
  * dashcam are synthesized and ingested into the default configuration's
  * storage formats, then query A runs over jackson and query B over
  * dashcam at every accuracy level, each cascade one Spark job over the
  * stream's cached frames. `ReportSnapshotSpec` pins its lines (the
  * `executed` snapshot) and `Fig11EndToEndBench` checks its results.
  *
  * Every value in the lines is a function of frame counts and the models,
  * so the lines do not depend on how the frames are partitioned. The one
  * exception is the catalog's bytes: a segment's motion sum is added up
  * per partition, so its last bits move with the layout, and the lines
  * print them to 0.1 KB.
  *
  * Known defect, pinned on purpose: the cascade keeps every
  * `round(30 / fps)`-th frame, so it samples the 2/3 option at 1/2
  * (`round(1.5)` = 2). The 0.95 stages of Diff (query A) and OCR (query B)
  * therefore sample 6 000 frames over 400 s where the option's rate gives
  * 8 000. Sampling at the option's own rate moves exactly those two runs'
  * lines.
  */
object ExecutedReport {

  /** Seconds of each stream that are ingested and queried. */
  private val VideoSec = 400

  /** One cascade run at one accuracy level, with the analytic speed of the
    * same stages.
    */
  final case class Run(accuracy: Double, stages: Seq[Stage], result: CascadeResult,
                       analyticSpeed: Double)

  /** One stream: its catalog's row count and stored bytes per storage
    * format label (in label order), and its query's runs in
    * `OperatorModel.accuracyLevels` order.
    */
  final case class Stream(query: String, video: VideoProfile, catalogRows: Long,
                          bytesBySf: Vector[(String, Double)], runs: Vector[Run])

  /** The report at the default configuration, run once per test JVM on the
    * shared session.
    */
  lazy val atDefaults: Vector[Stream] = {
    val spark = SparkSpec.shared
    val cfg = VStoreConfigurator.derive()
    val labels = Reports.sfLabels(cfg)
    Vector(
      ("A", VideoProfile.jackson, OperatorModel.queryA),
      ("B", VideoProfile.dashcam, OperatorModel.queryB),
    ).map { case (query, video, cascade) =>
      val frames = SynthVideo.frames(spark, video, VideoSec).cache()
      try {
        val stored = SegmentStore.ingest(spark, frames, cfg.sfs, video)
        val bytes = SegmentStore.bytesByFormat(stored).toVector
          .map { case (sfId, b) => labels(cfg.sfs(sfId)) -> b }.sortBy(_._1)
        val runs = OperatorModel.accuracyLevels.map { acc =>
          val stages = QueryEngine.stagesFor(cascade, acc, cfg.cfOf, cfg.sfOf)
          Run(acc, stages, QueryEngine.runCascade(spark, frames, video, stages),
            QueryEngine.analyticQuerySpeed(stages))
        }
        Stream(query, video, stored.count(), bytes, runs)
      } finally frames.unpersist()
    }
  }

  /** Per stream: the catalog, then per run the `executed:` line, the
    * analytic speed, and each stage's speed, F1, sampled frames, tp and fn.
    */
  def lines(streams: Seq[Stream]): Vector[String] =
    s"Executed — ${VideoSec} s per stream ingested into every SF, then its query at each accuracy" +:
      streams.toVector.flatMap { s =>
        val catalog = s"${s.video.name} catalog: ${s.catalogRows} rows" +:
          s.bytesBySf.map { case (label, b) => f"  $label%-4s ${b / 1024}%14.1f KB" }
        catalog ++ s.runs.flatMap { r =>
          val perOp = r.stages.map(st => st.op.name -> r.result.perOp(st.op.name))
          val executed = f"Q${s.query} ${s.video.name} F1=${r.accuracy}%.2f executed: " +
            f"${r.result.querySpeed}%.0fx realtime " +
            perOp.map { case (op, o) => f"$op=${o.f1}%.2f" }.mkString(" ")
          executed +: f"  analytic: ${r.analyticSpeed}%.0fx realtime" +: perOp.map { case (op, o) =>
            f"  $op%-7s speed=${o.stageSpeed}%10.1fx F1=${o.f1}%.4f " +
              f"sampled=${o.sampled}%6d tp=${o.tp}%5d fn=${o.fn}%5d"
          }
        }
      }
}
