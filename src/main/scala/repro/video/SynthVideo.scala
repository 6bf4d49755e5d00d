package repro.video

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}

/** Deterministic synthetic video-frame tables (substitute for the six
  * benchmark videos — see DESIGN.md).
  *
  * A frame table holds one stream at the ingest format (720p30): per frame,
  * its segment id (8-second segments, 240 frames each, §4.1/§5), number, a
  * ground-truth event flag (is there a car/plate in it) and a local motion
  * level. Readers are handed the stream's `VideoProfile`. All columns are
  * pure functions of (video name, frame number) via xxhash64, so every run
  * — and the DuckDB oracle — sees identical data.
  */
object SynthVideo {

  /** Frames per second of the ingest stream. */
  val Fps: Int = Knobs.FrameSampling.IngestFps

  /** Frames per segment (8-second segments). */
  val SegmentFrames: Int = 8 * Fps

  /** Uniform [0,1) pseudo-random column keyed on (video, frame, salt). */
  def u01(videoCol: org.apache.spark.sql.Column, frameCol: org.apache.spark.sql.Column,
          salt: String): org.apache.spark.sql.Column =
    (pmod(xxhash64(videoCol, frameCol, lit(salt)), lit(1000000L)).cast(DoubleType) / 1000000.0)

  /** Generate `durationSec` seconds of frames for one video profile. */
  def frames(spark: SparkSession, video: VideoProfile, durationSec: Int): DataFrame = {
    val n = durationSec.toLong * Fps
    val vid = lit(video.name)
    spark.range(n).select(
      (col("id") / SegmentFrames).cast(LongType) as "segId",
      col("id") as "frame",
      (u01(vid, col("id"), "event") < video.eventRate) as "isEvent",
      (u01(vid, col("id"), "motion") * 2.0 * video.motionFactor) as "motion",
    )
  }

  /** The same uniform draw computed driver/executor-side in Scala, for the
    * per-frame detection decision inside the cascade's `runJob` task (must
    * match the distribution, not the exact SQL hash values — detection uses
    * its own salt so no cross-check needs bit-equality).
    */
  def u01Scala(video: String, frame: Long, salt: String): Double = {
    val h = scala.util.hashing.MurmurHash3.stringHash(s"$video/$frame/$salt")
    ((h & 0x7fffffffL).toDouble) / 0x80000000L.toDouble
  }
}
