package repro.video

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType}
import scala.util.hashing.MurmurHash3

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
  def u01Scala(video: String, frame: Long, salt: String): Double =
    u01OfHash(MurmurHash3.stringHash(s"$video/$frame/$salt"))

  private def u01OfHash(h: Int): Double = ((h & 0x7fffffffL).toDouble) / 0x80000000L.toDouble

  /** `u01Scala(video, _, salt)` without building the key string: it keeps
    * `MurmurHash3.stringHash`'s state after `"$video/"` and streams the
    * frame's digits and `"/$salt"` through it, two chars per `mix` as
    * `stringHash` does, so each draw equals `u01Scala`'s bit for bit and
    * allocates nothing.
    */
  final class U01Draw(video: String, salt: String) extends Serializable {
    private val tail = "/" + salt
    private val prefixLen = video.length + 1
    // the state after the prefix's whole char pairs, and its odd last char (-1: none)
    private val (prefixHash, prefixPending) = {
      val prefix = video + "/"
      var h = MurmurHash3.stringSeed
      var i = 0
      while (i + 1 < prefix.length) {
        h = MurmurHash3.mix(h, (prefix.charAt(i) << 16) + prefix.charAt(i + 1))
        i += 2
      }
      (h, if (i < prefix.length) prefix.charAt(i).toInt else -1)
    }

    def apply(frame: Long): Double = {
      var unit = 1L // the place value of the frame's next digit
      while (frame / unit >= 10 || frame / unit <= -10) unit *= 10
      var sign = frame < 0
      var len = prefixLen + tail.length
      var h = prefixHash
      var pending = prefixPending
      var t = 0
      // the chars after the prefix: the frame as `Long.toString` writes it, then the tail
      while (t < tail.length) {
        val ch =
          if (sign) { sign = false; len += 1; '-'.toInt }
          else if (unit > 0) {
            val digit = '0' + math.abs((frame / unit) % 10).toInt
            unit /= 10; len += 1; digit
          } else { t += 1; tail.charAt(t - 1).toInt }
        if (pending < 0) pending = ch
        else { h = MurmurHash3.mix(h, (pending << 16) + ch); pending = -1 }
      }
      if (pending >= 0) h = MurmurHash3.mixLast(h, pending)
      u01OfHash(MurmurHash3.finalizeHash(h, len))
    }
  }
}
