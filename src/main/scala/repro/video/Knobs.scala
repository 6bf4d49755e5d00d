package repro.video

/** Video-format knob domains (paper Table 1).
  *
  * Fidelity knobs control the quantity/quality of visual information of a
  * (raw or encoded) frame sequence; coding knobs control how an encoded
  * version trades encoder/decoder time for on-disk size. A combination of
  * fidelity knob values is a [[Fidelity]] option (space F, |F| = 600); a
  * combination of coding knob values is a [[Coding]] option (space C,
  * |C| = 26 including the RAW bypass), so |F x C| = 15,600 — the "15K"
  * storage-format space of the paper.
  */
object Knobs {

  /** Image quality (x264 CRF 50/40/23/0). `qv` in (0,1] is the visual-quality
    * signal used by accuracy models; rank orders richer-than.
    */
  sealed abstract class ImageQuality(val rank: Int, val name: String, val crf: Int, val qv: Double) {
    override def toString: String = name
  }
  object ImageQuality {
    case object Worst extends ImageQuality(0, "worst", 50, 0.25)
    case object Bad   extends ImageQuality(1, "bad",   40, 0.55)
    case object Good  extends ImageQuality(2, "good",  23, 0.85)
    case object Best  extends ImageQuality(3, "best",   0, 1.00)
    val all: Vector[ImageQuality] = Vector(Worst, Bad, Good, Best)
  }

  /** Crop factor: fraction of frame area retained (50/75/100%). */
  sealed abstract class CropFactor(val rank: Int, val fraction: Double) {
    override def toString: String = s"${(fraction * 100).toInt}%"
  }
  object CropFactor {
    case object C50  extends CropFactor(0, 0.50)
    case object C75  extends CropFactor(1, 0.75)
    case object C100 extends CropFactor(2, 1.00)
    val all: Vector[CropFactor] = Vector(C50, C75, C100)
  }

  /** Output resolution, 16:9, ten rungs from 60p to 720p (paper Table 1). */
  final case class Resolution(width: Int, height: Int) {
    def pixels: Long = width.toLong * height
    /** Position in `Resolution.ten` (poorest first); only the ten rungs
      * have one, so an off-rung resolution cannot share a rung's id.
      */
    def rank: Int = {
      val r = if (height >= 0 && height < Resolution.rankOfHeight.length) Resolution.rankOfHeight(height) else -1
      require(r >= 0 && Resolution.ten(r).width == width, s"${width}x$height is not a rung of Resolution.ten")
      r
    }
    override def toString: String = s"${height}p"
  }
  object Resolution {
    // Exactly ten rungs ("total 10", paper Table 1), covering every height
    // that appears in the paper's Table 2 (60..720 incl. 600p).
    val ten: Vector[Resolution] = Vector(
      Resolution(106, 60), Resolution(178, 100), Resolution(256, 144),
      Resolution(320, 180), Resolution(356, 200), Resolution(640, 360),
      Resolution(712, 400), Resolution(960, 540), Resolution(1068, 600),
      Resolution(1280, 720),
    )
    /** Rung index by height; -1 where no rung has that height. */
    private val rankOfHeight: Array[Int] = {
      val a = Array.fill(ten.last.height + 1)(-1)
      ten.indices.foreach(i => a(ten(i).height) = i)
      a
    }
  }

  /** Frame sampling rate: fraction of the ingest stream's frames retained. */
  sealed abstract class FrameSampling(val rank: Int, val fraction: Double, val label: String) {
    /** Frames per second after sampling the ingest stream. */
    def fps: Double = FrameSampling.IngestFps * fraction
    override def toString: String = label
  }
  object FrameSampling {
    /** Frames per second of the ingest stream (720p30). */
    val IngestFps = 30
    case object S1_30 extends FrameSampling(0, 1.0 / 30, "1/30")
    case object S1_5  extends FrameSampling(1, 1.0 / 5,  "1/5")
    case object S1_2  extends FrameSampling(2, 1.0 / 2,  "1/2")
    case object S2_3  extends FrameSampling(3, 2.0 / 3,  "2/3")
    case object S1    extends FrameSampling(4, 1.0,      "1")
    val all: Vector[FrameSampling] = Vector(S1_30, S1_5, S1_2, S2_3, S1)
  }

  /** Encoder speed step (x264 preset). Faster steps encode/decode faster but
    * inflate size (paper Fig. 3a: up to 40x speed, 2.5x size).
    */
  sealed abstract class SpeedStep(val rank: Int, val name: String) {
    override def toString: String = name
  }
  object SpeedStep {
    case object Slowest extends SpeedStep(0, "slowest")
    case object Slow    extends SpeedStep(1, "slow")
    case object Med     extends SpeedStep(2, "med")
    case object Fast    extends SpeedStep(3, "fast")
    case object Fastest extends SpeedStep(4, "fastest")
    val all: Vector[SpeedStep] = Vector(Slowest, Slow, Med, Fast, Fastest)
  }

  /** Keyframe interval in frames; chunk = group of pictures. Smaller
    * intervals let sparse samplers skip chunks while decoding (Fig. 3b) at
    * higher storage cost.
    */
  final case class KeyframeInterval(frames: Int) {
    require(KeyframeInterval.values.contains(frames), s"invalid keyframe interval $frames")
    /** Position in `KeyframeInterval.values` (shortest first). */
    val rank: Int = KeyframeInterval.values.indexOf(frames)
    override def toString: String = frames.toString
  }
  object KeyframeInterval {
    val values: Vector[Int] = Vector(5, 10, 50, 100, 250)
    val all: Vector[KeyframeInterval] = values.map(KeyframeInterval(_))
  }

  /** A fidelity option: point in the 4-D space F. */
  final case class Fidelity(
      quality: ImageQuality,
      crop: CropFactor,
      resolution: Resolution,
      sampling: FrameSampling,
  ) {
    /** Dense id in 0 until `Fidelity.count`: the position of this option
      * in `Fidelity.space`, from the knob ranks.
      */
    val id: Int =
      ((quality.rank * CropFactor.all.size + crop.rank) * Resolution.ten.size + resolution.rank) *
        FrameSampling.all.size + sampling.rank

    /** Pixels per (cropped) frame. */
    def pixelsPerFrame: Double = resolution.pixels * crop.fraction
    /** Pixels consumed per second of video. */
    def pixelRate: Double = pixelsPerFrame * sampling.fps
    /** Raw (uncompressed, YUV420: 1.5 B/px) bytes per second of video. */
    def rawBytesPerSec: Double = pixelsPerFrame * 1.5 * sampling.fps

    /** Knob-wise >=: this fidelity can be degraded into `other`. */
    def richerOrEqual(other: Fidelity): Boolean =
      quality.rank >= other.quality.rank &&
        crop.rank >= other.crop.rank &&
        resolution.height >= other.resolution.height &&
        sampling.rank >= other.sampling.rank

    /** Strict partial order: >= on all knobs and > on at least one. */
    def richerThan(other: Fidelity): Boolean = richerOrEqual(other) && this != other

    override def toString: String =
      s"$quality-$resolution-$sampling-$crop"
  }

  object Fidelity {
    /** The ingest fidelity: 720p30, full frame, best quality (ground truth). */
    val full: Fidelity =
      Fidelity(ImageQuality.Best, CropFactor.C100, Resolution.ten.last, FrameSampling.S1)

    /** Knob-wise maximum of two fidelity options (least upper bound). */
    def max(a: Fidelity, b: Fidelity): Fidelity = Fidelity(
      if (a.quality.rank >= b.quality.rank) a.quality else b.quality,
      if (a.crop.rank >= b.crop.rank) a.crop else b.crop,
      if (a.resolution.height >= b.resolution.height) a.resolution else b.resolution,
      if (a.sampling.rank >= b.sampling.rank) a.sampling else b.sampling,
    )

    /** |F| = 4 * 3 * 10 * 5 = 600: the number of fidelity options, and
      * the bound of `Fidelity.id`.
      */
    val count: Int = ImageQuality.all.size * CropFactor.all.size * Resolution.ten.size * FrameSampling.all.size

    /** Full enumeration of F (`count` options), in `id` order. */
    lazy val space: Vector[Fidelity] = for {
      q <- ImageQuality.all
      c <- CropFactor.all
      r <- Resolution.ten
      s <- FrameSampling.all
    } yield Fidelity(q, c, r, s)
  }

  /** A coding option: encoded (speed step + keyframe interval) or RAW bypass.
    * Quality/coding knobs are meaningless for RAW (paper Table 1 note).
    */
  sealed trait Coding {
    def isRaw: Boolean
    /** Dense id in 0 until `Coding.count`: the position of this option in
      * `Coding.space`.
      */
    def id: Int
  }
  final case class Encoded(step: SpeedStep, kfInterval: KeyframeInterval) extends Coding {
    def isRaw = false
    val id: Int = step.rank * KeyframeInterval.values.size + kfInterval.rank
    override def toString: String = s"${kfInterval}-${step}"
  }
  case object Raw extends Coding {
    def isRaw = true
    val id: Int = Coding.count - 1
    override def toString: String = "RAW"
  }

  object Coding {
    /** |C| = 5 * 5 + 1 = 26: the number of coding options, and the bound
      * of `Coding.id`.
      */
    val count: Int = SpeedStep.all.size * KeyframeInterval.values.size + 1

    /** Full enumeration of C (`count` options), in `id` order. */
    lazy val space: Vector[Coding] =
      (for { s <- SpeedStep.all; k <- KeyframeInterval.all } yield Encoded(s, k): Coding) :+ Raw

    /** The slowest (smallest-size) coding option: keyframe interval 250,
      * slowest preset — the golden format's coding (paper §4.3).
      */
    val slowestSmallest: Coding = Encoded(SpeedStep.Slowest, KeyframeInterval(250))
  }
}
