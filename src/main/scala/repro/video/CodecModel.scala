package repro.video

import repro.video.Knobs._
import repro.video.Formats._

/** Analytic encoder/decoder/disk model replacing x264 + NVDEC + the HDD
  * array (see DESIGN.md substitution table).
  *
  * Calibration anchors from the paper:
  *  - Fig. 3a: speed steps span ~40x encoding speed and ~2.5x encoded size.
  *  - Fig. 3b: chunk skipping speeds decoding by up to ~6x when the consumer
  *    sampling interval exceeds the keyframe interval.
  *  - Fig. 4b: one step of image quality changes storage cost ~5x.
  *  - Table 2: golden format (best-720p30, 250-slowest) decodes at ~23x
  *    realtime; encoded sizes are 1-2 orders of magnitude below raw.
  *  - Table 3: a stream needs ~8.5 cores to ingest into the 4 derived SFs
  *    with no budget, so budgets of 8/4/3/2/1 cores force adaptation.
  *  - §6.3: disk array sustains ~1 GB/s; raw frames can be read selectively.
  *
  * All speeds are in multiples of video realtime (1.0 = processing one
  * second of video per wall second); costs in cores are the reciprocal of
  * per-core realtime speed.
  */
object CodecModel {

  /** Effective disk-array read bandwidth, bytes/sec. The paper's platform
    * sustains ~1 GB/s raw; its reported RAW retrieval range (1137x-34132x on
    * ~61 KB frames) implies ~2 GB/s effective sequential+readahead speed,
    * which we adopt.
    */
  val DiskBytesPerSec: Double = 2e9

  /** RAW frames are stored packed at 1 byte/pixel (calibrated to the paper's
    * Table 2: SF3 raw 200p30 = 1843 KB/s ~= 71 KB/frame). Encoded-size
    * modelling still uses the 1.5 B/px YUV420 rate as its base.
    */
  val RawStoredBytesPerPixel: Double = 1.0

  /** Pixel rate of the full-fidelity ingest stream (720p x 30 fps). */
  val FullPixelRate: Double = Fidelity.full.pixelRate

  // --- encoded size -------------------------------------------------------

  // The per-knob tables below are indexed by the knob's rank, poorest
  // (or shortest, or slowest) value first.

  /** Size factor by `ImageQuality.rank`. */
  private val qualitySizeFactor: Array[Double] = Array(
    0.0016, // worst
    0.0033, // bad
    0.0066, // good: CRF 23 (5x below best, Fig. 4b)
    0.0330, // best: CRF 0, near-lossless, large
  )

  /** Size factor by `KeyframeInterval.rank` (5, 10, 50, 100, 250 frames). */
  private val kfSizeFactor: Array[Double] = Array(2.00, 1.55, 1.15, 1.05, 1.00)

  /** Size factor by `SpeedStep.rank`. */
  private val stepSizeFactor: Array[Double] = Array(
    1.00, // slowest
    1.15, // slow
    1.40, // med
    1.80, // fast
    2.50, // fastest: Fig. 3a, up to 2.5x size
  )

  /** Stored bytes per second of video for one storage format of one video.
    * RAW stores uncompressed frames; encoded size scales with raw pixel rate,
    * quality, coding knobs, and the video's motion intensity. Sparse
    * sampling reduces temporal redundancy, mildly inflating the per-frame
    * compressed size.
    */
  def storedBytesPerSec(sf: StorageFormat, video: VideoProfile): Double = {
    val f = sf.fidelity
    sf.coding match {
      case Raw => f.pixelsPerFrame * RawStoredBytesPerPixel * f.sampling.fps
      case Encoded(step, kf) =>
        val temporalPenalty = math.pow(FrameSampling.IngestFps / f.sampling.fps, 0.25)
        f.rawBytesPerSec * qualitySizeFactor(f.quality.rank) * kfSizeFactor(kf.rank) *
          stepSizeFactor(step.rank) * video.motionFactor * temporalPenalty
    }
  }

  // --- encoding (ingestion) ----------------------------------------------

  /** Per-core encode speed at full 720p30 pixel rate, x realtime, by
    * `SpeedStep.rank` (slowest..fastest). Spans 40x across speed steps
    * (Fig. 3a); calibrated so the four SFs the configurator derives need
    * ~8.5 cores/stream unconstrained (Table 3).
    */
  private val stepEncodeSpeedAtFull: Array[Double] = Array(0.125, 0.55, 1.70, 3.40, 5.20)

  /** Encode speed of one format on one core, x realtime. RAW bypasses the
    * encoder; only a cheap resize/sample pass remains (modelled as memcpy at
    * 40x full-rate throughput). Keyframe interval barely affects encoding
    * speed (Fig. 3b note). Heavy motion encodes slower.
    */
  def encodeSpeedPerCore(sf: StorageFormat, video: VideoProfile): Double = {
    val rateRatio = sf.fidelity.pixelRate / FullPixelRate
    sf.coding match {
      case Raw => 40.0 / math.max(rateRatio, 1e-9) / video.motionFactor.max(1.0)
      case Encoded(step, _) =>
        stepEncodeSpeedAtFull(step.rank) / math.max(rateRatio, 1e-9) /
          math.pow(video.motionFactor, 0.5)
    }
  }

  /** Cores needed to transcode one realtime stream into `sf` (>= 0). */
  def ingestCores(sf: StorageFormat, video: VideoProfile): Double =
    1.0 / encodeSpeedPerCore(sf, video)

  /** Cores needed for a whole storage-format set, one stream. */
  def ingestCores(sfs: Seq[StorageFormat], video: VideoProfile): Double =
    sfs.map(ingestCores(_, video)).sum

  // --- decoding (retrieval) ----------------------------------------------

  /** Decoder pixel throughput (px/s) by `SpeedStep.rank`
    * (slowest..fastest); faster-encoded streams are also cheaper to decode.
    */
  private val stepDecodePxPerSec: Array[Double] = Array(6.5e8, 7.0e8, 7.8e8, 8.8e8, 1.0e9)

  /** Fixed per-frame decode overhead, seconds. */
  private val decodeFrameOverheadSec = 1.0e-4

  /** Frames the decoder must touch per second of video, given the stored
    * sampling rate and the consumer's (<= stored) sampling rate. If the
    * consumer's inter-sample gap N (in stored frames) exceeds the keyframe
    * interval M, whole chunks are skipped and only ~(M+1)/2 frames per
    * sample are decoded (decode from the chunk's keyframe to the sample).
    */
  def framesDecodedPerVideoSec(storedFps: Double, consumedFps: Double, kf: KeyframeInterval): Double = {
    require(consumedFps <= storedFps + 1e-9, "consumer cannot sample above stored rate")
    val n = storedFps / consumedFps // stored frames between consumed samples
    if (n <= kf.frames) storedFps
    else consumedFps * (kf.frames + 1) / 2.0
  }

  /** Retrieval speed (x realtime) of a storage format when a consumer draws
    * frames at `consumedFps`. Encoded: decoder-bound. RAW: disk-bound, and
    * frames can be read selectively so sparse consumers read fewer bytes.
    */
  def retrievalSpeed(sf: StorageFormat, consumedFps: Double): Double = {
    val f = sf.fidelity
    val fpsWanted = math.min(consumedFps, f.sampling.fps)
    sf.coding match {
      case Raw =>
        // frames can be read selectively, so sparse consumers read less
        val bytesPerVideoSec = f.pixelsPerFrame * RawStoredBytesPerPixel * fpsWanted
        DiskBytesPerSec / bytesPerVideoSec
      case Encoded(step, kf) =>
        val frames = framesDecodedPerVideoSec(f.sampling.fps, fpsWanted, kf)
        val perFrameSec = decodeFrameOverheadSec + f.pixelsPerFrame / stepDecodePxPerSec(step.rank)
        1.0 / (frames * perFrameSec)
    }
  }
}
