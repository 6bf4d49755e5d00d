package repro.video

import repro.video.Knobs._

/** The six operators of the two ported query engines (paper Fig. 2, §5):
  * NoScope's Diff / S-NN / NN (query A) and OpenALPR's Motion / License /
  * OCR (query B). Substitutes the real CV implementations (see DESIGN.md)
  * with:
  *
  *  - a per-frame execution cost `a_op + pixels/theta_op` seconds, calibrated
  *    to the consumption speeds in the paper's Table 2 (e.g. NN ~4x realtime
  *    at good-600p-2/3, Motion ~25,000x at bad-144p-1/30);
  *  - an analytic accuracy surface, monotone non-decreasing in every
  *    fidelity knob (paper observation O1), with image quality not
  *    affecting cost (O2) and lower quality amplifying resolution
  *    sensitivity (the §2.4 knob-interaction example);
  *  - a per-frame detection probability for the executable simulator such
  *    that empirical F1 over many frames converges to the analytic accuracy
  *    (detect positives with p = a/(2-a), no false positives, so
  *    F1 = 2p/(1+p) = a).
  */
object OperatorModel {

  /** Accuracy-surface parameters; every loss term is >= 0 and decreasing in
    * its knob, so accuracy = prod(1 - loss) is monotone (O1).
    *
    * @param lq   image-quality loss scale
    * @param iota interaction: low quality amplifies resolution loss by (1 + iota*(1-qv))
    * @param lr   resolution loss scale, shaped by gr
    * @param ls   sampling loss scale, shaped by gs
    * @param lc   crop loss scale (linear)
    */
  final case class AccuracyParams(lq: Double, iota: Double, lr: Double, gr: Double,
                                  ls: Double, gs: Double, lc: Double)

  /** One operator: identity, per-frame cost, accuracy surface, and cascade
    * selectivity (fraction of scanned video passed to the next operator).
    */
  final case class Operator(
      name: String,
      engine: String,               // "noscope" (GPU) or "alpr" (CPU)
      frameOverheadSec: Double,     // a_op
      pixelsPerSec: Double,         // theta_op
      acc: AccuracyParams,
      selectivity: Double,
  ) {
    /** Seconds to consume one frame of `pixels` pixels. */
    def perFrameSec(pixels: Double): Double = frameOverheadSec + pixels / pixelsPerSec

    /** Consumption speed in multiples of video realtime at fidelity `f`:
      * the operator consumes `f.sampling.fps` frames per video-second.
      * Image quality does not appear — observation O2.
      */
    def consumptionSpeed(f: Fidelity): Double =
      1.0 / (f.sampling.fps * perFrameSec(f.pixelsPerFrame))

    /** Consumption cost (reciprocal of speed): wall seconds per video second. */
    def consumptionCost(f: Fidelity): Double = 1.0 / consumptionSpeed(f)

    /** Analytic accuracy (F1 vs the full-fidelity run) at fidelity `f`. */
    def accuracy(f: Fidelity): Double = {
      val p = acc
      val qv = f.quality.qv
      val lossQ = p.lq * (1.0 - qv)
      val r = f.resolution.height / 720.0
      val lossR = p.lr * math.pow(1.0 - r, p.gr) * (1.0 + p.iota * (1.0 - qv))
      val s = f.sampling.fraction
      val lossS = p.ls * math.pow(1.0 - s, p.gs)
      val lossC = p.lc * (1.0 - f.crop.fraction)
      val a = (1.0 - math.min(1, lossQ)) * (1.0 - math.min(1, lossR)) *
        (1.0 - math.min(1, lossS)) * (1.0 - math.min(1, lossC))
      math.max(0.0, math.min(1.0, a))
    }

    /** Accuracy on a specific video: content difficulty shifts the surface
      * slightly (profiling is per-video in the paper).
      */
    def accuracy(f: Fidelity, video: VideoProfile): Double =
      math.max(0.0, math.min(1.0, accuracy(f) - 0.05 * video.difficultyBias))

    /** Per-frame detection probability for ground-truth-positive frames at
      * fidelity `f` on `video`; calibrated so empirical F1 -> accuracy.
      */
    def detectProb(f: Fidelity, video: VideoProfile): Double = {
      val a = accuracy(f, video)
      a / (2.0 - a)
    }
  }

  // --- query A (NoScope, GPU) --------------------------------------------

  /** Frame-difference detector: ultra-cheap scan filtering similar frames. */
  val Diff: Operator = Operator("Diff", "noscope", 3.5e-5, 3.4e9,
    AccuracyParams(lq = 0.12, iota = 0.8, lr = 0.10, gr = 4.0, ls = 0.20, gs = 2.2, lc = 0.04),
    selectivity = 0.30)

  /** Specialized shallow NN (NoScope model search, AlexNet-like). */
  val SNN: Operator = Operator("S-NN", "noscope", 4.0e-5, 2.0e9,
    AccuracyParams(lq = 0.08, iota = 1.0, lr = 0.22, gr = 5.0, ls = 0.15, gs = 1.8, lc = 0.06),
    selectivity = 0.10)

  /** Full reference NN (YOLOv2): expensive terminal operator of query A. */
  val NN: Operator = Operator("NN", "noscope", 5.0e-3, 8.5e7,
    AccuracyParams(lq = 0.18, iota = 1.5, lr = 0.35, gr = 3.0, ls = 0.12, gs = 1.5, lc = 0.08),
    selectivity = 1.0)

  // --- query B (OpenALPR, CPU) -------------------------------------------

  /** Motion detector: filters frames with little motion; extremely fast and
    * fidelity-tolerant — the configurator picks rock-bottom fidelity for all
    * accuracies <= 0.9 (paper §6.2).
    */
  val Motion: Operator = Operator("Motion", "alpr", 4.2e-5, 3.0e9,
    AccuracyParams(lq = 0.02, iota = 0.5, lr = 0.03, gr = 2.0, ls = 0.015, gs = 1.0, lc = 0.01),
    selectivity = 0.20)

  /** License-plate region detector: quality- and resolution-hungry. */
  val License: Operator = Operator("License", "alpr", 2.7e-3, 8.6e8,
    AccuracyParams(lq = 0.30, iota = 2.5, lr = 0.45, gr = 2.5, ls = 0.20, gs = 1.2, lc = 0.10),
    selectivity = 0.25)

  /** Plate character recognizer: terminal operator of query B. */
  val OCR: Operator = Operator("OCR", "alpr", 3.9e-3, 4.3e8,
    AccuracyParams(lq = 0.28, iota = 2.0, lr = 0.50, gr = 2.8, ls = 0.18, gs = 1.3, lc = 0.08),
    selectivity = 1.0)

  /** The operator library in a stable order. */
  val all: Vector[Operator] = Vector(Motion, License, OCR, Diff, SNN, NN)

  /** Query cascades as benchmarked (paper Fig. 2 / §6.1). */
  val queryA: Vector[Operator] = Vector(Diff, SNN, NN)
  val queryB: Vector[Operator] = Vector(Motion, License, OCR)

  /** The accuracy levels declared by the admin (paper §6.1). */
  val accuracyLevels: Vector[Double] = Vector(0.95, 0.90, 0.80, 0.70)

  /** A consumer: one operator at one target accuracy, in (0, 1]. */
  final case class Consumer(op: Operator, targetAccuracy: Double) {
    require(targetAccuracy > 0 && targetAccuracy <= 1,
      s"consumer target accuracy must be in (0, 1], got $targetAccuracy for ${op.name}")
    override def toString: String = f"<${op.name}, ${targetAccuracy}%.2f>"
  }

  /** The full consumer set: 6 operators x 4 accuracy levels = 24. */
  val consumers: Vector[Consumer] =
    for { op <- all; a <- accuracyLevels } yield Consumer(op, a)
}
