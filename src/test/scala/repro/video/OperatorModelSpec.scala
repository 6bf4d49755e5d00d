package repro.video

import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.OperatorModel._

/** Operator model invariants: the paper's observations O1 (monotone knob
  * impacts) and O2 (image quality does not affect consumption cost), the
  * knob-interaction example of §2.4, and Table 2 speed anchors.
  */
class OperatorModelSpec extends AnyFunSuite {

  private def res(h: Int) = Resolution.ten.find(_.height == h).get
  private def fid(q: ImageQuality, c: CropFactor, h: Int, s: FrameSampling) =
    Fidelity(q, c, res(h), s)

  test("library has the six operators of the two engines") {
    assert(all.map(_.name).toSet ===
      Set("Motion", "License", "OCR", "Diff", "S-NN", "NN"))
    assert(queryA.map(_.name) === Vector("Diff", "S-NN", "NN"))
    assert(queryB.map(_.name) === Vector("Motion", "License", "OCR"))
  }

  test("24 consumers: 6 operators x 4 accuracy levels") {
    assert(consumers.size === 24)
    assert(accuracyLevels === Vector(0.95, 0.9, 0.8, 0.7))
  }

  test("O1: accuracy is monotone in every knob, every operator (exhaustive)") {
    for (op <- all; f <- Fidelity.space) {
      val a = op.accuracy(f)
      // step each knob up by one and require accuracy does not drop
      ImageQuality.all.lift(f.quality.rank + 1).foreach { q =>
        assert(op.accuracy(f.copy(quality = q)) >= a - 1e-12, s"${op.name} $f quality")
      }
      CropFactor.all.lift(f.crop.rank + 1).foreach { c =>
        assert(op.accuracy(f.copy(crop = c)) >= a - 1e-12, s"${op.name} $f crop")
      }
      Resolution.ten.lift(Resolution.ten.indexOf(f.resolution) + 1).foreach { r =>
        assert(op.accuracy(f.copy(resolution = r)) >= a - 1e-12, s"${op.name} $f res")
      }
      FrameSampling.all.lift(f.sampling.rank + 1).foreach { s =>
        assert(op.accuracy(f.copy(sampling = s)) >= a - 1e-12, s"${op.name} $f sampling")
      }
    }
  }

  test("O1: consumption cost is non-decreasing in quantity knobs (exhaustive)") {
    for (op <- all; f <- Fidelity.space) {
      val c = op.consumptionCost(f)
      CropFactor.all.lift(f.crop.rank + 1).foreach { cr =>
        assert(op.consumptionCost(f.copy(crop = cr)) >= c - 1e-12)
      }
      Resolution.ten.lift(Resolution.ten.indexOf(f.resolution) + 1).foreach { r =>
        assert(op.consumptionCost(f.copy(resolution = r)) >= c - 1e-12)
      }
      FrameSampling.all.lift(f.sampling.rank + 1).foreach { s =>
        assert(op.consumptionCost(f.copy(sampling = s)) >= c - 1e-12)
      }
    }
  }

  test("O2: image quality never changes consumption cost (exhaustive)") {
    for (op <- all; f <- Fidelity.space; q <- ImageQuality.all) {
      assert(op.consumptionCost(f.copy(quality = q)) === op.consumptionCost(f),
        s"${op.name} $f")
    }
  }

  test("accuracy is 1.0 at full fidelity (ground truth, §6.1)") {
    all.foreach(op => assert(op.accuracy(Fidelity.full) === 1.0, op.name))
  }

  test("accuracy stays within [0, 1] over the whole space") {
    for (op <- all; f <- Fidelity.space) {
      val a = op.accuracy(f)
      assert(a >= 0.0 && a <= 1.0, s"${op.name} $f -> $a")
    }
  }

  test("§2.4 interaction: lower quality amplifies resolution sensitivity (License)") {
    def drop(q: ImageQuality): Double = {
      val a720 = License.accuracy(fid(q, CropFactor.C100, 720, FrameSampling.S1))
      val a540 = License.accuracy(fid(q, CropFactor.C100, 540, FrameSampling.S1))
      a720 - a540
    }
    assert(drop(ImageQuality.Bad) > drop(ImageQuality.Good),
      s"bad=${drop(ImageQuality.Bad)} good=${drop(ImageQuality.Good)}")
  }

  test("Motion is accurate even at rock-bottom fidelity (paper §6.2)") {
    val bottom = fid(ImageQuality.Worst, CropFactor.C50, 60, FrameSampling.S1_30)
    assert(Motion.accuracy(bottom) >= 0.9, Motion.accuracy(bottom).toString)
  }

  test("License is useless at rock-bottom fidelity") {
    val bottom = fid(ImageQuality.Worst, CropFactor.C50, 60, FrameSampling.S1_30)
    assert(License.accuracy(bottom) < 0.5)
  }

  test("Table 2 speed anchors: NN is slow (~4-10x at good-600p-2/3)") {
    val f = fid(ImageQuality.Good, CropFactor.C100, 600, FrameSampling.S2_3)
    val sp = NN.consumptionSpeed(f)
    assert(sp > 2 && sp < 12, s"${sp}x")
  }

  test("Table 2 speed anchors: License ~10x at best-540p-1") {
    val f = fid(ImageQuality.Best, CropFactor.C100, 540, FrameSampling.S1)
    val sp = License.consumptionSpeed(f)
    assert(sp > 7 && sp < 14, s"${sp}x")
  }

  test("Table 2 speed anchors: OCR ~11x at best-720p-1/2") {
    val f = fid(ImageQuality.Best, CropFactor.C100, 720, FrameSampling.S1_2)
    val sp = OCR.consumptionSpeed(f)
    assert(sp > 8 && sp < 15, s"${sp}x")
  }

  test("Table 2 speed anchors: Motion ~25000x at bad-144p-1/30-75%") {
    val f = fid(ImageQuality.Bad, CropFactor.C75, 144, FrameSampling.S1_30)
    val sp = Motion.consumptionSpeed(f)
    assert(sp > 15000 && sp < 35000, s"${sp}x")
  }

  test("operators span three orders of magnitude in cost (§2.1)") {
    // compare at each operator's typical consumption format (Table 2 style):
    // Motion scans sparse low-res frames, NN consumes dense rich frames
    val cheap = Motion.consumptionCost(fid(ImageQuality.Bad, CropFactor.C75, 144, FrameSampling.S1_30))
    val dear = NN.consumptionCost(fid(ImageQuality.Good, CropFactor.C100, 600, FrameSampling.S2_3))
    assert(dear / cheap > 1000, s"x${dear / cheap}")
    // and even at one common fidelity the library spans >40x
    val costs = all.map(_.consumptionCost(Fidelity.full))
    assert(costs.max / costs.min > 40, s"x${costs.max / costs.min}")
  }

  test("consumption speed x cost = 1") {
    for (op <- all; f <- Seq(Fidelity.full, fid(ImageQuality.Bad, CropFactor.C50, 144, FrameSampling.S1_5))) {
      assert(math.abs(op.consumptionSpeed(f) * op.consumptionCost(f) - 1.0) < 1e-9)
    }
  }

  test("detectProb maps accuracy a to p = a/(2-a) so F1 converges to a") {
    for (op <- all; f <- Fidelity.space.grouped(71).map(_.head)) {
      val a = op.accuracy(f, VideoProfile.jackson)
      val p = op.detectProb(f, VideoProfile.jackson)
      // F1 with precision 1 and recall p: 2p/(1+p) == a
      assert(math.abs(2 * p / (1 + p) - a) < 1e-9)
    }
  }

  test("harder videos reduce per-video accuracy") {
    val f = fid(ImageQuality.Good, CropFactor.C100, 360, FrameSampling.S1_2)
    assert(License.accuracy(f, VideoProfile.dashcam) <= License.accuracy(f, VideoProfile.tucson))
  }

  test("per-video accuracy stays in [0,1]") {
    for (op <- all; v <- VideoProfile.all; f <- Fidelity.space.grouped(97).map(_.head)) {
      val a = op.accuracy(f, v)
      assert(a >= 0 && a <= 1)
    }
  }

  test("selectivities thin the cascade (early ops pass a fraction)") {
    assert(Diff.selectivity < 1.0 && SNN.selectivity < 1.0 && NN.selectivity === 1.0)
    assert(Motion.selectivity < 1.0 && License.selectivity < 1.0 && OCR.selectivity === 1.0)
  }

  test("engines: NoScope ops on GPU path, ALPR ops on CPU path") {
    assert(queryA.forall(_.engine == "noscope"))
    assert(queryB.forall(_.engine == "alpr"))
  }
}
