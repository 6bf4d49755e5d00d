package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.{VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.{Consumer, Operator}

/** §4.2 boundary search: correctness against exhaustive search, profiling-
  * run bounds, and the structural properties the paper relies on.
  */
class ConsumptionConfigSpec extends AnyFunSuite {

  private def profilerFor(op: Operator) = {
    val v = VStoreConfigurator.profilingVideo(op)
    new Profiler(new Profiler.AnalyticOpBackend(v), v)
  }

  test("derived CF meets the target accuracy for every consumer") {
    OperatorModel.consumers.foreach { c =>
      val d = ConsumptionConfig.derive(profilerFor(c.op), c)
      assert(d.accuracy >= c.targetAccuracy - 1e-9, s"$c -> ${d.fidelity} acc=${d.accuracy}")
    }
  }

  test("derived CF has the same minimal consumption cost as exhaustive search") {
    // boundary search must match exhaustive on the quantity knobs: equal cost
    OperatorModel.consumers.foreach { c =>
      val d = ConsumptionConfig.derive(profilerFor(c.op), c)
      val e = ConsumptionConfig.deriveExhaustive(profilerFor(c.op), c)
      assert(math.abs(d.consumptionCost - e.consumptionCost) <= e.consumptionCost * 1e-9,
        s"$c: boundary=${d.fidelity}@${d.consumptionCost} exhaustive=${e.fidelity}@${e.consumptionCost}")
    }
  }

  test("boundary search profiles far fewer options than exhaustive (Fig 13)") {
    OperatorModel.all.foreach { op =>
      val p = profilerFor(op)
      OperatorModel.accuracyLevels.foreach(a => ConsumptionConfig.derive(p, Consumer(op, a)))
      assert(p.opRuns < 200, s"${op.name}: ${p.opRuns} runs")
      assert(p.opRuns < Fidelity.space.size / 3, s"${op.name}: ${p.opRuns}")
    }
  }

  test("per-consumer profiling cost is O((Ns+Nr)*Nc + Nq)") {
    // bound: (5 + 10 + slack) per crop slice x 3 crops + 4 quality steps
    OperatorModel.all.foreach { op =>
      val p = profilerFor(op)
      ConsumptionConfig.derive(p, Consumer(op, 0.8))
      assert(p.opRuns <= (5 + 10 + 8) * 3 + 4, s"${op.name}: ${p.opRuns}")
    }
  }

  test("memoization makes all-accuracy profiling cheaper than exhaustive") {
    OperatorModel.all.foreach { op =>
      val p = profilerFor(op)
      OperatorModel.accuracyLevels.foreach(a => ConsumptionConfig.derive(p, Consumer(op, a)))
      assert(p.opRuns < Fidelity.space.size, s"${op.name}")
    }
  }

  test("boundary candidates are all adequate and minimal in sampling") {
    val op = OperatorModel.License
    val p = profilerFor(op)
    val cands = ConsumptionConfig.boundaryCandidates(p, op, 0.8, CropFactor.C100)
    assert(cands.nonEmpty)
    cands.foreach { f =>
      assert(op.accuracy(f, VideoProfile.dashcam) >= 0.8)
      // one sampling step down must be inadequate (minimality on the boundary)
      FrameSampling.all.lift(f.sampling.rank - 1).foreach { s =>
        assert(op.accuracy(f.copy(sampling = s), VideoProfile.dashcam) < 0.8, f.toString)
      }
    }
  }

  test("boundary candidates equal the brute-force minimal adequate sampling per resolution") {
    val targets = (1 to 44).map(_ / 45.0)
    for (op <- OperatorModel.all; crop <- CropFactor.all; t <- targets) {
      val v = VStoreConfigurator.profilingVideo(op)
      val expected = Resolution.ten.sortBy(-_.height).flatMap { r =>
        FrameSampling.all.map(Fidelity(ImageQuality.Best, crop, r, _))
          .find(op.accuracy(_, v) >= t)
      }
      val got = ConsumptionConfig.boundaryCandidates(profilerFor(op), op, t, crop)
      assert(got === expected, s"${op.name} $crop target=$t")
    }
  }

  test("boundary candidates cover at most one point per resolution") {
    val op = OperatorModel.NN
    val p = profilerFor(op)
    val cands = ConsumptionConfig.boundaryCandidates(p, op, 0.9, CropFactor.C100)
    val byRes = cands.groupBy(_.resolution)
    byRes.foreach { case (r, fs) => assert(fs.size === 1, s"$r") }
  }

  test("quality is lowered to the minimum adequate (opportunistic, O2)") {
    OperatorModel.consumers.foreach { c =>
      val d = ConsumptionConfig.derive(profilerFor(c.op), c)
      ImageQuality.all.lift(d.fidelity.quality.rank - 1).foreach { q =>
        val lower = d.fidelity.copy(quality = q)
        val v = VStoreConfigurator.profilingVideo(c.op)
        assert(c.op.accuracy(lower, v) < c.targetAccuracy,
          s"$c could have used lower quality $lower")
      }
    }
  }

  test("Motion picks rock-bottom fidelity for accuracies <= 0.9 (§6.2)") {
    val p = profilerFor(OperatorModel.Motion)
    Seq(0.9, 0.8, 0.7).foreach { a =>
      val d = ConsumptionConfig.derive(p, Consumer(OperatorModel.Motion, a))
      assert(d.fidelity.resolution.height === 60, s"a=$a got ${d.fidelity}")
      assert(d.fidelity.sampling === FrameSampling.S1_30)
      assert(d.fidelity.crop === CropFactor.C50)
    }
  }

  test("License needs rich fidelity at 0.95 but sparse at 0.7") {
    val p = profilerFor(OperatorModel.License)
    val hi = ConsumptionConfig.derive(p, Consumer(OperatorModel.License, 0.95))
    val lo = ConsumptionConfig.derive(p, Consumer(OperatorModel.License, 0.70))
    assert(hi.fidelity.resolution.height >= 540)
    assert(hi.fidelity.sampling.fps >= 20)
    assert(lo.consumptionSpeed > 10 * hi.consumptionSpeed)
  }

  test("lower targets never cost more (cost elasticity)") {
    OperatorModel.all.foreach { op =>
      val p = profilerFor(op)
      val costs = OperatorModel.accuracyLevels.map(a =>
        ConsumptionConfig.derive(p, Consumer(op, a)).consumptionCost)
      costs.zip(costs.tail).foreach { case (hi, lo) =>
        assert(lo <= hi + 1e-12, s"${op.name}: $costs")
      }
    }
  }

  test("an unreachable target falls back to full fidelity") {
    val op = OperatorModel.License
    val p = profilerFor(op)
    val d = ConsumptionConfig.derive(p, Consumer(op, 0.999999))
    assert(d.fidelity === Fidelity.full)
  }

  test("derived speed is the reciprocal of cost") {
    val c = Consumer(OperatorModel.SNN, 0.9)
    val d = ConsumptionConfig.derive(profilerFor(c.op), c)
    assert(math.abs(d.consumptionSpeed * d.consumptionCost - 1.0) < 1e-9)
  }

  test("the 24 consumers yield ~21 unique CFs (Table 2)") {
    val cfg = VStoreConfigurator.derive()
    val unique = cfg.uniqueCfs.size
    assert(unique >= 18 && unique <= 24, s"$unique unique CFs")
  }
}
