package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.Formats
import repro.video.Formats._
import repro.video.VideoProfile

/** §4.4 erosion planning: relative-speed algebra, max-min fairness,
  * power-law targets, budget binary search, and the golden-root invariant.
  */
class ErosionSpec extends AnyFunSuite {

  private def res(h: Int) = Resolution.ten.find(_.height == h).get

  // A small synthetic tree: golden root, one encoded child, one raw child.
  private val golden = StorageFormat(Fidelity.full, Coding.slowestSmallest)
  private val mid = StorageFormat(
    Fidelity(ImageQuality.Best, CropFactor.C100, res(540), FrameSampling.S1_30),
    Encoded(SpeedStep.Fast, KeyframeInterval(10)))
  private val raw = StorageFormat(
    Fidelity(ImageQuality.Best, CropFactor.C100, res(200), FrameSampling.S1), Raw)
  private val tree = Formats.buildTree(golden, Seq(mid, raw))

  private def consumer(name: String, sub: StorageFormat, cons: Double,
                       retr: Map[StorageFormat, Double]) =
    Erosion.ErosionConsumer(name, sub, cons, retr)

  private val fastC = consumer("fast", raw, 5000,
    Map(raw -> 20000.0, mid -> 300.0, golden -> 22.0))
  private val midC = consumer("mid", mid, 150,
    Map(raw -> 20000.0, mid -> 300.0, golden -> 22.0))
  private val slowC = consumer("slow", golden, 10,
    Map(raw -> 20000.0, mid -> 300.0, golden -> 22.0))
  private val consumers = Seq(fastC, midC, slowC)

  test("tree roots at the golden format") {
    assert(tree.root === golden)
  }

  test("relative speed is 1 with no deletions") {
    consumers.foreach(c => assert(Erosion.overallSpeed(tree, Map.empty, Seq(c)) === 1.0))
  }

  test("root-subscribed consumers never decay") {
    val del: Erosion.Deletion = Map(mid -> 1.0, raw -> 1.0)
    assert(Erosion.overallSpeed(tree, del, Seq(slowC)) === 1.0)
  }

  test("relative speed matches the paper's alpha/((1-p)alpha + p) formula") {
    // fast consumer falls from raw (eff 5000) to golden (eff 22)
    val p = 0.3
    val alpha = 22.0 / 5000.0
    val expect = alpha / ((1 - p) * alpha + p)
    val got = Erosion.overallSpeed(tree, Map(raw -> p), Seq(fastC))
    assert(math.abs(got - expect) < 1e-9, s"$got vs $expect")
  }

  test("relative speed decreases monotonically with deletion fraction") {
    val speeds = (0 to 10).map(i => Erosion.overallSpeed(tree, Map(raw -> i / 10.0), Seq(fastC)))
    speeds.zip(speeds.tail).foreach { case (a, b) => assert(b <= a + 1e-12) }
  }

  test("multi-level fallback: deleting both raw and mid sends fast to golden") {
    // raw's parent is mid (least richer covering format)? raw(200p-1) vs
    // mid(540p-1/30): neither richer (sampling vs resolution) -> raw's
    // parent is golden directly. Verify the chain is used correctly.
    val chain = tree.ancestors(raw)
    assert(chain.last === golden)
    val full = Erosion.overallSpeed(tree, Map(raw -> 1.0, mid -> 1.0), Seq(fastC))
    val alpha = 22.0 / 5000.0
    assert(math.abs(full - alpha) < 1e-9)
  }

  test("overall speed is the minimum across consumers (max-min)") {
    val del: Erosion.Deletion = Map(raw -> 0.5)
    val expect = consumers.map(c => Erosion.overallSpeed(tree, del, Seq(c))).min
    assert(Erosion.overallSpeed(tree, del, consumers) === expect)
  }

  test("pMin equals overall speed with everything but the root gone") {
    val pm = Erosion.pMin(tree, consumers)
    assert(pm === Erosion.overallSpeed(tree, Map(raw -> 1.0, mid -> 1.0), consumers))
    assert(pm > 0 && pm < 1)
  }

  test("power-law targets: P(1)=1, decreasing, asymptote at pmin") {
    val pmin = 0.01
    assert(Erosion.targetSpeed(1, 2.0, pmin) === 1.0)
    val xs = (1 to 10).map(Erosion.targetSpeed(_, 1.5, pmin))
    xs.zip(xs.tail).foreach { case (a, b) => assert(b < a) }
    assert(Erosion.targetSpeed(1000, 3.0, pmin) < pmin + 1e-3)
  }

  test("k=0 means no decay at any age") {
    (1 to 10).foreach(x => assert(Erosion.targetSpeed(x, 0.0, 0.01) === 1.0))
  }

  // The greedy erode-to-target step is private to the planner; these
  // tests drive it through planForK, where age x erodes from age x-1's
  // state to the target P(x).

  test("planForK: every age reaches (or crosses) its target") {
    val plan = Erosion.planForK(tree, consumers, lifespanDays = 6, k = 2.0)
    plan.speeds(tree, consumers).zipWithIndex.foreach { case (speed, i) =>
      val target = Erosion.targetSpeed(i + 1, 2.0, plan.pmin)
      assert(speed <= target, s"age ${i + 1}: $speed vs target $target")
    }
  }

  test("planForK never erodes the root") {
    val plan = Erosion.planForK(tree, consumers, lifespanDays = 10, k = Erosion.KMax)
    assert(plan.perAge.last.values.sum > 1.0, plan.perAge.last.toString)
    plan.perAge.foreach(del => assert(!del.contains(golden), del.toString))
  }

  test("planForK with k = 0 (every target 1.0) deletes nothing") {
    val plan = Erosion.planForK(tree, consumers, lifespanDays = 10, k = 0.0)
    plan.perAge.foreach(del => assert(del.values.forall(_ === 0.0), del.toString))
  }

  test("planForK: a longer lifespan only appends ages") {
    // each age erodes from the previous age's state
    val short = Erosion.planForK(tree, consumers, lifespanDays = 3, k = 1.0)
    val long = Erosion.planForK(tree, consumers, lifespanDays = 8, k = 1.0)
    assert(long.perAge.take(3) === short.perAge)
    Seq(mid, raw).foreach(sf => assert(long.perAge(3)(sf) >= short.perAge.last(sf)))
  }

  test("erosion prefers the format with least overall-speed impact") {
    // deleting mid hurts only midC (eff min(150,300)=150 to min(150,22)=22);
    // deleting raw hurts fastC much more (5000->22). Age 2's target at k =
    // 0.01 is just below 1, so its first increment decides: the greedy
    // picks whichever format keeps overall speed highest.
    val del = Erosion.planForK(tree, consumers, lifespanDays = 2, k = 0.01).perAge.last
    val speedIfMid = Erosion.overallSpeed(tree, Map(mid -> 0.05), consumers)
    val speedIfRaw = Erosion.overallSpeed(tree, Map(raw -> 0.05), consumers)
    val better = if (speedIfMid >= speedIfRaw) mid else raw
    assert(del(better) > 0, s"expected first deletions from $better, got $del")
  }

  test("a consumer outside the tree fails with a named error") {
    val stray = StorageFormat(mid.fidelity, Raw)
    val c = consumer("stray", stray, 150, Map(stray -> 20000.0, golden -> 22.0))
    val e = intercept[IllegalArgumentException](Erosion.pMin(tree, consumers :+ c))
    assert(e.getMessage.contains("consumer stray subscribes to") &&
      e.getMessage.contains("not in the format tree"), e.getMessage)
  }

  test("planForK speeds hit at or below their power-law targets") {
    val plan = Erosion.planForK(tree, consumers, lifespanDays = 5, k = 1.0)
    val speeds = plan.speeds(tree, consumers)
    (1 to 5).foreach { x =>
      val t = Erosion.targetSpeed(x, 1.0, plan.pmin)
      assert(speeds(x - 1) <= t + 0.05, s"age $x: ${speeds(x - 1)} vs target $t")
    }
  }

  test("planForK deletions accumulate over ages (never resurrect data)") {
    val plan = Erosion.planForK(tree, consumers, lifespanDays = 6, k = 2.0)
    plan.perAge.zip(plan.perAge.tail).foreach { case (young, old) =>
      (young.keySet ++ old.keySet).foreach { sf =>
        assert(old.getOrElse(sf, 0.0) >= young.getOrElse(sf, 0.0) - 1e-12, sf.toString)
      }
    }
  }

  test("higher k erodes at least as much storage") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    val t1 = Erosion.planForK(tree, consumers, 8, 0.5).totalBytes(bpd, golden)
    val t2 = Erosion.planForK(tree, consumers, 8, 3.0).totalBytes(bpd, golden)
    assert(t2 <= t1 + 1e-9)
  }

  test("derivePlan returns k=0 when the intact store fits the budget") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    val intact = bpd.values.sum * 10
    val plan = Erosion.derivePlan(tree, consumers, bpd, 10, budgetBytes = intact * 1.01)
    assert(plan.k === 0.0)
  }

  test("derivePlan fits the budget when possible and keeps k minimal") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    val intact = bpd.values.sum * 10
    val budget = intact * 0.7
    val plan = Erosion.derivePlan(tree, consumers, bpd, 10, budget)
    assert(plan.totalBytes(bpd, golden) <= budget)
    assert(plan.k > 0)
    // a slightly gentler k must overflow the budget (minimality)
    if (plan.k > 0.05) {
      val gentler = Erosion.planForK(tree, consumers, 10, plan.k - 0.05)
      assert(gentler.totalBytes(bpd, golden) >= budget - bpd.values.sum * 0.1)
    }
  }

  test("derivePlan never deletes the golden format (ultimate fallback)") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    val plan = Erosion.derivePlan(tree, consumers, bpd, 10, budgetBytes = 1.0) // impossible
    plan.perAge.foreach(del => assert(del.getOrElse(golden, 0.0) === 0.0))
    // best-effort floor: golden survives all ages
    assert(plan.totalBytes(bpd, golden) >= bpd(golden) * 10 - 1e-9)
  }

  test("lower budgets choose higher k (Fig 12a)") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    val intact = bpd.values.sum * 10
    val k80 = Erosion.derivePlan(tree, consumers, bpd, 10, intact * 0.8).k
    val k50 = Erosion.derivePlan(tree, consumers, bpd, 10, intact * 0.5).k
    assert(k50 >= k80, s"k80=$k80 k50=$k50")
  }

  test("a lifespan under one day fails with a named error") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    for (days <- Seq(0, -3)) {
      val errors = Seq(
        intercept[IllegalArgumentException](Erosion.planForK(tree, consumers, days, 1.0)),
        intercept[IllegalArgumentException](Erosion.derivePlan(tree, consumers, bpd, days, 1e6)))
      errors.foreach(e => assert(e.getMessage.contains("lifespanDays must be at least 1") &&
        e.getMessage.contains(s"got $days"), e.getMessage))
    }
  }

  test("a NaN storage budget fails with a named error; a negative one is best effort") {
    val bpd = Map(golden -> 100.0, mid -> 50.0, raw -> 200.0)
    val e = intercept[IllegalArgumentException](
      Erosion.derivePlan(tree, consumers, bpd, 10, Double.NaN))
    assert(e.getMessage.contains("budgetBytes must be a number, got NaN"), e.getMessage)
    val negative = Erosion.derivePlan(tree, consumers, bpd, 10, -1.0)
    assert(negative === Erosion.planForK(tree, consumers, 10, Erosion.KMax))
  }

  test("end-to-end erosion over the real derived configuration") {
    val cfg = VStoreConfigurator.derive()
    val (tree2, cons2) = VStoreConfigurator.erosionInputs(cfg)
    val bpd = VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson)
    val intact = bpd.values.sum * 10
    val plan = Erosion.derivePlan(tree2, cons2, bpd, 10, intact * 0.8)
    assert(plan.totalBytes(bpd, tree2.root) <= intact * 0.8 + 1e-6)
    assert(plan.speeds(tree2, cons2).head === 1.0) // youngest age intact
  }
}
