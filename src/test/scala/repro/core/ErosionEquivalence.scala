package repro.core

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Erosion._
import repro.report.Reports
import repro.video.Formats
import repro.video.Formats._
import repro.video.Knobs._
import repro.video.{OperatorModel, VideoProfile}

/** `Erosion`'s indexed kernel against a reference copy of the earlier
  * Map-based §4.4 code: `overallSpeed`, `pMin`, `planForK` and
  * `derivePlan`. Plans must be equal in k, pmin and every per-age deletion
  * map, and speeds equal to the bit.
  */
class ErosionEquivalence extends AnyFunSuite {

  private val shares = Seq(1.1, 0.8, 0.6, 0.4)
  private val lifespan = Reports.fig12LifespanDays
  /** k from 0 to KMax in steps of 0.25. */
  private val grid = (0 to (KMax * 4).toInt).map(_ / 4.0)

  /** The reference plan at every k of the 0.25 grid and at every k the
    * reference `derivePlan` tries at each erosion share.
    */
  private def referencePlans(tree: FormatTree, ecs: Seq[ErosionConsumer],
                             bpd: Map[StorageFormat, Double]): collection.Map[Double, Plan] = {
    val plans = mutable.LinkedHashMap.empty[Double, Plan]
    def planFor(k: Double) = plans.getOrElseUpdate(k, Reference.planForK(tree, ecs, lifespan, k))
    grid.foreach(planFor)
    shares.foreach(share => Reference.searchK(bpd, share * bpd.values.sum * lifespan, planFor))
    plans
  }

  /** The default consumers plus 50 seeded subsets, each under every
    * Table 3 ingest budget: (label, tree, consumers, bytes per day).
    */
  private lazy val cases = {
    val rng = new Random(4404)
    val subsets = Seq.fill(50)(rng.shuffle(OperatorModel.consumers).take(1 + rng.nextInt(24)))
    for {
      (consumers, n) <- (OperatorModel.consumers +: subsets).zipWithIndex
      budget <- Reports.table3Budgets
    } yield {
      val cfg = VStoreConfigurator.derive(consumers, budget)
      val (tree, ecs) = VStoreConfigurator.erosionInputs(cfg)
      (s"set $n (${consumers.size} consumers), budget $budget", tree, ecs,
        VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson))
    }
  }

  test("derivePlan equals the reference at erosion shares 1.1, 0.8, 0.6 and 0.4") {
    val mismatches = for {
      (label, tree, ecs, bpd) <- cases
      share <- shares
      budgetBytes = share * bpd.values.sum * lifespan
      (got, want) = (derivePlan(tree, ecs, bpd, lifespan, budgetBytes),
        Reference.derivePlan(tree, ecs, bpd, lifespan, budgetBytes))
      if got != want
    } yield s"$label, share $share: k ${got.k} vs ${want.k}, pmin ${got.pmin} vs ${want.pmin}"
    assert(mismatches.isEmpty, s"${mismatches.size} of ${cases.size * shares.size}: " +
      mismatches.take(3).mkString("; "))
  }

  // at every k of the 0.25 grid and every k derivePlan's search tries
  test("planForK, pMin and the per-age speeds equal the reference") {
    val mismatches = for {
      (label, tree, ecs, bpd) <- cases
      (k, want) <- referencePlans(tree, ecs, bpd)
      got = planForK(tree, ecs, lifespan, k)
      wantSpeeds = want.perAge.map(Reference.overallSpeed(tree, _, ecs))
      if got != want || pMin(tree, ecs) != Reference.pMin(tree, ecs) ||
        got.speeds(tree, ecs) != wantSpeeds ||
        want.perAge.exists(del =>
          ecs.exists(c => overallSpeed(tree, del, Seq(c)) != Reference.relativeSpeed(tree, del, c)))
    } yield s"$label, k $k"
    assert(mismatches.isEmpty, mismatches.take(3).mkString("; "))
  }

  test("a tree with no consumers plans as the reference") {
    // every step ties at speed 1, so the path erodes every format in name
    // order; every target is 1 too, so no age takes a step
    val (_, tree, _, bpd) = cases.head
    assert(pMin(tree, Nil) === 1.0 && Reference.pMin(tree, Nil) === 1.0)
    for ((k, want) <- referencePlans(tree, Nil, bpd)) {
      assert(planForK(tree, Nil, lifespan, k) === want, s"k $k")
      assert(want.perAge.forall(_.values.forall(_ == 0.0)), s"k $k")
    }
    for (share <- shares) {
      val budgetBytes = share * bpd.values.sum * lifespan
      assert(derivePlan(tree, Nil, bpd, lifespan, budgetBytes) ===
        Reference.derivePlan(tree, Nil, bpd, lifespan, budgetBytes), s"share $share")
    }
  }

  test("equal speeds break by format name, as in the reference") {
    // two mirror-image consumers on two incomparable children of the root:
    // every other step is a tie, and its winner decides the odd step
    def fid(h: Int, s: FrameSampling) =
      Fidelity(ImageQuality.Best, CropFactor.C100, Resolution.ten.find(_.height == h).get, s)
    val root = StorageFormat(Fidelity.full, Coding.slowestSmallest)
    val a = StorageFormat(fid(540, FrameSampling.S1_30), Raw)
    val b = StorageFormat(fid(200, FrameSampling.S1), Raw)
    val tree = Formats.buildTree(root, Seq(a, b))
    val ecs = Seq(ErosionConsumer("x", a, 100, Map(a -> 1000.0, root -> 10.0)),
      ErosionConsumer("y", b, 100, Map(b -> 1000.0, root -> 10.0)))
    val ages = for (k <- Seq(0.5, 1.0, 2.0, 4.0)) yield {
      val got = planForK(tree, ecs, lifespan, k)
      assert(got === Reference.planForK(tree, ecs, lifespan, k), s"k $k")
      got.perAge
    }
    assert(ages.flatten.exists(del => del(a) != del(b)), "no age ends on a tie-broken step")
  }

  test("a format whose chain serves only some consumers erodes as in the reference") {
    // root > a > b > c and root > d > e: eroding e moves only its own
    // consumer, d moves two, a moves three; c's chain is four levels deep
    def fid(h: Int, s: FrameSampling) =
      Fidelity(ImageQuality.Best, CropFactor.C100, Resolution.ten.find(_.height == h).get, s)
    val root = StorageFormat(Fidelity.full, Coding.slowestSmallest)
    val a = StorageFormat(fid(540, FrameSampling.S1), Raw)
    val b = StorageFormat(fid(400, FrameSampling.S2_3), Coding.slowestSmallest)
    val c = StorageFormat(fid(200, FrameSampling.S1_2), Raw)
    val d = StorageFormat(fid(600, FrameSampling.S1_30), Raw)
    val e = StorageFormat(fid(144, FrameSampling.S1_30), Coding.slowestSmallest)
    val tree = Formats.buildTree(root, Seq(a, b, c, d, e))
    assert(tree.ancestors(c) === List(b, a, root) && tree.ancestors(e) === List(d, root))
    // own format fast; each fallback level slower, differently per consumer
    def consumer(name: String, sf: StorageFormat, speeds: Double*) =
      ErosionConsumer(name, sf, 100, (sf :: tree.ancestors(sf)).zip(speeds).toMap)
    val ecs = Seq(
      consumer("on c", c, 1000, 300, 90, 12),
      consumer("on b", b, 800, 150, 20),
      consumer("on a", a, 500, 30),
      consumer("on d", d, 900, 25),
      consumer("on e", e, 1200, 200, 15))
    for (k <- Seq(0.25, 0.5, 1.0, 2.0, KMax)) {
      val got = planForK(tree, ecs, lifespan, k)
      val want = Reference.planForK(tree, ecs, lifespan, k)
      assert(got === want, s"k $k")
      assert(got.speeds(tree, ecs) === want.perAge.map(Reference.overallSpeed(tree, _, ecs)), s"k $k")
    }
    val bpd = Map(root -> 50.0, a -> 40.0, b -> 30.0, c -> 20.0, d -> 25.0, e -> 10.0)
    for (share <- Seq(0.9, 0.7, 0.5)) {
      val budgetBytes = share * bpd.values.sum * lifespan
      assert(derivePlan(tree, ecs, bpd, lifespan, budgetBytes) ===
        Reference.derivePlan(tree, ecs, bpd, lifespan, budgetBytes), s"share $share")
    }
    // the plans erode the formats unevenly, so single-consumer steps are taken
    val last = planForK(tree, ecs, lifespan, 1.0).perAge.last
    assert(Seq(a, b, c, d, e).map(last).distinct.size > 1, last)
  }

  /** The earlier Map-based implementation, kept only as the oracle of this
    * suite. `Step`, `Tol` and `KMax` are the planner's constants.
    * `searchK` takes each k's plan from `planFor`, so a caller can see and
    * share the plans the search tries.
    */
  private object Reference {
    private val Step = 0.05
    private val Tol = 0.01

    def relativeSpeed(tree: FormatTree, del: Deletion, c: ErosionConsumer): Double = {
      val chain = c.subscribed :: tree.ancestors(c.subscribed)
      val orig = c.effectiveSpeed(c.subscribed)
      if (orig <= 0) return 1.0
      val deleted = chain.map(sf => math.max(0.0, del.getOrElse(sf, 0.0)))
      var minBelow = 1.0
      var time = 0.0
      chain.zip(deleted).zipWithIndex.foreach { case ((sf, d), i) =>
        val frac = if (i == 0) 1.0 - d else math.max(0.0, minBelow - d)
        if (frac > 0) {
          val alpha = math.min(1.0, c.effectiveSpeed(sf) / orig)
          time += frac / math.max(alpha, 1e-9)
        }
        minBelow = math.min(minBelow, d)
      }
      if (time <= 0) 1.0 else math.min(1.0, 1.0 / time)
    }

    def overallSpeed(tree: FormatTree, del: Deletion, consumers: Seq[ErosionConsumer]): Double =
      if (consumers.isEmpty) 1.0 else consumers.map(relativeSpeed(tree, del, _)).min

    def pMin(tree: FormatTree, consumers: Seq[ErosionConsumer]): Double = {
      val allGone: Deletion = tree.formats.filterNot(_ == tree.root).map(_ -> 1.0).toMap
      overallSpeed(tree, allGone, consumers)
    }

    def erodeToTarget(tree: FormatTree, consumers: Seq[ErosionConsumer],
                      start: Deletion, target: Double): Deletion = {
      var del = tree.formats.filterNot(_ == tree.root).map(sf => sf -> start.getOrElse(sf, 0.0)).toMap
      var guard = 0
      val maxIter = (tree.formats.size / Step).toInt + 200
      while (overallSpeed(tree, del, consumers) > target && guard < maxIter) {
        guard += 1
        val candidates = del.collect { case (sf, d) if d < 1.0 - 1e-9 =>
          val d2 = del.updated(sf, math.min(1.0, d + Step))
          (sf, d2, overallSpeed(tree, d2, consumers))
        }
        if (candidates.isEmpty) return del
        val (_, d2, _) = candidates.maxBy { case (sf, _, sp) => (sp, sf.toString) }
        del = d2
      }
      del
    }

    def planForK(tree: FormatTree, consumers: Seq[ErosionConsumer],
                 lifespanDays: Int, k: Double): Plan = {
      val pmin = pMin(tree, consumers)
      var del: Deletion = Map.empty
      val ages = (1 to lifespanDays).map { x =>
        del = erodeToTarget(tree, consumers, del, targetSpeed(x, k, pmin))
        del
      }.toVector
      Plan(k, pmin, ages)
    }

    def derivePlan(tree: FormatTree, consumers: Seq[ErosionConsumer],
                   bytesPerDay: Map[StorageFormat, Double], lifespanDays: Int,
                   budgetBytes: Double): Plan =
      searchK(bytesPerDay, budgetBytes, planForK(tree, consumers, lifespanDays, _))

    /** `derivePlan`'s binary search over k, on `planFor`'s plans. */
    def searchK(bytesPerDay: Map[StorageFormat, Double], budgetBytes: Double,
                planFor: Double => Plan): Plan = {
      def fits(k: Double): (Plan, Boolean) = {
        val p = planFor(k)
        (p, p.bytesPerAge(bytesPerDay).sum <= budgetBytes)
      }
      val (p0, ok0) = fits(0.0)
      if (ok0) return p0
      val (pMaxPlan, okMax) = fits(KMax)
      if (!okMax) return pMaxPlan
      var lo = 0.0
      var hi = KMax
      var best = pMaxPlan
      while (hi - lo > Tol) {
        val mid = (lo + hi) / 2
        val (p, ok) = fits(mid)
        if (ok) { best = p; hi = mid } else lo = mid
      }
      best
    }
  }
}
