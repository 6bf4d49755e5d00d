package repro.core

import repro.video.Formats._

/** §4.4 — age-based data erosion.
  *
  * Storage formats are organized in a richer-than tree rooted at the golden
  * format. Eroding a fraction of a format's segments makes its consumers
  * fall back to ancestors for those segments, decaying their *effective*
  * speed but never their accuracy (ancestors are fidelity-richer, R1). The
  * overall speed of an age is the minimum relative speed across consumers
  * (max-min fairness); per-age targets follow the power law
  * `P(x) = (1 - Pmin) * x^-k + Pmin`, and the smallest k whose total storage
  * over the lifespan fits the budget is found by binary search.
  */
object Erosion {

  /** A consumer as the erosion planner sees it: its subscribed format plus
    * its consumption speed and the retrieval speed each candidate fallback
    * format would give it.
    */
  final case class ErosionConsumer(
      name: String,
      subscribed: StorageFormat,
      consumptionSpeed: Double,
      retrievalSpeedOf: Map[StorageFormat, Double],
  ) {
    /** Effective speed when served entirely from `sf` (pipeline min). */
    def effectiveSpeed(sf: StorageFormat): Double =
      math.min(consumptionSpeed, retrievalSpeedOf(sf))
  }

  /** Deleted fraction per storage format at one age (cumulative). */
  type Deletion = Map[StorageFormat, Double]

  /** Relative speed of one consumer under a deletion state. Deletions are
    * nested oldest-first prefixes, so the fraction of segments a consumer
    * reads from each tree level is the difference of consecutive deleted
    * fractions along its fallback chain (the root is never eroded).
    */
  def relativeSpeed(tree: FormatTree, del: Deletion, c: ErosionConsumer): Double = {
    val chain = c.subscribed :: tree.ancestors(c.subscribed)
    val orig = c.effectiveSpeed(c.subscribed)
    if (orig <= 0) return 1.0
    // Deletions are oldest-first prefixes of the segment timeline [0,1):
    // format i lacks segments t < d_i. A consumer reads segment t from the
    // deepest chain level that still holds it, i.e. level i serves
    // max(0, min(d_0..d_{i-1}) - d_i); its own format serves 1 - d_0.
    val deleted = chain.map(sf => math.max(0.0, del.getOrElse(sf, 0.0)))
    var minBelow = 1.0 // min deleted fraction of all deeper levels
    var time = 0.0     // wall time per unit video, in units of 1/orig
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

  /** Overall speed: the minimum relative speed across consumers (max-min). */
  def overallSpeed(tree: FormatTree, del: Deletion, consumers: Seq[ErosionConsumer]): Double =
    if (consumers.isEmpty) 1.0 else consumers.map(relativeSpeed(tree, del, _)).min

  /** Minimum possible overall speed: everything but the root deleted. */
  def pMin(tree: FormatTree, consumers: Seq[ErosionConsumer]): Double = {
    val allGone: Deletion = tree.formats.filterNot(_ == tree.root).map(_ -> 1.0).toMap
    overallSpeed(tree, allGone, consumers)
  }

  /** Power-law target speed for age x (x >= 1). */
  def targetSpeed(x: Int, k: Double, pmin: Double): Double =
    (1.0 - pmin) * math.pow(x.toDouble, -k) + pmin

  /** Erode greedily from `start` until overall speed <= `target`, in
    * `step`-sized deletion increments, always picking the format whose next
    * increment reduces the overall speed the least (fair-scheduler spirit:
    * spread decay evenly; never touch the root).
    */
  def erodeToTarget(tree: FormatTree, consumers: Seq[ErosionConsumer],
                    start: Deletion, target: Double, step: Double = 0.05): Deletion = {
    var del = tree.formats.filterNot(_ == tree.root).map(sf => sf -> start.getOrElse(sf, 0.0)).toMap
    var guard = 0
    val maxIter = (tree.formats.size / step).toInt + 200
    while (overallSpeed(tree, del, consumers) > target && guard < maxIter) {
      guard += 1
      val candidates = del.collect { case (sf, d) if d < 1.0 - 1e-9 =>
        val d2 = del.updated(sf, math.min(1.0, d + step))
        (sf, d2, overallSpeed(tree, d2, consumers))
      }
      if (candidates.isEmpty) return del
      // least speed reduction first; tie-break deterministically
      val (_, d2, _) = candidates.maxBy { case (sf, _, sp) => (sp, sf.toString) }
      del = d2
    }
    del
  }

  /** The full plan: cumulative deletion per format for each age 1..lifespan. */
  final case class Plan(k: Double, pmin: Double, perAge: Vector[Deletion]) {
    /** Total stored bytes over the lifespan given per-format bytes/day. */
    def totalBytes(bytesPerDay: Map[StorageFormat, Double], root: StorageFormat): Double =
      perAge.map { del =>
        bytesPerDay.map { case (sf, b) => b * (1.0 - del.getOrElse(sf, 0.0)) }.sum
      }.sum
    /** Overall speed per age under this plan. */
    def speeds(tree: FormatTree, consumers: Seq[ErosionConsumer]): Vector[Double] =
      perAge.map(overallSpeed(tree, _, consumers))
  }

  /** Build the per-age plan for one decay factor k. Deletions accumulate:
    * age x starts from age x-1's state.
    */
  def planForK(tree: FormatTree, consumers: Seq[ErosionConsumer],
               lifespanDays: Int, k: Double, step: Double = 0.05): Plan = {
    val pmin = pMin(tree, consumers)
    var del: Deletion = Map.empty
    val ages = (1 to lifespanDays).map { x =>
      val target = targetSpeed(x, k, pmin)
      del = erodeToTarget(tree, consumers, del, target, step)
      del
    }.toVector
    Plan(k, pmin, ages)
  }

  /** Find the smallest (gentlest) k whose plan fits the storage budget, by
    * binary search (higher k always stores less). Returns k = 0 (no decay)
    * when the intact store already fits.
    */
  def derivePlan(tree: FormatTree, consumers: Seq[ErosionConsumer],
                 bytesPerDay: Map[StorageFormat, Double], lifespanDays: Int,
                 budgetBytes: Double, step: Double = 0.05,
                 kMax: Double = 8.0, tol: Double = 0.01): Plan = {
    def fits(k: Double): (Plan, Boolean) = {
      val p = planForK(tree, consumers, lifespanDays, k, step)
      (p, p.totalBytes(bytesPerDay, tree.root) <= budgetBytes)
    }
    val (p0, ok0) = fits(0.0)
    if (ok0) return p0
    val (pMaxPlan, okMax) = fits(kMax)
    if (!okMax) return pMaxPlan // even max decay cannot fit; return best effort
    var lo = 0.0
    var hi = kMax
    var best = pMaxPlan
    while (hi - lo > tol) {
      val mid = (lo + hi) / 2
      val (p, ok) = fits(mid)
      if (ok) { best = p; hi = mid } else lo = mid
    }
    best
  }
}
