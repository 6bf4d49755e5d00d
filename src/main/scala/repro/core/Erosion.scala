package repro.core

import scala.annotation.unused
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
    * format on its fallback chain (its format and that one's ancestors)
    * would give it.
    */
  final case class ErosionConsumer(
      name: String,
      subscribed: StorageFormat,
      consumptionSpeed: Double,
      retrievalSpeedOf: StorageFormat => Double,
  ) {
    /** Effective speed when served entirely from `sf` (pipeline min). */
    def effectiveSpeed(sf: StorageFormat): Double =
      math.min(consumptionSpeed, retrievalSpeedOf(sf))
  }

  /** The largest decay factor k the plan search tries; a plan at KMax may
    * be best effort (over budget).
    */
  val KMax = 8.0
  /** Deletion increment of one erosion step, and the k-search precision. */
  private val Step = 0.05
  private val Tol = 0.01

  /** Deleted fraction per storage format at one age (cumulative). */
  type Deletion = Map[StorageFormat, Double]

  /** Overall speed: the minimum relative speed across consumers (max-min);
    * one consumer's relative speed is `Chain.speed`.
    */
  def overallSpeed(tree: FormatTree, del: Deletion, consumers: Seq[ErosionConsumer]): Double = {
    val kernel = new Kernel(tree, consumers)
    kernel.overall(kernel.deletions(del))
  }

  /** Minimum possible overall speed: everything but the root deleted. */
  def pMin(tree: FormatTree, consumers: Seq[ErosionConsumer]): Double =
    new Kernel(tree, consumers).pMin

  /** One consumer's fallback chain, resolved against a format index: the
    * index of each level's format and the level's speed factor
    * max(min(1, eff/orig), 1e-9). Empty when the consumer's own effective
    * speed is not positive, which reads as never decaying.
    */
  private final class Chain(val at: Array[Int], val alpha: Array[Double]) {
    /** Relative speed under deletions indexed like `at`. Deletions are
      * oldest-first prefixes of the segment timeline [0,1): format i lacks
      * segments t < d_i. A consumer reads segment t from the deepest chain
      * level that still holds it, i.e. level i serves
      * max(0, min(d_0..d_{i-1}) - d_i); its own format serves 1 - d_0.
      */
    def speed(del: Array[Double]): Double = {
      var minBelow = 1.0 // min deleted fraction of all deeper levels
      var time = 0.0     // wall time per unit video, in units of 1/orig
      var i = 0
      while (i < at.length) {
        val d = math.max(0.0, del(at(i)))
        val frac = if (i == 0) 1.0 - d else math.max(0.0, minBelow - d)
        if (frac > 0) time += frac / alpha(i)
        minBelow = math.min(minBelow, d)
        i += 1
      }
      if (time <= 0) 1.0 else math.min(1.0, 1.0 / time)
    }
  }

  /** The erosion kernel for one tree and consumer set. The tree's formats
    * are indexed once, the non-root (erodible) formats first at 0 until
    * `erodible.size`, then the root; deletion states are arrays over that
    * index. Each consumer's chain and each erodible format's name are
    * computed here, once.
    */
  private final class Kernel(tree: FormatTree, consumers: Seq[ErosionConsumer]) {
    private val erodible = tree.formats.filterNot(_ == tree.root)
    private val formats = erodible :+ tree.root
    private val indexOf = formats.zipWithIndex.toMap
    consumers.foreach(c => require(indexOf.contains(c.subscribed),
      s"erosion: consumer ${c.name} subscribes to ${c.subscribed}, which is not in the format tree"))
    private val names = erodible.map(_.toString).toArray
    private val chains: Array[Chain] = consumers.map { c =>
      val orig = c.effectiveSpeed(c.subscribed)
      val levels = if (orig <= 0) Nil else c.subscribed :: tree.ancestors(c.subscribed)
      new Chain(levels.map(indexOf).toArray,
        levels.map(sf => math.max(math.min(1.0, c.effectiveSpeed(sf) / orig), 1e-9)).toArray)
    }.toArray

    /** A deletion state as an array; formats it does not name are intact. */
    def deletions(del: Deletion): Array[Double] = formats.map(del.getOrElse(_, 0.0)).toArray
    /** The erodible formats' entries of `del` as a `Deletion`. */
    def toDeletion(del: Array[Double]): Deletion = erodible.indices.map(i => erodible(i) -> del(i)).toMap

    /** The minimum relative speed across consumers; 1 with none. */
    def overall(del: Array[Double]): Double = {
      var min = 1.0
      var c = 0
      while (c < chains.length) {
        val s = chains(c).speed(del)
        if (c == 0 || s < min) min = s
        c += 1
      }
      min
    }

    /** Overall speed with every erodible format deleted. */
    def pMin: Double = overall(deletions(erodible.map(_ -> 1.0).toMap))

    /** Erode `del` in place, greedily, until overall speed <= `target`, in
      * `Step`-sized deletion increments, always picking the format whose
      * next increment reduces the overall speed the least (fair-scheduler
      * spirit: spread decay evenly; never touch the root). A format takes
      * at most 1 / `Step` steps, so this ends.
      */
    def erode(del: Array[Double], target: Double): Array[Double] = {
      var speed = overall(del)
      while (speed > target) {
        // least speed reduction first; tie-break deterministically by name
        var best = -1
        var bestSpeed = 0.0
        var i = 0
        while (i < erodible.size) {
          val d = del(i)
          if (d < 1.0 - 1e-9) {
            del(i) = math.min(1.0, d + Step)
            val sp = overall(del)
            del(i) = d
            if (best < 0 || sp > bestSpeed || (sp == bestSpeed && names(i) > names(best))) {
              best = i
              bestSpeed = sp
            }
          }
          i += 1
        }
        if (best < 0) return del
        del(best) = math.min(1.0, del(best) + Step)
        speed = bestSpeed
      }
      del
    }
  }

  /** Power-law target speed for age x (x >= 1). */
  def targetSpeed(x: Int, k: Double, pmin: Double): Double =
    (1.0 - pmin) * math.pow(x.toDouble, -k) + pmin

  /** The full plan: cumulative deletion per format for each age 1..lifespan. */
  final case class Plan(k: Double, pmin: Double, perAge: Vector[Deletion]) {
    /** Stored bytes at each age given per-format bytes/day. */
    def bytesPerAge(bytesPerDay: Map[StorageFormat, Double]): Vector[Double] =
      perAge.map(del => bytesPerDay.map { case (sf, b) => b * (1.0 - del.getOrElse(sf, 0.0)) }.sum)
    /** Total stored bytes over the lifespan; `root` is unused (perfbench passes it). */
    def totalBytes(bytesPerDay: Map[StorageFormat, Double], @unused root: StorageFormat): Double =
      bytesPerAge(bytesPerDay).sum
    /** Overall speed per age under this plan. */
    def speeds(tree: FormatTree, consumers: Seq[ErosionConsumer]): Vector[Double] = {
      val kernel = new Kernel(tree, consumers)
      perAge.map(del => kernel.overall(kernel.deletions(del)))
    }
  }

  /** Build the per-age plan for one decay factor k. Deletions accumulate:
    * age x starts from age x-1's state.
    */
  def planForK(tree: FormatTree, consumers: Seq[ErosionConsumer],
               lifespanDays: Int, k: Double): Plan =
    planForK(new Kernel(tree, consumers), lifespanDays, k)

  private def planForK(kernel: Kernel, lifespanDays: Int, k: Double): Plan = {
    val pmin = kernel.pMin
    val del = kernel.deletions(Map.empty)
    val ages = (1 to lifespanDays).map { x =>
      kernel.toDeletion(kernel.erode(del, targetSpeed(x, k, pmin)))
    }.toVector
    Plan(k, pmin, ages)
  }

  /** Find the smallest (gentlest) k whose plan fits the storage budget, by
    * binary search (higher k always stores less). Returns k = 0 (no decay)
    * when the intact store already fits.
    */
  def derivePlan(tree: FormatTree, consumers: Seq[ErosionConsumer],
                 bytesPerDay: Map[StorageFormat, Double], lifespanDays: Int,
                 budgetBytes: Double): Plan = {
    val kernel = new Kernel(tree, consumers)
    def fits(k: Double): (Plan, Boolean) = {
      val p = planForK(kernel, lifespanDays, k)
      (p, p.totalBytes(bytesPerDay, tree.root) <= budgetBytes)
    }
    val (p0, ok0) = fits(0.0)
    if (ok0) return p0
    val (pMaxPlan, okMax) = fits(KMax)
    if (!okMax) return pMaxPlan // even max decay cannot fit; return best effort
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
