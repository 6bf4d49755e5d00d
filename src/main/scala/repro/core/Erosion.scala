package repro.core

import scala.annotation.unused
import scala.collection.mutable
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
  *
  * Erosion proceeds in 5 % deletion steps along one greedy path whose next
  * step depends on the current deletions only (`Kernel.stop`). Each age
  * stops on that path where its target is met, so all ages at all k share
  * it.
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
    *
    * The kernel also holds the greedy erosion path (`stop`). Its next step
    * depends on the current state alone, never on a target, so every age
    * at every k stops on this one path: eroding age x from age x - 1's state
    * until the overall speed is <= P(x) stops at the first path state at or
    * after age x - 1's whose speed is <= P(x), or at the path's end. Sharing
    * the path is therefore exact. It also gives the planner's monotonicity:
    * a later state never deletes less of any format, and a lower target
    * never stops earlier, so deletions grow with the age and with k.
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

    /* The greedy erosion path, built on demand. State 0 is intact; state
     * t + 1 is state t plus one `Step` on the erodible format whose
     * increment lowers the overall speed least, ties broken by name
     * (fair-scheduler spirit: spread decay evenly; never touch the root). A
     * format takes at most 1 / `Step` steps, so the path is finite; it ends
     * at the first state in which every erodible format is gone.
     */
    private val states = mutable.ArrayBuffer(deletions(Map.empty))
    private val speeds = mutable.ArrayBuffer(overall(states.head))
    private var ended = false

    /** Path state t, which must have been reached by `stop`. */
    def state(t: Int): Array[Double] = states(t)

    /** The first path state at or after `from` whose overall speed is <=
      * `target`, or the path's last state. This is where eroding from
      * state `from` to `target` stops: the next step reads the state alone,
      * never a target.
      */
    def stop(from: Int, target: Double): Int = {
      var t = from
      while (speeds(t) > target && (t + 1 < states.size || extend())) t += 1
      t
    }

    /** Append the next path state; false when the last one erodes everything. */
    private def extend(): Boolean = !ended && {
      val del = states.last.clone()
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
      ended = best < 0
      if (!ended) {
        del(best) = math.min(1.0, del(best) + Step)
        states += del
        speeds += bestSpeed
      }
      !ended
    }
  }

  /** Power-law target speed for age x (x >= 1). */
  def targetSpeed(x: Int, k: Double, pmin: Double): Double =
    (1.0 - pmin) * math.pow(x.toDouble, -k) + pmin

  /** The full plan: cumulative deletion per format for each age 1..lifespan. */
  final case class Plan(k: Double, pmin: Double, perAge: Vector[Deletion]) {
    /** Stored bytes at each age given per-format bytes/day. */
    def bytesPerAge(bytesPerDay: Map[StorageFormat, Double]): Vector[Double] =
      perAge.map(storedBytes(bytesPerDay, _))
    /** Total stored bytes over the lifespan; `root` is unused (perfbench passes it). */
    def totalBytes(bytesPerDay: Map[StorageFormat, Double], @unused root: StorageFormat): Double =
      bytesPerAge(bytesPerDay).sum
    /** Overall speed per age under this plan. */
    def speeds(tree: FormatTree, consumers: Seq[ErosionConsumer]): Vector[Double] = {
      val kernel = new Kernel(tree, consumers)
      perAge.map(del => kernel.overall(kernel.deletions(del)))
    }
  }

  /** Stored bytes per day under deletion `del`. */
  private def storedBytes(bytesPerDay: Map[StorageFormat, Double], del: Deletion): Double =
    bytesPerDay.map { case (sf, b) => b * (1.0 - del.getOrElse(sf, 0.0)) }.sum

  /** The path state each age 1..lifespan stops on at decay factor k. */
  private def stops(kernel: Kernel, lifespanDays: Int, k: Double, pmin: Double): Array[Int] = {
    var t = 0
    Array.tabulate(lifespanDays) { i => t = kernel.stop(t, targetSpeed(i + 1, k, pmin)); t }
  }

  private def plan(kernel: Kernel, k: Double, pmin: Double, states: Array[Int]): Plan =
    Plan(k, pmin, states.map(t => kernel.toDeletion(kernel.state(t))).toVector)

  private def requireLifespan(lifespanDays: Int): Unit =
    require(lifespanDays >= 1, s"erosion: lifespanDays must be at least 1, got $lifespanDays")

  /** Build the per-age plan for one decay factor k. Deletions accumulate:
    * age x erodes from age x-1's state along the greedy path.
    */
  def planForK(tree: FormatTree, consumers: Seq[ErosionConsumer],
               lifespanDays: Int, k: Double): Plan = {
    requireLifespan(lifespanDays)
    val kernel = new Kernel(tree, consumers)
    val pmin = kernel.pMin
    plan(kernel, k, pmin, stops(kernel, lifespanDays, k, pmin))
  }

  /** Find the smallest (gentlest) k whose plan fits the storage budget, by
    * binary search (higher k always stores less). Returns k = 0 (no decay)
    * when the intact store already fits, and the KMax plan, over budget,
    * when even that does not fit (a negative budget included).
    *
    * Every k the search tries stops on the kernel's one greedy path, so
    * each path state's stored bytes are computed once, and a try sums them
    * in age order as `Plan.totalBytes` does, to the same bits.
    */
  def derivePlan(tree: FormatTree, consumers: Seq[ErosionConsumer],
                 bytesPerDay: Map[StorageFormat, Double], lifespanDays: Int,
                 budgetBytes: Double): Plan = {
    requireLifespan(lifespanDays)
    require(!budgetBytes.isNaN, "erosion: budgetBytes must be a number, got NaN")
    val kernel = new Kernel(tree, consumers)
    val pmin = kernel.pMin
    val stateBytes = mutable.LongMap.empty[Double] // by path state
    def bytesAt(t: Int): Double =
      stateBytes.getOrElseUpdate(t, storedBytes(bytesPerDay, kernel.toDeletion(kernel.state(t))))
    def fits(k: Double): (Array[Int], Boolean) = {
      val s = stops(kernel, lifespanDays, k, pmin)
      (s, s.map(bytesAt).sum <= budgetBytes)
    }
    val (s0, ok0) = fits(0.0)
    if (ok0) return plan(kernel, 0.0, pmin, s0)
    val (sMax, okMax) = fits(KMax)
    if (!okMax) return plan(kernel, KMax, pmin, sMax) // even max decay cannot fit; return best effort
    var lo = 0.0
    var hi = KMax
    var best = sMax // the stops at k = hi, which fits
    while (hi - lo > Tol) {
      val mid = (lo + hi) / 2
      val (s, ok) = fits(mid)
      if (ok) { best = s; hi = mid } else lo = mid
    }
    plan(kernel, hi, pmin, best)
  }
}
