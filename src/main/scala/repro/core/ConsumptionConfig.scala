package repro.core

import repro.video.Knobs._
import repro.video.OperatorModel.{Consumer, Operator}

/** §4.2 — deriving consumption formats.
  *
  * For each consumer `<op, target-accuracy>` find the fidelity with adequate
  * accuracy and minimum consumption cost, profiling only a small subset of
  * the 600-option fidelity space:
  *
  *  1. fix image quality at its highest value (O2: quality does not affect
  *     consumption cost);
  *  2. partition the remaining 3-D space (crop x resolution x sampling)
  *     along the shortest dimension (crop, 3 values) into 2-D slices;
  *  3. in each (resolution x sampling) slice walk the accuracy boundary of
  *     the monotone accuracy surface (O1), profiling only boundary cells;
  *  4. take the boundary point with minimum consumption cost across slices,
  *     then lower image quality while accuracy stays adequate (cost is
  *     unchanged; storage shrinks opportunistically).
  *
  * Profiling cost: O((N_sampling + N_resolution) * N_crop + N_quality) runs
  * per consumer, vs N_s*N_r*N_c*N_q for exhaustive search.
  */
object ConsumptionConfig {

  /** Derived consumption format plus the accuracy/cost measured for it. */
  final case class Derived(consumer: Consumer, fidelity: Fidelity,
                           accuracy: Double, consumptionCost: Double) {
    def consumptionSpeed: Double = 1.0 / consumptionCost
  }

  /** Walk the accuracy boundary of one (resolution x sampling) slice, at
    * the best image quality (step 1).
    *
    * Accuracy is non-decreasing in resolution and in sampling (O1), so the
    * minimal adequate sampling can only grow as resolution drops: a
    * monotone staircase. The walk finds it on the richest resolution by
    * moving left from the richest sampling; after that the sampling cursor
    * only moves right, one resolution at a time, and the walk stops at the
    * first resolution with no adequate sampling (every poorer one has none
    * either). It profiles O(N_res + N_samp) cells and returns the minimal
    * adequate cell of each resolution it reached; the paper keeps the whole
    * boundary because the lowest consumption cost may sit anywhere on it.
    */
  def boundaryCandidates(profiler: Profiler, op: Operator, target: Double,
                         crop: CropFactor): Vector[Fidelity] = {
    val resos = Resolution.ten.sortBy(-_.height) // richest first
    val samps = FrameSampling.all                 // poorest..richest
    def cell(res: Resolution, j: Int) = Fidelity(ImageQuality.Best, crop, res, samps(j))
    def adequate(res: Resolution, j: Int): Boolean =
      profiler.profileOp(op, cell(res, j)).accuracy >= target
    // richest resolution: walk left while adequate
    val first = (samps.length - 1 to 0 by -1).iterator
      .takeWhile(adequate(resos.head, _)).toVector.lastOption
    // poorer resolutions: walk right from the previous column
    val cols = resos.tail.scanLeft(first) { (col, res) =>
      col.flatMap(j => (j until samps.length).find(adequate(res, _)))
    }
    resos.zip(cols).collect { case (res, Some(j)) => cell(res, j) }
  }

  /** Derive the consumption format for one consumer. Falls back to the full
    * ingest fidelity when no option reaches the target (by construction the
    * full fidelity has accuracy 1.0 = ground truth).
    */
  def derive(profiler: Profiler, consumer: Consumer): Derived = {
    val op = consumer.op
    val target = consumer.targetAccuracy
    val candidates = CropFactor.all.flatMap(boundaryCandidates(profiler, op, target, _))
    val best3d: Fidelity =
      if (candidates.isEmpty) Fidelity.full
      else candidates.minBy(f => profiler.profileOp(op, f).consumptionCost)

    // Lower image quality to the minimum adequate (O2: no cost change).
    var chosen = best3d
    var qi = ImageQuality.Best.rank - 1
    var go = true
    while (go && qi >= 0) {
      val cand = chosen.copy(quality = ImageQuality.all(qi))
      val p = profiler.profileOp(op, cand)
      if (p.accuracy >= target) { chosen = cand; qi -= 1 } else go = false
    }

    val p = profiler.profileOp(op, chosen)
    Derived(consumer, chosen, p.accuracy, p.consumptionCost)
  }

  /** Exhaustive derivation (the Figure 13 baseline): profile every fidelity
    * option and pick the cheapest adequate one.
    */
  def deriveExhaustive(profiler: Profiler, consumer: Consumer): Derived = {
    val op = consumer.op
    val all = Fidelity.space.map(f => f -> profiler.profileOp(op, f))
    val ok = all.filter(_._2.accuracy >= consumer.targetAccuracy)
    val (f, p) =
      if (ok.isEmpty) (Fidelity.full, profiler.profileOp(op, Fidelity.full))
      else ok.minBy(_._2.consumptionCost)
    Derived(consumer, f, p.accuracy, p.consumptionCost)
  }
}
