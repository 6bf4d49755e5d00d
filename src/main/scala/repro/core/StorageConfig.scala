package repro.core

import repro.video.Knobs._
import repro.video.Formats
import repro.video.Formats._
import repro.video.OperatorModel.Consumer

/** §4.3 — deriving storage formats by iterative pairwise coalescing.
  *
  * Start from one storage format per unique consumption format (identical
  * fidelity, smallest-size coding whose retrieval speed still exceeds every
  * downstream consumer's consumption speed; RAW when even the cheapest
  * coding is too slow to decode) plus the *golden* format (knob-wise max
  * fidelity, slowest coding). Then repeatedly coalesce the pair that
  * maximally reduces ingestion cost without increasing storage cost. When an
  * ingestion budget is given and exceeded, first re-tune individual formats
  * to cheaper coding (always retrieval-safe: cheaper coding decodes faster),
  * then coalesce further — both at the expense of storage (paper Table 3).
  */
object StorageConfig {

  /** One working storage format and the consumption formats it serves. */
  final case class Node(sf: StorageFormat, cfs: Set[ConsumptionFormat])

  /** A derived storage configuration. */
  final case class Result(
      nodes: Vector[Node],
      rounds: Int,
  ) {
    def sfs: Vector[StorageFormat] = nodes.map(_.sf)
    /** CF -> storage format serving it. */
    def subscription: Map[ConsumptionFormat, StorageFormat] =
      (for (n <- nodes; cf <- n.cfs) yield cf -> n.sf).toMap
    /** The stored golden format: the erosion root, never eroded (§4.4). */
    lazy val root: StorageFormat = StorageConfig.root(sfs)
  }

  /** The golden root of a stored format set: the format richer-or-equal to
    * every other, ties broken by name. The golden node starts at the
    * knob-wise max fidelity and merges only take knob-wise maxima, so every
    * derived set has one.
    */
  def root(sfs: Seq[StorageFormat]): StorageFormat = {
    val roots = sfs.filter(r => sfs.forall(o => r.fidelity.richerOrEqual(o.fidelity)))
    require(roots.nonEmpty, s"no format is richer-or-equal to all of ${sfs.mkString(", ")}")
    roots.minBy(_.toString)
  }

  /** Demand of one consumption format: the fastest consumption speed among
    * its consumers (retrieval must beat it, R2) and its sampling rate.
    */
  final case class Demand(cf: ConsumptionFormat, maxConsumerSpeed: Double)

  /** One demand per unique CF, ordered by CF name. Each is capped at the
    * fastest physically attainable retrieval for its CF — RAW at the CF's
    * own fidelity — because no storage format can retrieve faster than that;
    * consumers faster than the disk are necessarily retrieval-bound (the
    * paper's SF3 row has the same property: its retrieval ceiling is what
    * such consumers get).
    */
  def demands(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)]): Vector[Demand] =
    consumers.groupBy(_._2).map { case (cf, cs) =>
      val ceiling = profiler.retrievalSpeed(
        StorageFormat(cf.fidelity, Raw), cf.fidelity.sampling.fps)
      Demand(cf, math.min(cs.map(_._3).max, ceiling))
    }.toVector.sortBy(_.cf.toString)

  /** Smallest-size coding for fidelity `f` whose storage format `admit`s and
    * whose retrieval speed beats every demand; RAW if no encoded option
    * suffices (R2 case b). Candidates are ordered by stored size (profiled;
    * the profiler memoizes), so the pick minimizes storage under the
    * constraints. Returns None when even RAW is not adequate.
    */
  def cheapestAdequateCoding(profiler: Profiler, f: Fidelity, demands: Seq[Demand],
                             admit: StorageFormat => Boolean = _ => true): Option[Coding] = {
    val bySize = Coding.space.filterNot(_.isRaw)
      .sortBy(c => profiler.profileSf(StorageFormat(f, c)).bytesPerSec)
    (bySize :+ Raw).find { c =>
      val sf = StorageFormat(f, c)
      demands.forall(d => retrievalOk(profiler, sf, d)) && admit(sf)
    }
  }

  /** R2: retrieval at the demand's sampling rate must exceed its fastest
    * consumer's consumption speed.
    */
  def retrievalOk(profiler: Profiler, sf: StorageFormat, d: Demand): Boolean =
    profiler.retrievalSpeed(sf, d.cf.fidelity.sampling.fps) >= d.maxConsumerSpeed

  private def storageCost(profiler: Profiler, nodes: Seq[Node]): Double =
    nodes.map(n => profiler.profileSf(n.sf).bytesPerSec).sum

  private def ingestCost(profiler: Profiler, nodes: Seq[Node]): Double =
    nodes.map(n => profiler.profileSf(n.sf).ingestCores).sum

  /** Attempt to coalesce two nodes: knob-wise max fidelity, then the
    * smallest-size admitted coding adequate for the union of demands. None
    * if no coding (not even RAW) qualifies.
    */
  def coalescePair(profiler: Profiler, a: Node, b: Node,
                   demandOf: Map[ConsumptionFormat, Demand],
                   admit: StorageFormat => Boolean = _ => true): Option[Node] = {
    val f2 = Fidelity.max(a.sf.fidelity, b.sf.fidelity)
    val cfs = a.cfs ++ b.cfs
    cheapestAdequateCoding(profiler, f2, cfs.toSeq.map(demandOf), admit)
      .map(c => Node(StorageFormat(f2, c), cfs))
  }

  /** The initial node set: one SF per unique CF, then the golden node. */
  def initialNodes(profiler: Profiler, demands: Seq[Demand]): Vector[Node] = {
    val perCf = demands.map { d =>
      val coding = cheapestAdequateCoding(profiler, d.cf.fidelity, Seq(d)).getOrElse(Raw)
      Node(StorageFormat(d.cf.fidelity, coding), Set(d.cf))
    }
    // the golden node initially serves no CF; it exists as the erosion root
    perCf.toVector :+ Node(Formats.golden(demands.map(_.cf)), Set.empty)
  }

  /** Run greedy coalescing. `ingestBudgetCores` of None means "minimize
    * storage with no ingest constraint" (the paper's end-to-end setup).
    */
  def derive(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)],
             ingestBudgetCores: Option[Double] = None): Result = {
    val ds = demands(profiler, consumers)
    val demandOf = ds.map(d => d.cf -> d).toMap
    var nodes = initialNodes(profiler, ds)
    var rounds = 0

    // Phase 1: coalesce while some pair reduces ingest without raising storage.
    var progress = true
    while (progress) {
      val curStorage = storageCost(profiler, nodes)
      val curIngest = ingestCost(profiler, nodes)
      val best = bestMerge(profiler, nodes, demandOf,
        keep = (st, in) => st <= curStorage + 1e-9 && in < curIngest - 1e-12,
        score = (_, in) => in)
      best.foreach { case (i, j, merged) =>
        nodes = applyMerge(nodes, i, j, merged)
        rounds += 1
      }
      progress = best.isDefined
    }

    // Phase 2: enforce the ingest budget — cheaper coding first, then
    // storage-increasing coalescing. The golden fidelity is the erosion
    // anchor (§4.4) and is never stored RAW: its raw footprint would dwarf
    // every other cost.
    val goldenFid = root(nodes.map(_.sf)).fidelity
    def noRawGolden(sf: StorageFormat): Boolean = !(sf.coding.isRaw && sf.fidelity == goldenFid)
    // a budget merge only helps if it lowers ingest below the pair's own cost
    def cheaperThanPair(a: Node, b: Node): StorageFormat => Boolean = {
      val pairIngest = profiler.profileSf(a.sf).ingestCores + profiler.profileSf(b.sf).ingestCores
      sf => noRawGolden(sf) && profiler.profileSf(sf).ingestCores < pairIngest - 1e-12
    }
    ingestBudgetCores.foreach { budget =>
      var stuck = false
      while (!stuck && ingestCost(profiler, nodes) > budget) {
        bestCodingTune(profiler, nodes, demandOf, noRawGolden) match {
          case Some((idx, node)) => nodes = nodes.updated(idx, node)
          case None =>
            val curIngest = ingestCost(profiler, nodes)
            bestMerge(profiler, nodes, demandOf,
              keep = (_, in) => in < curIngest - 1e-12,
              score = (st, _) => st, // least resulting storage (least damage)
              admit = cheaperThanPair) match {
              case Some((i, j, merged)) =>
                nodes = applyMerge(nodes, i, j, merged); rounds += 1
              case None => stuck = true // nothing else reduces ingest
            }
        }
      }
    }

    Result(nodes, rounds)
  }

  /** Best merge among all pairs by `score` (lower is better) over the
    * resulting (storage, ingest), filtered by `keep`; `admit` filters the
    * merged coding per pair.
    */
  private def bestMerge(profiler: Profiler, nodes: Vector[Node],
                        demandOf: Map[ConsumptionFormat, Demand],
                        keep: (Double, Double) => Boolean,
                        score: (Double, Double) => Double,
                        admit: (Node, Node) => StorageFormat => Boolean = (_, _) => _ => true)
  : Option[(Int, Int, Node)] = {
    val curStorage = storageCost(profiler, nodes)
    val curIngest = ingestCost(profiler, nodes)
    val options = for {
      i <- nodes.indices
      j <- nodes.indices if j > i
      merged <- coalescePair(profiler, nodes(i), nodes(j), demandOf, admit(nodes(i), nodes(j))).toSeq
      mergedStorage = curStorage -
        profiler.profileSf(nodes(i).sf).bytesPerSec -
        profiler.profileSf(nodes(j).sf).bytesPerSec +
        profiler.profileSf(merged.sf).bytesPerSec
      mergedIngest = curIngest -
        profiler.profileSf(nodes(i).sf).ingestCores -
        profiler.profileSf(nodes(j).sf).ingestCores +
        profiler.profileSf(merged.sf).ingestCores
      if keep(mergedStorage, mergedIngest)
    } yield (i, j, merged, mergedStorage, mergedIngest)
    if (options.isEmpty) None
    else {
      val (i, j, m, _, _) = options.minBy { case (_, _, _, st, in) => score(st, in) }
      Some((i, j, m))
    }
  }

  private def applyMerge(nodes: Vector[Node], i: Int, j: Int, merged: Node): Vector[Node] =
    nodes.zipWithIndex.collect { case (n, k) if k != i && k != j => n } :+ merged

  /** One coding-tuning move for the ingest budget: among all nodes, step one
    * node's coding to the next-cheaper (faster) option — speed-step first,
    * then RAW as the last resort — choosing the node where the move costs
    * the least extra storage per core saved. Cheaper coding decodes faster,
    * so retrieval adequacy is preserved by construction (checked anyway for
    * the RAW jump). `admit` filters the tuned formats.
    */
  def bestCodingTune(profiler: Profiler, nodes: Vector[Node],
                     demandOf: Map[ConsumptionFormat, Demand],
                     admit: StorageFormat => Boolean): Option[(Int, Node)] = {
    val moves = nodes.zipWithIndex.flatMap { case (n, idx) =>
      nextCheaperCoding(n.sf.coding)
        .map(StorageFormat(n.sf.fidelity, _))
        .filter(sf2 => admit(sf2) && n.cfs.forall(cf => retrievalOk(profiler, sf2, demandOf(cf))))
        .flatMap { sf2 =>
          val dIngest = profiler.profileSf(n.sf).ingestCores - profiler.profileSf(sf2).ingestCores
          val dStorage = profiler.profileSf(sf2).bytesPerSec - profiler.profileSf(n.sf).bytesPerSec
          if (dIngest <= 0) None
          else Some((idx, Node(sf2, n.cfs), dStorage / dIngest))
        }
    }
    if (moves.isEmpty) None
    else {
      val (idx, node, _) = moves.minBy(_._3)
      Some((idx, node))
    }
  }

  /** The next cheaper-to-encode coding: bump the speed step; from `fastest`
    * fall through to RAW (encode bypass).
    */
  def nextCheaperCoding(c: Coding): Option[Coding] = c match {
    case Encoded(step, kf) =>
      SpeedStep.all.lift(step.rank + 1) match {
        case Some(next) => Some(Encoded(next, kf))
        case None       => Some(Raw)
      }
    case Raw => None
  }

  /** Exhaustive enumeration baseline (§6.4): try every partition of the CF
    * set, compute the optimal (minimum-storage) format per block, and return
    * the partition with minimum total storage among those meeting all
    * demands. Exponential (Bell number) — callers must keep the CF set small.
    */
  def deriveExhaustive(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)])
  : Result = {
    val ds = demands(profiler, consumers)
    val demandOf = ds.map(d => d.cf -> d).toMap
    val cfs = ds.map(_.cf)
    val goldenSf = Formats.golden(cfs)
    // The golden format always exists (erosion root); serving a block of CFs
    // *from* it is a legal configuration. Model it as a phantom partition
    // element pinning its block's fidelity to the golden fidelity.
    val goldenCf = ConsumptionFormat(goldenSf.fidelity)
    val phantomGolden = !demandOf.contains(goldenCf)
    val goldenDemand = Demand(goldenCf, 0.0)
    def demand(cf: ConsumptionFormat): Demand =
      if (cf == goldenCf && phantomGolden) goldenDemand else demandOf(cf)

    def blocks(items: List[ConsumptionFormat]): Iterator[List[List[ConsumptionFormat]]] =
      items match {
        case Nil => Iterator(Nil)
        case head :: tail =>
          blocks(tail).flatMap { part =>
            val withNew = (List(head) :: part) ::
              part.indices.map(i => part.updated(i, head :: part(i))).toList
            withNew.iterator
          }
      }

    val best = blocks((cfs :+ goldenCf).distinct.toList).flatMap { part =>
      val nodesOpt = part.map { block =>
        val f = block.map(_.fidelity).reduce(Fidelity.max)
        cheapestAdequateCoding(profiler, f, block.map(demand))
          .map(c => Node(StorageFormat(f, c),
            if (phantomGolden) block.toSet - goldenCf else block.toSet))
      }
      if (nodesOpt.exists(_.isEmpty)) None
      else Some {
        val nodes = nodesOpt.flatten.toVector
        nodes -> storageCost(profiler, nodes)
      }
    }.minBy(_._2)
    Result(best._1, rounds = 0)
  }
}
