package repro.core

import scala.collection.mutable
import repro.video.Knobs._
import repro.video.{CodecModel, Formats}
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
    lazy val subscription: Map[ConsumptionFormat, StorageFormat] =
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
  def demands(consumers: Seq[(Consumer, ConsumptionFormat, Double)]): Vector[Demand] =
    consumers.groupBy(_._2).map { case (cf, cs) =>
      val ceiling = CodecModel.retrievalSpeed(
        StorageFormat(cf.fidelity, Raw), cf.fidelity.sampling.fps)
      Demand(cf, math.min(cs.map(_._3).max, ceiling))
    }.toVector.sortBy(_.cf.toString)

  /** Smallest-size coding for fidelity `f` whose storage format `admit`s and
    * whose retrieval speed beats every demand; RAW if no encoded option
    * suffices (R2 case b). Returns None when even RAW is not adequate.
    */
  def cheapestAdequateCoding(profiler: Profiler, f: Fidelity, demands: Seq[Demand],
                             admit: StorageFormat => Boolean = _ => true): Option[Coding] =
    cheapestCoding(profiler, f, fastestPerRate(demands), admit)

  /** The one coding rule of §4.3, on demands kept per sampling rate (see
    * `fastestPerRate`). Candidates come in `Profiler.codingsBySize` order,
    * which profiles `f`'s encoded formats once per profiler, so the pick
    * minimizes storage under the constraints; `admit` sees only candidates
    * that meet R2.
    */
  private def cheapestCoding(profiler: Profiler, f: Fidelity, fastest: Array[Demand],
                             admit: StorageFormat => Boolean): Option[Coding] = {
    (profiler.codingsBySize(f) :+ Raw).find { c =>
      val sf = StorageFormat(f, c)
      meets(sf, fastest) && admit(sf)
    }
  }

  /** The fastest of `demands` at each sampling rate, indexed by
    * `FrameSampling.rank`, null at a rate with no demand. R2 reads only a
    * demand's sampling rate and speed, so a format meets all of `demands`
    * exactly when it meets these, and the demands of a node set are the
    * slot-wise `faster` of its nodes' arrays.
    */
  private[core] def fastestPerRate(demands: Seq[Demand]): Array[Demand] = {
    val fastest = new Array[Demand](FrameSampling.all.size)
    demands.foreach { d =>
      val r = d.cf.fidelity.sampling.rank
      fastest(r) = faster(fastest(r), d)
    }
    fastest
  }

  /** The faster of two demands at one rate (null: no demand), by
    * `java.lang.Double.compare`: the total order `RichDouble.compare`
    * delegates to, without its boxing. A NaN speed, which no retrieval
    * meets, wins.
    */
  private def faster(a: Demand, b: Demand): Demand =
    if (a == null || (b != null && java.lang.Double.compare(b.maxConsumerSpeed, a.maxConsumerSpeed) > 0)) b
    else a

  private def faster(a: Array[Demand], b: Array[Demand]): Array[Demand] =
    Array.tabulate(a.length)(r => faster(a(r), b(r)))

  /** R2 against every per-rate demand of `fastest`. */
  private def meets(sf: StorageFormat, fastest: Array[Demand]): Boolean =
    fastest.forall(d => d == null || retrievalOk(sf, d))

  /** R2: retrieval at the demand's sampling rate must exceed its fastest
    * consumer's consumption speed.
    */
  def retrievalOk(sf: StorageFormat, d: Demand): Boolean =
    CodecModel.retrievalSpeed(sf, d.cf.fidelity.sampling.fps) >= d.maxConsumerSpeed

  /** Attempt to coalesce two nodes: knob-wise max fidelity, then the
    * smallest-size admitted coding adequate for the union of demands. None
    * if no coding (not even RAW) qualifies.
    */
  def coalescePair(profiler: Profiler, a: Node, b: Node,
                   demandOf: Map[ConsumptionFormat, Demand],
                   admit: StorageFormat => Boolean = _ => true): Option[Node] = {
    def fastest(n: Node) = fastestPerRate(n.cfs.toSeq.map(demandOf))
    merged(profiler, a.sf, b.sf, faster(fastest(a), fastest(b)), admit).map(Node(_, a.cfs ++ b.cfs))
  }

  /** The coalesced format of `a` and `b` for the pair's per-rate demands
    * `fastest`: knob-wise max fidelity and `cheapestCoding`.
    */
  private def merged(profiler: Profiler, a: StorageFormat, b: StorageFormat,
                     fastest: Array[Demand], admit: StorageFormat => Boolean): Option[StorageFormat] = {
    val f2 = Fidelity.max(a.fidelity, b.fidelity)
    cheapestCoding(profiler, f2, fastest, admit).map(StorageFormat(f2, _))
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

  /** A working node's format with its integer id, its fastest demand per
    * sampling rate (`fastestPerRate`) and its profiled storage and ingest
    * cost. A merge or a coding tune makes a new slot with a fresh id. The
    * CFs a slot serves are kept beside it, since only applied merges need
    * their union.
    */
  private[core] final case class Slot(id: Int, sf: StorageFormat, fastest: Array[Demand],
                                      bytes: Double, cores: Double)

  /** A candidate merge of slots `i` < `j` into `slot`, with the total
    * storage and ingest cost the node set would have after it.
    */
  private final case class Merge(i: Int, j: Int, slot: Slot, storage: Double, ingest: Double)

  /** Run greedy coalescing. `ingestBudgetCores` of None means "minimize
    * storage with no ingest constraint" (the paper's end-to-end setup).
    *
    * A pair's merge depends only on its two nodes: the demands are fixed,
    * and phase 2's filter reads the pair's own ingest and the golden
    * fidelity, which phase 2 never changes. So each phase keeps a table of
    * merges keyed by the pair's ids, and a round evaluates only the pairs
    * it has not seen (lazy re-evaluation, Minoux 1978). Totals are rebuilt
    * every round in pair order, so ties break as a full re-evaluation would.
    *
    * A pair's demands are the slot-wise `faster` of its two slots' per-rate
    * arrays, which is exact because R2 reads only a demand's rate and
    * speed; the pair's CF union is built only when its merge is applied.
    */
  def derive(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)],
             ingestBudgetCores: Option[Double] = None): Result = {
    val ds = demands(consumers)
    val demandOf = ds.map(d => d.cf -> d).toMap
    var nextId = 0
    def slot(sf: StorageFormat, fastest: Array[Demand]): Slot = {
      val p = profiler.profileSf(sf)
      nextId += 1
      Slot(nextId - 1, sf, fastest, p.bytesPerSec, p.ingestCores)
    }
    val initial = initialNodes(profiler, ds)
    var slots = initial.map(n => slot(n.sf, fastestPerRate(n.cfs.toSeq.map(demandOf))))
    var served = initial.map(_.cfs) // the CFs of each slot, aligned with `slots`
    var rounds = 0
    def storage: Double = slots.map(_.bytes).sum
    def ingest: Double = slots.map(_.cores).sum

    // every pair merge whose coding `admit` accepts, in pair order; `table`
    // holds each pair's merge (None: no admitted coding) by (id(a) << 32) | id(b)
    def merges(table: mutable.LongMap[Option[Slot]],
               admit: (Slot, Slot) => StorageFormat => Boolean): Seq[Merge] = {
      val (st, in) = (storage, ingest)
      for {
        i <- slots.indices
        j <- slots.indices if j > i
        (a, b) = (slots(i), slots(j))
        m <- table.getOrElseUpdate((a.id.toLong << 32) | b.id, {
          val fastest = faster(a.fastest, b.fastest)
          merged(profiler, a.sf, b.sf, fastest, admit(a, b)).map(slot(_, fastest))
        })
      } yield Merge(i, j, m, st - a.bytes - b.bytes + m.bytes, in - a.cores - b.cores + m.cores)
    }
    def apply(m: Merge): Unit = {
      def others[T](v: Vector[T]): Vector[T] =
        v.zipWithIndex.collect { case (x, k) if k != m.i && k != m.j => x }
      served = others(served) :+ (served(m.i) ++ served(m.j))
      slots = others(slots) :+ m.slot
      rounds += 1
    }

    // Phase 1: coalesce while some pair reduces ingest without raising storage.
    val freeMerges = mutable.LongMap.empty[Option[Slot]]
    def coalesceFree(): Boolean = {
      val (st, in) = (storage, ingest)
      merges(freeMerges, (_, _) => _ => true)
        .filter(m => m.storage <= st + 1e-9 && m.ingest < in - 1e-12)
        .minByOption(_.ingest).map(apply).isDefined
    }
    while (coalesceFree()) ()

    // Phase 2: enforce the ingest budget — cheaper coding first, then the
    // merge with the least resulting storage (least damage). The golden
    // fidelity is the erosion anchor (§4.4) and is never stored RAW: its
    // raw footprint would dwarf every other cost.
    ingestBudgetCores.foreach { budget =>
      val goldenFid = root(slots.map(_.sf)).fidelity
      def noRawGolden(sf: StorageFormat): Boolean = !(sf.coding.isRaw && sf.fidelity == goldenFid)
      // a budget merge only helps if it lowers ingest below the pair's own cost
      def cheaperThanPair(a: Slot, b: Slot): StorageFormat => Boolean = {
        val pairIngest = a.cores + b.cores
        sf => noRawGolden(sf) && profiler.profileSf(sf).ingestCores < pairIngest - 1e-12
      }
      val budgetMerges = mutable.LongMap.empty[Option[Slot]]
      def tuneOrCoalesce(): Boolean =
        bestCodingTune(profiler, slots, noRawGolden) match {
          case Some((idx, sf)) => slots = slots.updated(idx, slot(sf, slots(idx).fastest)); true
          case None => merges(budgetMerges, cheaperThanPair).minByOption(_.storage).map(apply).isDefined
        }
      while (ingest > budget && tuneOrCoalesce()) ()
    }

    Result(slots.zip(served).map { case (s, cfs) => Node(s.sf, cfs) }, rounds)
  }

  /** One coding-tuning move for the ingest budget: among all nodes, step one
    * node's coding to the next-cheaper (faster) option — speed-step first,
    * then RAW as the last resort — choosing the node where the move costs
    * the least extra storage per core saved. Cheaper coding decodes faster,
    * so retrieval adequacy is preserved by construction (checked anyway for
    * the RAW jump, against the slot's per-rate demands). `admit` filters
    * the tuned formats. Each slot's own cost is its cached profile; only the
    * tuned format is profiled.
    */
  private def bestCodingTune(profiler: Profiler, slots: Vector[Slot],
                             admit: StorageFormat => Boolean): Option[(Int, StorageFormat)] =
    slots.zipWithIndex.flatMap { case (s, idx) =>
      nextCheaperCoding(s.sf.coding)
        .map(StorageFormat(s.sf.fidelity, _))
        .filter(sf2 => admit(sf2) && meets(sf2, s.fastest))
        .flatMap(sf2 => tuneCost(s, profiler.profileSf(sf2)).map((idx, sf2, _)))
    }.minByOption(_._3).map { case (idx, sf2, _) => (idx, sf2) }

  /** The price of tuning slot `s` to a coding profiled as `tuned`: extra
    * bytes stored per core of ingest saved. None when the tune saves no
    * ingest.
    */
  private[core] def tuneCost(s: Slot, tuned: Profiler.SfProfile): Option[Double] = {
    val dIngest = s.cores - tuned.ingestCores
    if (dIngest <= 0) None else Some((tuned.bytesPerSec - s.bytes) / dIngest)
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

  /** Exhaustive enumeration baseline (§6.4): try every partition of the
    * initial nodes, golden node included, coalesce each block into one
    * format, and return the partition with minimum total storage among those
    * meeting all demands. Folding a block pairwise gives its knob-wise max
    * fidelity and the cheapest coding adequate for the union of its demands.
    * A pair no coding serves makes the whole block infeasible: then RAW at
    * the pair's fidelity misses one of its demands, and growing the block
    * only adds demands and makes the fidelity richer, where no coding
    * retrieves faster than RAW at the poorer fidelity, at any rate up to
    * that fidelity's own. (A fixed coding can retrieve faster at a richer
    * fidelity, through chunk skipping, so the argument needs RAW.)
    * Exponential (Bell number) — callers must keep the CF set small.
    */
  def deriveExhaustive(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)])
  : Result = {
    val ds = demands(consumers)
    val demandOf = ds.map(d => d.cf -> d).toMap

    def partitions(items: List[Node]): Iterator[List[List[Node]]] =
      items match {
        case Nil => Iterator(Nil)
        case head :: tail =>
          partitions(tail).flatMap { part =>
            val withNew = (List(head) :: part) ::
              part.indices.map(i => part.updated(i, head :: part(i))).toList
            withNew.iterator
          }
      }

    val best = partitions(initialNodes(profiler, ds).toList).flatMap { part =>
      val merged = part.map(block => block.tail.foldLeft(Option(block.head)) { (acc, n) =>
        acc.flatMap(coalescePair(profiler, _, n, demandOf))
      })
      if (merged.exists(_.isEmpty)) None else Some(merged.flatten.toVector)
    }.minBy(_.map(n => profiler.profileSf(n.sf).bytesPerSec).sum)
    Result(best, rounds = 0)
  }
}
