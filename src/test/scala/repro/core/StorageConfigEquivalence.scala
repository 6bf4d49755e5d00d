package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core.StorageConfig._
import repro.report.Reports
import repro.video.Knobs._
import repro.video.Formats
import repro.video.Formats._
import repro.video.{CodecModel, OperatorModel, VideoProfile}
import repro.video.OperatorModel.Consumer

/** `StorageConfig.derive` and `deriveExhaustive` against a reference copy of
  * the earlier §4.3 loop — a closure-driven `bestMerge` plus `bestCodingTune`
  * that re-coalesces every pair each round — and of the earlier enumeration
  * that modelled the golden format as a phantom CF. The references keep
  * their own copies of `initialNodes`, `coalescePair` and a
  * `cheapestAdequateCoding` that sorts the codings on every call, so their
  * `sfExamined` is the earlier code's; they share `demands`, `retrievalOk`
  * and `nextCheaperCoding`.
  */
class StorageConfigEquivalence extends AnyFunSuite {

  private def profiler() =
    new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)

  private def triplesFor(consumers: Seq[Consumer]) =
    VStoreConfigurator.storageInputs(VStoreConfigurator.derive(consumers).derived)

  private val budgets: Seq[Option[Double]] = Reports.table3Budgets ++ Seq(Some(0.25), Some(0.05))

  // also: no more sfExamined than the reference, which re-sorts codings per call
  test("derive equals the reference loop, with equal sfRuns, on 51 consumer sets x 11 budgets") {
    val rng = new Random(4302)
    val subsets = Seq.fill(50)(rng.shuffle(OperatorModel.consumers).take(1 + rng.nextInt(24)))
    val mismatches = for {
      consumers <- OperatorModel.consumers +: subsets
      triples = triplesFor(consumers)
      budget <- budgets
      (p, ref) = (profiler(), profiler())
      (got, want) = (derive(p, triples, budget), Reference.derive(ref, triples, budget))
      if got != want || p.sfRuns != ref.sfRuns || p.sfExamined > ref.sfExamined
    } yield s"${consumers.size} consumers, budget $budget: rounds ${got.rounds} vs ${want.rounds}, " +
      s"sfRuns ${p.sfRuns} vs ${ref.sfRuns}, sfExamined ${p.sfExamined} vs ${ref.sfExamined}" +
      s"\n  got  ${got.sfs}\n  want ${want.sfs}"
    assert(mismatches.isEmpty, mismatches.take(3).mkString("\n"))
  }

  test("deriveExhaustive's storage cost equals the phantom-golden enumeration's (§6.4)") {
    def cost(r: Result) = r.sfs.map(CodecModel.storedBytesPerSec(_, VideoProfile.jackson)).sum
    import OperatorModel._
    for (ops <- Seq(Seq(Motion, License), Seq(Diff, NN), Seq(OCR, SNN))) {
      val triples = triplesFor(for (op <- ops; a <- accuracyLevels) yield Consumer(op, a))
      val got = cost(deriveExhaustive(profiler(), triples))
      val want = cost(Reference.deriveExhaustive(profiler(), triples))
      assert(math.abs(got - want) <= want * 1e-12, s"${ops.map(_.name)}: $got vs $want")
    }
  }

  /** The earlier implementation, kept only as the oracle of this suite. */
  private object Reference {

    private def cheapestAdequateCoding(profiler: Profiler, f: Fidelity, demands: Seq[Demand],
                                       admit: StorageFormat => Boolean = _ => true): Option[Coding] = {
      val bySize = Coding.space.filterNot(_.isRaw)
        .sortBy(c => profiler.profileSf(StorageFormat(f, c)).bytesPerSec)
      (bySize :+ Raw).find { c =>
        val sf = StorageFormat(f, c)
        demands.forall(retrievalOk(sf, _)) && admit(sf)
      }
    }

    private def coalescePair(profiler: Profiler, a: Node, b: Node,
                             demandOf: Map[ConsumptionFormat, Demand],
                             admit: StorageFormat => Boolean): Option[Node] = {
      val f2 = Fidelity.max(a.sf.fidelity, b.sf.fidelity)
      val cfs = a.cfs ++ b.cfs
      cheapestAdequateCoding(profiler, f2, cfs.toSeq.map(demandOf), admit)
        .map(c => Node(StorageFormat(f2, c), cfs))
    }

    private def initialNodes(profiler: Profiler, demands: Seq[Demand]): Vector[Node] =
      demands.map { d =>
        val coding = cheapestAdequateCoding(profiler, d.cf.fidelity, Seq(d)).getOrElse(Raw)
        Node(StorageFormat(d.cf.fidelity, coding), Set(d.cf))
      }.toVector :+ Node(Formats.golden(demands.map(_.cf)), Set.empty)

    private def storageCost(profiler: Profiler, nodes: Seq[Node]): Double =
      nodes.map(n => profiler.profileSf(n.sf).bytesPerSec).sum

    private def ingestCost(profiler: Profiler, nodes: Seq[Node]): Double =
      nodes.map(n => profiler.profileSf(n.sf).ingestCores).sum

    def derive(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)],
               ingestBudgetCores: Option[Double]): Result = {
      val ds = demands(consumers)
      val demandOf = ds.map(d => d.cf -> d).toMap
      var nodes = initialNodes(profiler, ds)
      var rounds = 0

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

      val goldenFid = root(nodes.map(_.sf)).fidelity
      def noRawGolden(sf: StorageFormat): Boolean = !(sf.coding.isRaw && sf.fidelity == goldenFid)
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
                score = (st, _) => st,
                admit = cheaperThanPair) match {
                case Some((i, j, merged)) =>
                  nodes = applyMerge(nodes, i, j, merged); rounds += 1
                case None => stuck = true
              }
          }
        }
      }
      Result(nodes, rounds)
    }

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

    private def bestCodingTune(profiler: Profiler, nodes: Vector[Node],
                               demandOf: Map[ConsumptionFormat, Demand],
                               admit: StorageFormat => Boolean): Option[(Int, Node)] = {
      val moves = nodes.zipWithIndex.flatMap { case (n, idx) =>
        nextCheaperCoding(n.sf.coding)
          .map(StorageFormat(n.sf.fidelity, _))
          .filter(sf2 => admit(sf2) && n.cfs.forall(cf => retrievalOk(sf2, demandOf(cf))))
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

    def deriveExhaustive(profiler: Profiler, consumers: Seq[(Consumer, ConsumptionFormat, Double)])
    : Result = {
      val ds = demands(consumers)
      val demandOf = ds.map(d => d.cf -> d).toMap
      val cfs = ds.map(_.cf)
      val goldenSf = Formats.golden(cfs)
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
}
