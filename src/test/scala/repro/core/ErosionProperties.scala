package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.report.Reports
import repro.video.{OperatorModel, VideoProfile}

/** §4.4: a larger decay factor k never stores more. `Erosion.derivePlan`
  * binary-searches k for the gentlest plan that fits, which is sound only
  * if a plan's bytes over the lifespan are non-increasing in k.
  *
  * That follows from the invariant the shared greedy path rests on: a later
  * step on the path never deletes less of any format, and a lower target
  * (a larger k, or an older age) never stops earlier. So every age's
  * deletion of every format is non-decreasing in k and in the age.
  */
object ErosionProperties extends Properties("Erosion") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(15)

  private val genConsumers = Gen.atLeastOne(OperatorModel.consumers).map(_.toSeq)
  /** k from 0 to KMax in steps of 0.25. */
  private val ks = (0 to (Erosion.KMax * 4).toInt).map(_ / 4.0)

  property("plan bytes are non-increasing in k under every Table 3 budget") =
    Prop.forAll(genConsumers) { consumers =>
      Prop.all(Reports.table3Budgets.map { budget =>
        val cfg = VStoreConfigurator.derive(consumers, budget)
        val (tree, ecs) = VStoreConfigurator.erosionInputs(cfg)
        val bpd = VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson)
        val bytes = ks.map(k =>
          Erosion.planForK(tree, ecs, Reports.fig12LifespanDays, k).bytesPerAge(bpd).sum)
        val rises = ks.zip(bytes).sliding(2).collect {
          case Seq((k0, b0), (k1, b1)) if b1 > b0 => s"k $k0 -> $k1: $b0 -> $b1"
        }.toSeq
        rises.isEmpty :| s"budget $budget, ${consumers.size} consumers: ${rises.mkString("; ")}"
      }: _*)
    }

  property("deletions are non-decreasing in k and in the age under every Table 3 budget") =
    Prop.forAll(genConsumers) { consumers =>
      Prop.all(Reports.table3Budgets.map { budget =>
        val cfg = VStoreConfigurator.derive(consumers, budget)
        val (tree, ecs) = VStoreConfigurator.erosionInputs(cfg)
        val plans = ks.map(k => k -> Erosion.planForK(tree, ecs, Reports.fig12LifespanDays, k))
        // `later` deletes at least as much as `earlier` of every tree format
        def shrinks(earlier: Erosion.Deletion, later: Erosion.Deletion): Seq[String] =
          tree.formats.collect { case sf if later.getOrElse(sf, 0.0) < earlier.getOrElse(sf, 0.0) =>
            s"$sf ${earlier.getOrElse(sf, 0.0)} -> ${later.getOrElse(sf, 0.0)}" }
        val inK = for {
          ((k0, p0), (k1, p1)) <- plans.zip(plans.tail)
          ((d0, d1), x) <- p0.perAge.zip(p1.perAge).zipWithIndex
          m <- shrinks(d0, d1)
        } yield s"k $k0 -> $k1, age ${x + 1}: $m"
        val inAge = for {
          (k, p) <- plans
          ((young, old), x) <- p.perAge.zip(p.perAge.tail).zipWithIndex
          m <- shrinks(young, old)
        } yield s"k $k, age ${x + 1} -> ${x + 2}: $m"
        (inK ++ inAge).isEmpty :|
          s"budget $budget, ${consumers.size} consumers: ${(inK ++ inAge).take(3).mkString("; ")}"
      }: _*)
    }
}
