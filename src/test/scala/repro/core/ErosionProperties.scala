package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.report.Reports
import repro.video.{OperatorModel, VideoProfile}

/** §4.4: a larger decay factor k never stores more. `Erosion.derivePlan`
  * binary-searches k for the gentlest plan that fits, which is sound only
  * if a plan's bytes over the lifespan are non-increasing in k.
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
}
