package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.report.Reports
import repro.video.OperatorModel

/** The golden format is the stored root (§4.3/§4.4) for any consumer subset
  * under every Table 3 ingest budget: it is one of the stored formats,
  * richer-or-equal to every one of them, the root of the erosion tree, and
  * labelled "SFg" in the reports.
  */
object GoldenRootProperties extends Properties("GoldenRoot") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(15)

  private val genConsumers = Gen.atLeastOne(OperatorModel.consumers).map(_.toSeq)

  property("golden is the stored, richest, tree-root SFg under every Table 3 budget") =
    Prop.forAll(genConsumers) { consumers =>
      Prop.all(Reports.table3Budgets.map { budget =>
        val cfg = VStoreConfigurator.derive(consumers, budget)
        val (tree, _) = VStoreConfigurator.erosionInputs(cfg)
        val g = cfg.golden
        val at = s"budget $budget, golden $g, sfs ${cfg.sfs.mkString(" ")}"
        (cfg.sfs.contains(g) :| s"stored: $at") &&
          (cfg.sfs.forall(sf => g.fidelity.richerOrEqual(sf.fidelity)) :| s"richest: $at") &&
          (tree.root == g) :| s"tree root ${tree.root}: $at" &&
          (Reports.sfLabels(cfg).get(g).contains("SFg")) :| s"label: $at"
      }: _*)
    }
}
