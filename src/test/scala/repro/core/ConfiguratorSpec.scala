package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.report.Reports
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.Consumer

/** End-to-end backward derivation: the configuration jointly satisfies the
  * paper's R1-R4 and reproduces Table 2's headline statistics.
  */
class ConfiguratorSpec extends AnyFunSuite {

  private lazy val cfg = VStoreConfigurator.derive()

  test("derives a CF for each of the 24 consumers") {
    assert(cfg.derived.size === 24)
    assert(cfg.derived.map(_.consumer).toSet === OperatorModel.consumers.toSet)
  }

  test("cfOf and sfOf are total over the consumer set") {
    OperatorModel.consumers.foreach { c =>
      val f = cfg.cfOf(c)
      val sf = cfg.sfOf(c)
      assert(sf.fidelity.richerOrEqual(f))
    }
  }

  test("unique CF count is ~21 and SF count ~4 (Table 2)") {
    assert(cfg.uniqueCfs.size >= 18 && cfg.uniqueCfs.size <= 24, cfg.uniqueCfs.size.toString)
    assert(cfg.sfs.size >= 3 && cfg.sfs.size <= 6, cfg.sfs.size.toString)
  }

  test("the golden format is in the derived SF set") {
    assert(cfg.sfs.contains(cfg.golden))
  }

  test("cfOf on an unknown consumer fails naming the consumer") {
    val sub = VStoreConfigurator.derive(Seq(Consumer(OperatorModel.NN, 0.9)))
    val unknown = Consumer(OperatorModel.Motion, 0.7)
    val e = intercept[NoSuchElementException](sub.cfOf(unknown))
    assert(e.getMessage.contains(unknown.toString), e.getMessage)
  }

  test("a consumer target outside (0, 1] fails with a named error") {
    for (target <- Seq(0.0, -0.1, 1.5)) {
      val e = intercept[IllegalArgumentException](
        VStoreConfigurator.derive(Seq(Consumer(OperatorModel.License, target))))
      assert(e.getMessage.contains("target accuracy must be in (0, 1]") &&
        e.getMessage.contains(s"got $target"), e.getMessage)
    }
  }

  test("the configuration has >100 knob settings (Table 2: 124 knobs)") {
    val cfKnobs = cfg.uniqueCfs.size * 4
    val sfKnobs = cfg.sfs.map(sf => if (sf.coding.isRaw) 5 else 7).sum
    assert(cfKnobs + sfKnobs >= 100, s"${cfKnobs + sfKnobs} knobs")
  }

  test("profiling videos: NoScope ops on jackson, ALPR ops on dashcam (§6.1)") {
    assert(VStoreConfigurator.profilingVideo(OperatorModel.NN) === VideoProfile.jackson)
    assert(VStoreConfigurator.profilingVideo(OperatorModel.License) === VideoProfile.dashcam)
  }

  test("per-operator knob settings decrease with the accuracy target (mostly)") {
    OperatorModel.all.foreach { op =>
      val fids = OperatorModel.accuracyLevels.map(a => cfg.cfOf(Consumer(op, a)))
      // speeds must be monotone even when individual knobs are not (§6.2:
      // the decrease is complex and can be non-monotone per knob)
      val speeds = OperatorModel.accuracyLevels.map(a =>
        cfg.derived.find(_.consumer == Consumer(op, a)).get.consumptionSpeed)
      speeds.zip(speeds.tail).foreach { case (hi, lo) =>
        assert(lo >= hi - 1e-9, s"${op.name}: $speeds for $fids")
      }
    }
  }

  test("erosion inputs cover every derived consumer and every SF") {
    val (tree, consumers) = VStoreConfigurator.erosionInputs(cfg)
    assert(consumers.size === cfg.derived.size)
    assert(tree.formats.toSet === cfg.sfs.toSet)
    consumers.zip(cfg.derived).foreach { case (c, d) =>
      assert(c.name === d.consumer.toString)
      assert(cfg.sfs.contains(c.subscribed))
      val fps = d.fidelity.sampling.fps
      cfg.sfs.foreach(sf => assert(c.retrievalSpeedOf(sf) === CodecModel.retrievalSpeed(sf, fps),
        s"${c.name} $sf"))
    }
  }

  test("erosion tree roots at the golden format") {
    val (tree, _) = VStoreConfigurator.erosionInputs(cfg)
    assert(tree.root === cfg.golden)
  }

  test("bytesPerDay scales storage bytes to a day") {
    val bpd = VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson)
    cfg.sfs.foreach { sf =>
      assert(math.abs(bpd(sf) -
        CodecModel.storedBytesPerSec(sf, VideoProfile.jackson) * 86400) < 1e-6)
    }
  }

  test("derivation is deterministic") {
    val a = VStoreConfigurator.derive()
    val b = VStoreConfigurator.derive()
    assert(a.derived.map(_.fidelity) === b.derived.map(_.fidelity))
    assert(a.sfs.toSet === b.sfs.toSet)
  }

  test("subset derivation works (single operator)") {
    val consumers = OperatorModel.accuracyLevels.map(a => Consumer(OperatorModel.NN, a))
    val sub = VStoreConfigurator.derive(consumers)
    assert(sub.derived.size === 4)
    assert(sub.sfs.nonEmpty)
  }

  test("rendering Table 2, Fig 11 and Fig 12 leaves the profilers' counters unchanged") {
    val fresh = VStoreConfigurator.derive()
    def counters = Seq(fresh.profilerA, fresh.profilerB)
      .map(p => (p.opRuns, p.sfRuns, p.sfExamined, p.opDelaySec))
    val before = counters
    Reports.table2Lines(fresh)
    Reports.fig11Lines(fresh)
    Reports.fig12Lines(Reports.fig12(fresh))
    assert(counters === before)
  }

  test("profiler run counters are populated after derivation") {
    // the default derive's §6.4/Fig 13 counters (opRuns, sfRuns, sfExamined):
    // profiler A profiles query A's operators and every storage format,
    // profiler B only query B's operators
    val fresh = VStoreConfigurator.derive()
    def counters(p: Profiler) = (p.opRuns, p.sfRuns, p.sfExamined)
    assert(counters(fresh.profilerA) === ((333, 916, 6016)))
    assert(counters(fresh.profilerB) === ((235, 0, 0)))
  }

  test("profiler run counters under every Table 3 budget") {
    // (opRuns, sfRuns, sfExamined) of profiler A: a budget tighter than the
    // unbudgeted ingest profiles the tuned codings and the cheaper-than-pair
    // merges of phase 2; profiler B profiles only query B's operators
    val pinned = Map[Option[Double], (Int, Int, Int)](
      None -> ((333, 916, 6016)), Some(10.0) -> ((333, 916, 6016)),
      Some(8.0) -> ((333, 916, 6019)), Some(4.0) -> ((333, 916, 6019)),
      Some(3.0) -> ((333, 916, 6019)), Some(2.0) -> ((333, 916, 6022)),
      Some(1.0) -> ((333, 916, 6025)), Some(0.5) -> ((333, 916, 6031)),
      Some(0.15) -> ((333, 917, 6044)))
    assert(pinned.keySet === Reports.table3Budgets.toSet)
    for (budget <- Reports.table3Budgets) {
      val fresh = VStoreConfigurator.derive(ingestBudgetCores = budget)
      def counters(p: Profiler) = (p.opRuns, p.sfRuns, p.sfExamined)
      assert(counters(fresh.profilerA) === pinned(budget), s"budget $budget")
      assert(counters(fresh.profilerB) === ((235, 0, 0)), s"budget $budget")
    }
  }
}
