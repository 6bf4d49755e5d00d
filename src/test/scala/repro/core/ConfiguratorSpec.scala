package repro.core

import org.scalatest.funsuite.AnyFunSuite
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
    consumers.foreach { c =>
      assert(cfg.sfs.contains(c.subscribed))
      cfg.sfs.foreach(sf => assert(c.retrievalSpeedOf.contains(sf)))
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

  test("profiler run counters are populated after derivation") {
    val fresh = VStoreConfigurator.derive()
    assert(fresh.profilerA.opRuns > 0)
    assert(fresh.profilerB.opRuns > 0)
    assert(fresh.profilerA.sfRuns > 0) // storage derivation uses profiler A
  }
}
