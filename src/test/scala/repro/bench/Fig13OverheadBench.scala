package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.report.Reports
import repro.core.{Profiler, StorageConfig, VStoreConfigurator}
import repro.video.Knobs._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.Consumer

/** Figure 13 + §6.4 — configuration overhead.
  *
  * Paper: boundary search cuts profiling runs 9-15x and total delay 5x
  * (2000 s -> 400 s; License dominates). Coalescing profiles only 475 of
  * 15K formats with 92% memoization, and matches exhaustive enumeration's
  * result on 12 CFs while being two orders of magnitude faster.
  */
class Fig13OverheadBench extends AnyFunSuite {

  private lazy val rows = Reports.fig13()

  test("boundary search cuts profiling runs by >=3x per operator (paper 9-15x)") {
    rows.foreach { r =>
      assert(r.exhaustiveRuns.toDouble / r.boundaryRuns > 3, s"${r.op}")
    }
  }

  test("the staircase boundary walk needs fewer than 645 profiling runs in total") {
    // 645 is the total of a walk that also probed left of the boundary on
    // every resolution; the staircase only moves right after the first one
    assert(rows.map(_.boundaryRuns).sum < 645)
  }

  test("total profiling delay falls ~5x (paper: 2000 s -> 400 s)") {
    val b = rows.map(_.boundaryDelaySec).sum
    val e = rows.map(_.exhaustiveDelaySec).sum
    info(f"delay: $b%.0f s vs $e%.0f s exhaustive (x${e / b}%.1f; paper x5)")
    assert(e / b > 3)
  }

  test("slow CPU operators dominate the profiling delay (paper: License 75%)") {
    val total = rows.map(_.boundaryDelaySec).sum
    val cpuHeavy = rows.filter(r => Set("License", "OCR", "NN").contains(r.op))
      .map(_.boundaryDelaySec).sum
    info(f"License+OCR+NN share: ${cpuHeavy / total * 100}%.0f%%")
    assert(cpuHeavy / total > 0.5)
  }

  test("one full configuration's profiling delay is minutes, not hours (§6.4)") {
    val totalSec = rows.map(_.boundaryDelaySec).sum
    info(f"full consumption-format derivation: $totalSec%.0f s (paper ~400 s of ~500 s total)")
    assert(totalSec < 3600)
  }

  test("coalescing profiles a tiny fraction of the 15K format space") {
    val cfg = VStoreConfigurator.derive()
    val p = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)
    val triples = VStoreConfigurator.storageInputs(cfg.derived)
    StorageConfig.derive(p, triples)
    val frac = p.sfRuns.toDouble / (Fidelity.space.size * Coding.space.size)
    val hitRate = 1.0 - p.sfRuns.toDouble / p.sfExamined
    info(f"profiled ${p.sfRuns} SFs (${frac * 100}%.1f%% of 15.6K; paper 3%%), " +
      f"memo hit rate ${hitRate * 100}%.0f%% of ${p.sfExamined} examined (paper 92%%)")
    assert(frac < 0.12)
    assert(hitRate > 0.5)
  }

  test("greedy coalescing matches exhaustive enumeration's storage cost (§6.4)") {
    val consumers = for {
      op <- Seq(OperatorModel.Motion, OperatorModel.License)
      a <- OperatorModel.accuracyLevels
    } yield Consumer(op, a)
    val cfg = VStoreConfigurator.derive(consumers)
    val triples = VStoreConfigurator.storageInputs(cfg.derived)
    def cost(r: StorageConfig.Result) =
      r.sfs.map(sf => CodecModel.storedBytesPerSec(sf, VideoProfile.jackson)).sum
    val p1 = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)
    val greedy = StorageConfig.derive(p1, triples)
    val p2 = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)
    val exhaustive = StorageConfig.deriveExhaustive(p2, triples)
    info(f"greedy: ${cost(greedy)}%.0f B/s; " +
      f"exhaustive: ${cost(exhaustive)}%.0f B/s (paper: identical, 37 s vs 5548 s)")
    assert(math.abs(cost(greedy) - cost(exhaustive)) <= cost(exhaustive) * 0.02 + 1e-6)
  }
}
