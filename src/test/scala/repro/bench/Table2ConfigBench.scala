package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.report.Reports
import repro.core.VStoreConfigurator
import repro.video.CodecModel

/** Table 2 — the automatically derived configuration of video formats.
  *
  * Paper: 24 consumers -> 21 unique CFs -> 4 SFs (SFg best-720p-1-100%
  * 250-slowest 1393KB/s 23x; SF1 good-540p-1/6 409KB/s 178x; SF2
  * best-540p-1/30 10-fast 92KB/s 331x; SF3 best-200p-1 RAW 1843KB/s
  * 1137-34132x). See EXPERIMENTS.md for the side-by-side diff.
  */
class Table2ConfigBench extends AnyFunSuite {

  private lazy val cfg = VStoreConfigurator.derive()

  test("24 consumers collapse to ~21 unique consumption formats") {
    val n = cfg.uniqueCfs.size
    info(s"unique CFs: $n (paper: 21)")
    assert(n >= 18 && n <= 24)
  }

  test("storage formats: ~4 including golden and a RAW format") {
    val (_, sfs) = Reports.table2(cfg)
    info(s"SFs: ${sfs.map(s => s"${s.label}=${s.sf}")}")
    assert(sfs.size >= 3 && sfs.size <= 6)
    assert(sfs.exists(_.sf.coding.isRaw))
    assert(sfs.exists(_.label == "SFg"))
  }

  test("golden format anchors: ~1.4 MB/s stored, ~23x retrieval (paper row)") {
    val (_, sfs) = Reports.table2(cfg)
    val g = sfs.find(_.label == "SFg").get
    info(f"SFg: ${g.kbPerSec}%.0f KB/s (paper 1393), ${g.retrievalSpeedMax}%.0fx (paper 23x)")
    assert(g.kbPerSec > 1000 && g.kbPerSec < 1800)
    assert(g.retrievalSpeedMax > 15 && g.retrievalSpeedMax < 30)
  }

  test("the RAW format spans a wide retrieval range (paper: 1137-34132x)") {
    val (_, sfs) = Reports.table2(cfg)
    val raw = sfs.filter(_.sf.coding.isRaw).maxBy(_.kbPerSec)
    info(f"raw: ${raw.kbPerSec}%.0f KB/s, ${raw.retrievalSpeedMin}%.0f-${raw.retrievalSpeedMax}%.0fx")
    assert(raw.retrievalSpeedMax / raw.retrievalSpeedMin > 5)
  }

  test("every CF cell's speed decreases down the accuracy column") {
    val (rows, _) = Reports.table2(cfg)
    rows.groupBy(_.op).foreach { case (op, rs) =>
      val byAcc = rs.sortBy(-_.accuracy).map(_.consumptionSpeed)
      byAcc.zip(byAcc.tail).foreach { case (hi, lo) =>
        assert(lo >= hi - 1e-9, s"$op: $byAcc")
      }
    }
  }

  test("Motion's CF is rock-bottom for accuracies <= 0.9 (paper §6.2)") {
    val (rows, _) = Reports.table2(cfg)
    rows.filter(r => r.op == "Motion" && r.accuracy <= 0.9).foreach { r =>
      assert(r.fidelity.resolution.height === 60, r.fidelity.toString)
    }
  }

  test("configuration totals >= 100 knobs (paper: 124)") {
    val knobs = cfg.uniqueCfs.size * 4 + cfg.sfs.map(sf => if (sf.coding.isRaw) 5 else 7).sum
    info(s"knobs: $knobs (paper: 124)")
    assert(knobs >= 100)
  }

  test("unconstrained ingest lands near the paper's ~10 cores") {
    val cores = CodecModel.ingestCores(cfg.sfs, repro.video.VideoProfile.jackson)
    info(f"ingest: $cores%.2f cores/stream (paper: ~10)")
    assert(cores > 5 && cores < 12)
  }
}
