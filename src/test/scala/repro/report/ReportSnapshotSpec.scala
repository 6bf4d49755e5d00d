package repro.report

import scala.io.{Codec, Source}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.VStoreConfigurator

/** The reproduced Table 2, Table 3 and Fig 11–13 report lines, at the
  * jobs' inputs, and the executed path's lines (`ExecutedReport`), pinned
  * byte for byte to `snapshots/` under the test resources. A change that
  * moves a reported number fails here and must regenerate the snapshot on
  * purpose.
  */
class ReportSnapshotSpec extends AnyFunSuite {

  private lazy val cfg = VStoreConfigurator.derive()

  /** Asserts that `lines` equal `snapshots/<name>.txt` line for line. */
  private def assertLines(name: String, lines: Seq[String]): Unit = {
    val src = Source.fromResource(s"snapshots/$name.txt")(Codec.UTF8)
    val expected = try src.getLines().toVector finally src.close()
    val diff = expected.zipAll(lines, "<missing>", "<missing>").zipWithIndex
      .collect { case ((e, g), i) if e != g => s"line ${i + 1}:\n  want $e\n  got  $g" }
    assert(diff.isEmpty, diff.take(5).mkString(s"$name differs from its snapshot\n", "\n", ""))
  }

  test("Table 2 lines match the snapshot") {
    assertLines("table2", Reports.table2Lines(cfg))
  }

  test("Table 3 lines at the job's budgets match the snapshot") {
    assertLines("table3", Reports.table3Lines(Reports.table3()))
  }

  test("Fig 11 lines match the snapshot") {
    assertLines("fig11", Reports.fig11Lines(cfg))
  }

  test("Fig 12 lines at the job's budgets match the snapshot") {
    assertLines("fig12",
      Reports.fig12Lines(Reports.fig12(cfg)))
  }

  test("Fig 13 lines match the snapshot") {
    assertLines("fig13", Reports.fig13Lines(Reports.fig13()))
  }

  test("executed ingest and cascade lines match the snapshot") {
    // includes the 0.95 runs' known 2/3-sampled-at-1/2 defect (ExecutedReport)
    assertLines("executed", ExecutedReport.lines(ExecutedReport.atDefaults))
  }
}
