package repro.jobs

import repro.report.Reports
import repro.core.VStoreConfigurator

/** spark-submit entrypoints, one per reproduced table/figure. No job here
  * starts a Spark job: derivation profiles analytically and the reports
  * read the models. The Spark-executed paths (ingest, cascades, empirical
  * F1) are exercised by the tests: SegmentStoreSpec, QueryEngineSpec, and
  * the test-scope ExecutedReport, whose lines ReportSnapshotSpec pins and
  * whose results Fig11EndToEndBench checks.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val cfg = VStoreConfigurator.derive()
    Reports.table2Lines(cfg).foreach(println)
  }
}

object Table3Job {
  def main(args: Array[String]): Unit = {
    Reports.table3Lines(Reports.table3()).foreach(println)
  }
}

object Fig11Job {
  def main(args: Array[String]): Unit = {
    val cfg = VStoreConfigurator.derive()
    Reports.fig11Lines(cfg).foreach(println)
  }
}

object Fig12Job {
  def main(args: Array[String]): Unit = {
    val cfg = VStoreConfigurator.derive()
    Reports.fig12Lines(Reports.fig12(cfg))
      .foreach(println)
  }
}

object Fig13Job {
  def main(args: Array[String]): Unit = {
    Reports.fig13Lines(Reports.fig13()).foreach(println)
  }
}
