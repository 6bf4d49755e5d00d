package repro.bench

import repro.SparkSpec
import repro.report.Reports
import repro.core.VStoreConfigurator
import repro.video.{SynthVideo, VideoProfile}
import repro.video.OperatorModel
import repro.query.QueryEngine
import repro.store.SegmentStore

/** Figure 11 — end-to-end query speed / storage / ingestion, VStore vs the
  * 1->1, 1->N, N->N alternatives, plus a Spark-executed run of both query
  * cascades streaming segments through (simulated) decode to operators.
  *
  * Paper: VStore runs up to 362x realtime, accelerates low-accuracy queries
  * by up to 150x, beats 1->N by 3-16x, halves-to-fifths N->N's storage, and
  * needs ~10 cores/stream to ingest (dashcam much more).
  */
class Fig11EndToEndBench extends SparkSpec {

  private lazy val cfg = VStoreConfigurator.derive()
  private lazy val (speeds, costs) = Reports.fig11(cfg)

  test("print Figure 11 numbers (paper vs measured in EXPERIMENTS.md)") {
    Reports.fig11Lines(cfg).foreach(info(_))
  }

  test("VStore reaches hundreds of x realtime (paper: up to 362x)") {
    val best = speeds.filter(_.config == "VStore").map(_.speed).max
    info(f"peak VStore speed: $best%.0fx (paper: 362x)")
    assert(best > 100)
  }

  test("lowering accuracy accelerates queries by >=10x (paper: up to 150x)") {
    for (q <- Seq("A", "B"); v <- speeds.filter(s => s.query == q).map(_.video).distinct) {
      val mine = speeds.filter(s => s.query == q && s.video == v && s.config == "VStore")
      val hi = mine.find(_.accuracy == 0.95).get.speed
      val lo = mine.find(_.accuracy == 0.70).get.speed
      assert(lo / hi > 10, s"Q$q $v: x${lo / hi}")
    }
  }

  test("VStore >= every alternative at every operating point") {
    speeds.groupBy(s => (s.query, s.video, s.accuracy)).foreach { case (k, ss) =>
      val vs = ss.find(_.config == "VStore").get.speed
      ss.filterNot(_.config == "VStore").foreach { o =>
        assert(vs >= o.speed * 0.99, s"$k: VStore=$vs ${o.config}=${o.speed}")
      }
    }
  }

  test("VStore beats 1->N by 3-16x+ at low accuracies (paper claim)") {
    val lows = speeds.filter(s => s.accuracy <= 0.8)
    val ratios = lows.groupBy(s => (s.query, s.video, s.accuracy)).map { case (_, ss) =>
      ss.find(_.config == "VStore").get.speed / ss.find(_.config == "1->N").get.speed
    }
    info(f"VStore/1->N at low accuracy: ${ratios.min}%.1f-${ratios.max}%.1fx (paper 3-16x)")
    assert(ratios.min > 2)
  }

  test("storage: 1->1 < VStore < N->N on every video (Fig 11b)") {
    costs.groupBy(_.video).foreach { case (v, cs) =>
      def of(n: String) = cs.find(_.config == n).get.storageGBPerDay
      assert(of("1->1") <= of("VStore") && of("VStore") <= of("N->N"), v)
      assert(of("N->N") / of("VStore") > 1.5, s"$v: x${of("N->N") / of("VStore")}")
    }
  }

  test("dashcam is the costliest stream (paper: 2.6 TB/day under N->N)") {
    val nn = costs.filter(_.config == "N->N")
    val worst = nn.maxBy(_.storageGBPerDay)
    info(f"N->N dashcam: ${worst.storageGBPerDay}%.0f GB/day (paper ~2600)")
    assert(worst.video === "dashcam")
  }

  test("ingest: VStore needs several cores/stream; N->N much more (Fig 11c)") {
    costs.filter(_.config == "VStore").foreach { c =>
      assert(c.ingestCores > 3 && c.ingestCores < 20, s"${c.video}: ${c.ingestCores}")
    }
    costs.groupBy(_.video).foreach { case (v, cs) =>
      val vs = cs.find(_.config == "VStore").get.ingestCores
      val nn = cs.find(_.config == "N->N").get.ingestCores
      assert(vs < nn * 0.7, s"$v: vstore=$vs nn=$nn (paper: 30-50% lower)")
    }
  }

  test("Spark execution: ingest then run both cascades at two accuracies") {
    // The streamed path: synth frames -> per-partition transcode into the
    // derived SFs -> cascade with simulated decode + per-frame operators.
    for ((video, cascade, qName) <- Seq(
      (VideoProfile.jackson, OperatorModel.queryA, "A"),
      (VideoProfile.dashcam, OperatorModel.queryB, "B"))) {
      val frames = SynthVideo.frames(spark, video, durationSec = 400).cache()
      val stored = SegmentStore.ingest(spark, frames, cfg.sfs, video)
      assert(stored.count() === (400 / 8).toLong * cfg.sfs.size)
      for (acc <- Seq(0.9, 0.7)) {
        val stages = QueryEngine.stagesFor(cascade, acc, c => cfg.cfOf(c), c => cfg.sfOf(c))
        val res = QueryEngine.runCascade(spark, frames, video, stages)
        info(f"Q$qName ${video.name} F1=$acc%.2f executed: ${res.querySpeed}%.0fx realtime " +
          res.perOp.map { case (op, r) => f"$op=${r.f1}%.2f" }.mkString(" "))
        // every stage's empirical F1 must be near its target
        stages.foreach { st =>
          val f1 = res.perOp(st.op.name).f1
          assert(f1 >= acc - 0.12, s"${st.op.name}: F1=$f1 target=$acc")
        }
        val ana = QueryEngine.analyticQuerySpeed(stages)
        assert(res.querySpeed / ana > 0.4 && res.querySpeed / ana < 2.5,
          s"executed=${res.querySpeed} analytic=$ana")
      }
      frames.unpersist()
    }
  }
}
