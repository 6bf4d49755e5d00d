package repro.report

import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.Consumer
import repro.core.{ConsumptionConfig, Erosion, Profiler, VStoreConfigurator}
import repro.core.VStoreConfigurator.Configuration
import repro.baselines.Alternatives

/** Shared computation + formatting for every reproduced table/figure, used
  * by both the spark-submit jobs (jobs/) and the benchmark suites (bench/)
  * so they report identical numbers.
  */
object Reports {

  /** Stable display labels for a configuration's storage formats: the
    * stored golden format is "SFg"; the rest are SF1.. in descending
    * pixel-rate order, mirroring the paper's Table 2.
    */
  def sfLabels(cfg: Configuration): Map[StorageFormat, String] = {
    val rest = cfg.sfs.filterNot(_ == cfg.golden).sortBy(-_.fidelity.pixelRate)
    Map(cfg.golden -> "SFg") ++ rest.zipWithIndex.map { case (sf, i) => sf -> s"SF${i + 1}" }
  }

  // ----- Table 2 ----------------------------------------------------------

  final case class Table2Row(op: String, accuracy: Double, fidelity: Fidelity,
                             sfLabel: String, kbPerSec: Double, consumptionSpeed: Double)
  final case class Table2Sf(label: String, sf: StorageFormat, kbPerSec: Double,
                            retrievalSpeedMin: Double, retrievalSpeedMax: Double)

  def table2(cfg: Configuration): (Vector[Table2Row], Vector[Table2Sf]) = {
    val labels = sfLabels(cfg)
    val rows = for {
      op <- OperatorModel.all
      acc <- OperatorModel.accuracyLevels
    } yield {
      val c = Consumer(op, acc)
      val d = cfg.derived.find(_.consumer == c).get
      val sf = cfg.sfOf(c)
      // uncoalesced per-second size of the CF itself, stored at cheapest-
      // adequate coding (what the paper's CF cells report)
      val video = VStoreConfigurator.profilingVideo(op)
      val ownSf = StorageFormat(d.fidelity, Coding.slowestSmallest)
      val kb = CodecModel.storedBytesPerSec(ownSf, video) / 1024.0
      Table2Row(op.name, acc, d.fidelity, labels(sf), kb, d.consumptionSpeed)
    }
    val sfRows = cfg.sfs.sortBy(sf => labels(sf)).map { sf =>
      val served = cfg.derived.filter(d => cfg.sfOf(d.consumer) == sf)
      val speeds =
        if (served.isEmpty) Vector(CodecModel.retrievalSpeed(sf, sf.fidelity.sampling.fps))
        else served.map(d => CodecModel.retrievalSpeed(sf, d.fidelity.sampling.fps))
      Table2Sf(labels(sf), sf,
        CodecModel.storedBytesPerSec(sf, VideoProfile.jackson) / 1024.0,
        speeds.min, speeds.max)
    }
    (rows.toVector, sfRows)
  }

  def table2Lines(cfg: Configuration): Vector[String] = {
    val (rows, sfs) = table2(cfg)
    val header = "Table 2(a) — consumption formats (op, F1, fidelity, SF, KB/s, speed x)"
    val body = rows.map(r =>
      f"${r.op}%-8s F1=${r.accuracy}%.2f  ${r.fidelity.toString}%-24s ${r.sfLabel}%-4s " +
        f"${r.kbPerSec}%9.1fKB/s ${r.consumptionSpeed}%10.0fx")
    val header2 = "Table 2(b) — storage formats (label, fidelity, coding, KB/s, retrieval x)"
    val body2 = sfs.map(s =>
      f"${s.label}%-4s ${s.sf.fidelity.toString}%-24s ${s.sf.coding.toString}%-12s " +
        f"${s.kbPerSec}%9.1fKB/s ${s.retrievalSpeedMin}%8.0f-${s.retrievalSpeedMax}%-8.0fx")
    (header +: body) ++ (header2 +: body2)
  }

  // ----- Table 3 ----------------------------------------------------------

  final case class Table3Row(budgetCores: Option[Double], ingestCores: Double,
                             storageMBPerSec: Double, storageGBPerDay: Double,
                             nSfs: Int, codings: Vector[(String, String)])

  /** Table 3's ingest budgets in cores per stream (None: unconstrained). */
  val table3Budgets: Seq[Option[Double]] =
    Seq(None, Some(10), Some(8), Some(4), Some(3), Some(2), Some(1), Some(0.5), Some(0.15))

  /** Ingest-budget sweep on the profiling video (jackson), as Table 3. */
  def table3(budgets: Seq[Option[Double]]): Vector[Table3Row] =
    budgets.map { b =>
      val cfg = VStoreConfigurator.derive(ingestBudgetCores = b)
      val labels = sfLabels(cfg)
      val video = VideoProfile.jackson
      val ingest = CodecModel.ingestCores(cfg.sfs, video)
      val bytesSec = cfg.sfs.map(CodecModel.storedBytesPerSec(_, video)).sum
      Table3Row(b, ingest, bytesSec / 1e6, bytesSec * 86400 / 1e9, cfg.sfs.size,
        cfg.sfs.sortBy(sf => labels(sf)).map(sf => labels(sf) -> sf.coding.toString).toVector)
    }.toVector

  def table3Lines(rows: Seq[Table3Row]): Vector[String] = {
    val header = "Table 3 — ingestion budget sweep (budget cores, used cores, MB/s, GB/day, formats)"
    (header +: rows.map { r =>
      val b = r.budgetCores
        .map(x => if (x == math.floor(x)) x.toInt.toString else f"$x%.2f")
        .getOrElse("none")
      val fmts = r.codings.map { case (l, c) => s"$l=$c" }.mkString(" ")
      f"budget=$b%-5s used=${r.ingestCores}%5.2f  ${r.storageMBPerSec}%5.2f MB/s  " +
        f"${r.storageGBPerDay}%6.1f GB/day  n=${r.nSfs}  $fmts"
    }).toVector
  }

  // ----- Figure 11 --------------------------------------------------------

  final case class Fig11Speed(query: String, video: String, accuracy: Double,
                              config: String, speed: Double)
  final case class Fig11Cost(video: String, config: String,
                             storageGBPerDay: Double, ingestCores: Double)

  def fig11(cfg: Configuration): (Vector[Fig11Speed], Vector[Fig11Cost]) = {
    val speeds = for {
      (qName, cascade, videos) <- Vector(
        ("A", OperatorModel.queryA, VideoProfile.queryAVideos),
        ("B", OperatorModel.queryB, VideoProfile.queryBVideos))
      video <- videos
      acc <- OperatorModel.accuracyLevels
      alt <- Alternatives.all
    } yield Fig11Speed(qName, video.name, acc, alt.name,
      Alternatives.querySpeed(alt, cfg, cascade, acc))
    val costs = for {
      video <- VideoProfile.all
      alt <- Alternatives.all
    } yield Fig11Cost(video.name, alt.name,
      Alternatives.storageBytesPerSec(alt, cfg, video) * 86400 / 1e9,
      Alternatives.ingestCores(alt, cfg, video))
    (speeds, costs)
  }

  def fig11Lines(cfg: Configuration): Vector[String] = {
    val (speeds, costs) = fig11(cfg)
    val h1 = "Fig 11(a) — query speed (x realtime) by (query, video, accuracy, config)"
    val l1 = speeds.map(s =>
      f"Q${s.query} ${s.video}%-8s F1=${s.accuracy}%.2f ${s.config}%-7s ${s.speed}%10.1fx")
    val h2 = "Fig 11(b,c) — storage GB/day and ingest cores per stream by (video, config)"
    val l2 = costs.map(c =>
      f"${c.video}%-8s ${c.config}%-7s ${c.storageGBPerDay}%8.1f GB/day  ${c.ingestCores}%6.2f cores")
    (h1 +: l1) ++ (h2 +: l2)
  }

  // ----- Figure 12 --------------------------------------------------------

  final case class Fig12Result(budgetBytes: Double, k: Double,
                               speeds: Vector[Double], // per age
                               perAgeBytes: Vector[Double],
                               retention: Vector[Map[String, Double]]) // per age: label -> kept fraction

  /** Fig 12's lifespan, and its storage budgets: fractions of the intact
    * footprint over that lifespan, like the paper's 5/4/3/2 TB.
    */
  val fig12LifespanDays = 10
  def fig12Budgets(cfg: Configuration): Seq[Double] = {
    val intact = VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson).values.sum * fig12LifespanDays
    Seq(1.1, 0.8, 0.6, 0.4).map(_ * intact)
  }

  def fig12(cfg: Configuration, lifespanDays: Int, budgetsBytes: Seq[Double]): Vector[Fig12Result] = {
    val (tree, consumers) = VStoreConfigurator.erosionInputs(cfg)
    val bpd = VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson)
    val labels = sfLabels(cfg)
    budgetsBytes.map { budget =>
      val plan = Erosion.derivePlan(tree, consumers, bpd, lifespanDays, budget)
      val perAge = plan.perAge.map { del =>
        bpd.map { case (sf, b) => b * (1.0 - del.getOrElse(sf, 0.0)) }.sum
      }
      val retention = plan.perAge.map { del =>
        cfg.sfs.map(sf => labels(sf) -> (1.0 - del.getOrElse(sf, 0.0))).toMap
      }
      Fig12Result(budget, plan.k, plan.speeds(tree, consumers), perAge, retention)
    }.toVector
  }

  def fig12Lines(results: Seq[Fig12Result]): Vector[String] = {
    val h = "Fig 12 — erosion: decay factor k per budget; speed and stored bytes per age"
    (h +: results.flatMap { r =>
      val head = f"budget=${r.budgetBytes / 1e12}%.2f TB  k=${r.k}%.2f  total=${r.perAgeBytes.sum / 1e12}%.2f TB"
      val ages = r.speeds.indices.map { i =>
        val ret = r.retention(i).toVector.sortBy(_._1)
          .map { case (l, f) => f"$l=${f * 100}%3.0f%%" }.mkString(" ")
        f"  age=${i + 1}%2d speed=${r.speeds(i)}%5.2f bytes=${r.perAgeBytes(i) / 1e9}%7.1f GB  $ret"
      }
      head +: ages
    }).toVector
  }

  // ----- Figure 13 --------------------------------------------------------

  final case class Fig13Row(op: String, boundaryRuns: Int, boundaryDelaySec: Double,
                            exhaustiveRuns: Int, exhaustiveDelaySec: Double)

  /** Profiling overhead of deriving all four accuracy levels per operator:
    * VStore's boundary search vs exhaustive profiling of the fidelity space.
    */
  def fig13(): Vector[Fig13Row] =
    OperatorModel.all.map { op =>
      val video = VStoreConfigurator.profilingVideo(op)
      val pb = new Profiler(new Profiler.AnalyticOpBackend(video), video)
      OperatorModel.accuracyLevels.foreach(a => ConsumptionConfig.derive(pb, Consumer(op, a)))
      val pe = new Profiler(new Profiler.AnalyticOpBackend(video), video)
      OperatorModel.accuracyLevels.foreach(a => ConsumptionConfig.deriveExhaustive(pe, Consumer(op, a)))
      Fig13Row(op.name, pb.opRuns, pb.opDelaySec, pe.opRuns, pe.opDelaySec)
    }

  def fig13Lines(rows: Seq[Fig13Row]): Vector[String] = {
    val h = "Fig 13 — profiling runs and simulated delay: VStore boundary search vs exhaustive"
    val tot = rows.foldLeft((0, 0.0, 0, 0.0)) { case ((a, b, c, d), r) =>
      (a + r.boundaryRuns, b + r.boundaryDelaySec, c + r.exhaustiveRuns, d + r.exhaustiveDelaySec)
    }
    (h +: rows.toVector.map(r =>
      f"${r.op}%-8s vstore=${r.boundaryRuns}%4d runs ${r.boundaryDelaySec}%8.1f s   " +
        f"exhaustive=${r.exhaustiveRuns}%4d runs ${r.exhaustiveDelaySec}%8.1f s   " +
        f"runs x${r.exhaustiveRuns.toDouble / r.boundaryRuns}%.1f  delay x${r.exhaustiveDelaySec / r.boundaryDelaySec}%.1f")) :+
      f"TOTAL    vstore=${tot._1}%4d runs ${tot._2}%8.1f s   exhaustive=${tot._3}%4d runs ${tot._4}%8.1f s   " +
        f"runs x${tot._3.toDouble / tot._1}%.1f  delay x${tot._4 / tot._2}%.1f"
  }
}
