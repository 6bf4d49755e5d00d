package repro.perfbench

import scala.util.Random
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.core.VStoreConfigurator.Configuration
import repro.query.QueryEngine
import repro.store.SegmentStore
import repro.store.SegmentStore.StoredSegment
import repro.video.Formats._
import repro.video.Knobs.Raw
import repro.video.{CodecModel, OperatorModel, SynthVideo, VideoProfile}
import repro.video.OperatorModel.Consumer

/** What one op hands back: its output checks, run after the op's latency is
  * taken, and the video seconds it scanned or ingested.
  */
final case class OpResult(check: () => Seq[String], videoSec: Double = 0.0)

/** A closed-loop workload with one client: `setup` prepares, once, the state
  * the ops run against, then `op(i)` runs op number i. Op inputs are drawn
  * from `seed` and `i` alone, so a seed always yields the same op sequence.
  */
abstract class Workload(val spark: SparkSession, val tracer: Tracer, val seed: Long) {
  def name: String
  /** Ops run before timing starts, to let the JIT and Spark warm up. */
  def warmupOps: Int
  def setup(): Seq[String]
  def op(i: Long): OpResult
  /** Simulated-clock outputs (`sim.*`); identical for two runs of one seed. */
  def fingerprint(): Seq[(String, String)]

  protected def sfPrints(cfg: Configuration): Seq[(String, String)] =
    cfg.sfs.zipWithIndex.map { case (sf, i) => s"sim.default_sf.$i" -> Workload.sfLabel(sf) }

  protected def rng(i: Long): Random = new Random(Workload.mix(seed, i))

  /** Stratified draw: ops are cut into blocks of `n`, and each block takes
    * every value in 0 until n once, in a seeded order. Runs of different
    * seeds then see the same mix of inputs, and only its order differs.
    */
  protected def stratum(salt: Long, i: Long, n: Int): Int =
  {
    val order = new Random(Workload.mix(seed ^ salt, i / n)).shuffle((0 until n).toVector)
    order((i % n).toInt)
  }

  /** `VStoreConfigurator.derive`. When traced, derive's public steps are
    * called one by one so that §4.2 and §4.3 get spans of their own, and the
    * result is compared with `derive`'s after the op.
    */
  protected def derive(consumers: Seq[Consumer], budget: Option[Double]): (Configuration, () => Seq[String]) =
    if (!tracer.tracing) (VStoreConfigurator.derive(consumers, budget), () => Nil)
    else {
      val profA = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)
      val profB = new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.dashcam), VideoProfile.dashcam)
      val derived = tracer.span("core.cf_derive") {
        val d = consumers.map { c =>
          ConsumptionConfig.derive(if (c.op.engine == "noscope") profA else profB, c)
        }.toVector
        tracer.count("consumers", consumers.size)
        tracer.count("profile_op_runs", profA.opRuns + profB.opRuns)
        d
      }
      val storage = tracer.span("core.sf_derive") {
        val (sfRuns, sfExamined) = (profA.sfRuns, profA.sfExamined)
        val triples = derived.map(d => (d.consumer, ConsumptionFormat(d.fidelity), d.consumptionSpeed))
        val s = StorageConfig.derive(profA, triples, budget)
        tracer.count("profile_sf_runs", profA.sfRuns - sfRuns)
        tracer.count("profile_sf_examined", profA.sfExamined - sfExamined)
        tracer.count("coalesce_rounds", s.rounds)
        s
      }
      val cfg = Configuration(derived, storage, profA, profB)
      (cfg, () => {
        val ref = VStoreConfigurator.derive(consumers, budget)
        if (ref.derived == cfg.derived && ref.storage == cfg.storage) Nil
        else Seq("traced derive steps disagree with VStoreConfigurator.derive")
      })
    }

  protected def erosionInputs(cfg: Configuration)
  : (FormatTree, Vector[Erosion.ErosionConsumer], Map[StorageFormat, Double]) =
    tracer.span("core.erosion_inputs") {
      val (tree, consumers) = VStoreConfigurator.erosionInputs(cfg)
      (tree, consumers, VStoreConfigurator.bytesPerDay(cfg, VideoProfile.jackson))
    }

  protected def planChecks(plan: Erosion.Plan, tree: FormatTree,
                           bytesPerDay: Map[StorageFormat, Double], budgetBytes: Double): Seq[String] =
    Checks.rootKept(plan, tree.root) ++ Checks.deletionsCumulative(plan) ++
      Checks.planWithinBudget(plan, bytesPerDay, tree.root, budgetBytes)

  protected def ingest(frames: DataFrame, cfg: Configuration, video: VideoProfile,
                       seconds: Int): Array[StoredSegment] =
    tracer.span("store.ingest") {
      val rows = SegmentStore.ingest(spark, frames, cfg.sfs, video).collect()
      tracer.count("segments", seconds / 8)
      tracer.count("video_s", seconds)
      rows
    }
}

object Workload {
  val names: Seq[String] = Seq("configure", "query", "ingest_erode")

  def apply(name: String, spark: SparkSession, tracer: Tracer, seed: Long): Workload = name match {
    case "configure"    => new Configure(spark, tracer, seed)
    case "query"        => new Query(spark, tracer, seed)
    case "ingest_erode" => new IngestErode(spark, tracer, seed)
    case other => throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
  }

  /** Six significant digits: fingerprints must not depend on the order in
    * which Spark sums doubles.
    */
  def sig(x: Double): String = "%.6g".format(x)

  /** A well-mixed seed for draw `i` of run `seed` (SplitMix64 finalizer):
    * nearby java.util.Random seeds give correlated first draws.
    */
  def mix(seed: Long, i: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + i
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def sfLabel(sf: StorageFormat): String = s"${sf.fidelity}|${sf.coding}"

  val LifespanDays = 10
}

/** Driver-only derivation (§4.2-§4.4): a seeded consumer subset under a
  * seeded ingest budget, then an erosion plan at a seeded storage budget.
  */
final class Configure(spark: SparkSession, tracer: Tracer, seed: Long)
    extends Workload(spark, tracer, seed) {
  import Workload._
  val name = "configure"
  val warmupOps = 400
  private val IngestBudgets = Vector(None, Some(8.0), Some(2.0), Some(0.5))
  private val ErosionBudgets = Vector(1.1, 0.8, 0.6, 0.4)
  private var default: Configuration = _

  def setup(): Seq[String] = {
    val (cfg, agree) = derive(OperatorModel.consumers, None)
    default = cfg
    Checks.r1(cfg) ++ Checks.r2(cfg) ++ agree()
  }

  def op(i: Long): OpResult = {
    val all = OperatorModel.consumers
    val subset = rng(i).shuffle(all).take(6 + stratum(1, i, 19)).sortBy(all.indexOf)
    val budgets = stratum(2, i, IngestBudgets.size * ErosionBudgets.size)
    val budget = IngestBudgets(budgets % IngestBudgets.size)
    val share = ErosionBudgets(budgets / IngestBudgets.size)
    val (cfg, agree) = derive(subset, budget)
    val (tree, consumers, bytesPerDay) = erosionInputs(cfg)
    val budgetBytes = share * bytesPerDay.values.sum * LifespanDays
    val plan = tracer.span("core.erosion_plan") {
      Erosion.derivePlan(tree, consumers, bytesPerDay, LifespanDays, budgetBytes)
    }
    OpResult(() => Checks.r1(cfg) ++ Checks.r2(cfg) ++ Checks.ingestBudget(cfg, budget) ++
      planChecks(plan, tree, bytesPerDay, budgetBytes) ++ agree())
  }

  def fingerprint(): Seq[(String, String)] = sfPrints(default)
}

/** Retrospective cascades (§5) over six cached, ingested streams. */
final class Query(spark: SparkSession, tracer: Tracer, seed: Long)
    extends Workload(spark, tracer, seed) {
  import Workload._
  val name = "query"
  val warmupOps = 12
  /** Each stream is one 4 000 s window long. */
  val StreamSec = 4000
  private var cfg: Configuration = _
  private var frames = Map.empty[String, DataFrame]
  private val xRealtime = scala.collection.mutable.TreeMap.empty[String, String]

  def setup(): Seq[String] = {
    val (c, agree) = derive(OperatorModel.consumers, None)
    cfg = c
    val failures = Seq.newBuilder[String]
    frames = VideoProfile.all.map { v =>
      val f = tracer.span("video.frames") {
        val f = SynthVideo.frames(spark, v, StreamSec).cache()
        f.count()
        f
      }
      val rows = ingest(f, cfg, v, StreamSec)
      failures ++= Checks.catalogRows(rows.length, StreamSec / 8, cfg.sfs.size)
      v.name -> f
    }.toMap
    failures.result() ++ agree()
  }

  def op(i: Long): OpResult = {
    val r = rng(i)
    // Every block of eight ops runs each (query, accuracy) pair once, and
    // every block of four has three 400 s windows and one 4 000 s window.
    val qa = stratum(1, i, 8)
    val (q, cascade, videos) =
      if (qa < 4) ("A", OperatorModel.queryA, VideoProfile.queryAVideos)
      else ("B", OperatorModel.queryB, VideoProfile.queryBVideos)
    val video = videos(r.nextInt(videos.size))
    val accuracy = OperatorModel.accuracyLevels(qa % 4)
    val w = if (stratum(2, i, 4) == 0) 4000 else 400
    // Windows start at the stream's first segment, as in Fig 11's executed
    // check, where the F1 gate's tolerance was set (see README).
    val win = frames(video.name).filter(col("segId") < w / 8)
    val stages = QueryEngine.stagesFor(cascade, accuracy, c => cfg.cfOf(c), c => cfg.sfOf(c))
    val res = tracer.span("query.cascade") {
      val res = QueryEngine.runCascade(spark, win, video, stages)
      tracer.count("stages", stages.size)
      tracer.count("frames_sampled", res.perOp.values.map(_.sampled).sum.toDouble)
      tracer.count("window_video_s", w)
      res
    }
    OpResult(() => {
      if (i < warmupOps) xRealtime(f"sim.xrealtime.Q$q.${video.name}.$accuracy%.2f.${w}s") = sig(res.querySpeed)
      Checks.stageF1(stages, res, accuracy) ++
        Checks.speedRatio(res.querySpeed, QueryEngine.analyticQuerySpeed(stages))
    }, videoSec = w)
  }

  /** Also the executed x-realtime of the warm-up ops (ops 0 until
    * `warmupOps`), which every run of a seed executes.
    */
  def fingerprint(): Seq[(String, String)] =
    sfPrints(cfg) ++ xRealtime.toSeq
}

/** Camera-days: ingest fresh day clips of several streams into every SF,
  * then erode every held day to its age's state in the erosion plan (§4.4).
  */
final class IngestErode(spark: SparkSession, tracer: Tracer, seed: Long)
    extends Workload(spark, tracer, seed) {
  import Workload._
  import IngestErode.Day
  import spark.implicits._
  val name = "ingest_erode"
  val warmupOps = 2
  val DaySec = 4000
  val StreamsPerDay = 4
  val BudgetShare = 0.6
  private val segsPerStream: Long = DaySec / 8

  private var cfg: Configuration = _
  private var plan: Erosion.Plan = _
  private var streams: Vector[VideoProfile] = Vector.empty
  private var days: Vector[Day] = Vector.empty

  private def sfIds: Range = cfg.sfs.indices

  /** Segments per stream the plan keeps of SF `id` at `age`. */
  private def planned(age: Int, id: Int): Long =
    Checks.kept(segsPerStream, plan.perAge(age - 1).getOrElse(cfg.sfs(id), 0.0))

  def setup(): Seq[String] = {
    val (c, agree) = derive(OperatorModel.consumers, None)
    cfg = c
    val (tree, consumers, bytesPerDay) = erosionInputs(cfg)
    val budgetBytes = BudgetShare * bytesPerDay.values.sum * LifespanDays
    plan = tracer.span("core.erosion_plan") {
      Erosion.derivePlan(tree, consumers, bytesPerDay, LifespanDays, budgetBytes)
    }
    streams = new Random(mix(seed, -1L)).shuffle(VideoProfile.all).take(StreamsPerDay).sortBy(VideoProfile.all.indexOf)
    val (rows, failures) = ingestDay()
    // The store starts full: one held day per age, each already at its age's
    // plan state. Keeping the newest segment ids is the rule `erode`
    // applies, so this equals eroding each day through its first ages.
    days = (1 to LifespanDays).map { age =>
      val kept = sfIds.map(id => id -> planned(age, id)).toMap
      Day(age, rows.filter(s => s.segId >= segsPerStream - kept(s.sfId)), kept)
    }.toVector
    failures ++ planChecks(plan, tree, bytesPerDay, budgetBytes) ++ agree()
  }

  /** Ingest one fresh day clip per stream; returns the catalog and checks. */
  private def ingestDay(): (Array[StoredSegment], Seq[String]) = {
    val rows = streams.toArray.flatMap { v =>
      ingest(SynthVideo.frames(spark, v, DaySec), cfg, v, DaySec)
    }
    val bytes = tracer.span("store.bytes_by_format") {
      SegmentStore.bytesByFormat(spark.createDataset(rows.toSeq))
    }
    val raw = cfg.sfs.zipWithIndex.collect { case (sf, id) if sf.coding == Raw =>
      id -> streams.map(v => CodecModel.storedBytesPerSec(sf, v) * DaySec).sum
    }.toMap
    (rows, Checks.catalogRows(rows.length, segsPerStream * streams.size, cfg.sfs.size) ++
      Checks.rawBytes(bytes, raw))
  }

  def op(i: Long): OpResult = {
    val (fresh, ingestFailures) = ingestDay()
    val aged = Day(1, fresh, sfIds.map(_ -> segsPerStream).toMap) +:
      days.map(d => d.copy(age = d.age + 1)).filter(_.age <= LifespanDays)
    days = aged.map { d =>
      sfIds.foldLeft(d) { (day, id) =>
        val (have, want) = (day.kept(id), planned(day.age, id))
        if (want >= have) day
        else tracer.span("store.erode") {
          // erode's fraction is of the segments still held
          val left = SegmentStore.erode(spark.createDataset(day.rows.toSeq), id,
            (have - want).toDouble / have)(spark).collect()
          tracer.count("calls", 1)
          tracer.count("segments_deleted", ((have - want) * streams.size).toDouble)
          day.copy(rows = left, kept = day.kept.updated(id, want))
        }
      }
    }
    val held = days
    OpResult(() => ingestFailures ++ held.flatMap { d =>
      val want = sfIds.map(id => id -> planned(d.age, id)).filter(_._2 > 0).toMap
      streams.flatMap { v =>
        val actual = d.rows.filter(_.video == v.name).groupBy(_.sfId).map { case (k, s) => k -> s.length.toLong }
        Checks.survivors(actual, want).map(f => s"day age ${d.age} ${v.name}: $f")
      }
    }, videoSec = DaySec * streams.size)
  }

  def fingerprint(): Seq[(String, String)] = {
    val bytes = SegmentStore.bytesByFormat(spark.createDataset(days.flatMap(_.rows)))
    sfPrints(cfg) ++ Seq("sim.erosion_k" -> sig(plan.k), "sim.streams" -> streams.map(_.name).mkString(",")) ++
      sfIds.map(id => s"sim.stored_bytes.sf$id" -> sig(bytes.getOrElse(id, 0.0)))
  }
}

object IngestErode {
  /** One held day: its age in days, its catalog rows, and the segments
    * each SF keeps per stream. The catalog lives in driver memory; each
    * store call gets a Dataset over it.
    */
  final case class Day(age: Int, rows: Array[StoredSegment], kept: Map[Int, Long])
}
