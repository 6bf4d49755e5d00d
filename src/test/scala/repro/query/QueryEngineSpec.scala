package repro.query

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, SynthVideo, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.Consumer
import repro.core.VStoreConfigurator
import repro.query.QueryEngine.Stage

class QueryEngineSpec extends SparkSpec {

  private lazy val cfg = VStoreConfigurator.derive()
  private val video = VideoProfile.jackson
  private lazy val frames = SynthVideo.frames(spark, video, durationSec = 160).cache()
  // sparse samplers (1 fps) need a longer clip for the empirical F1 to
  // concentrate: 800 s -> ~240 events at 1 fps, sigma(F1) ~ 0.02
  private lazy val longFrames = SynthVideo.frames(spark, video, durationSec = 800).cache()

  private def stage(op: OperatorModel.Operator, acc: Double): Stage =
    Stage(op, cfg.cfOf(Consumer(op, acc)), cfg.sfOf(Consumer(op, acc)))

  test("stage construction enforces R1") {
    val cf = Fidelity.full
    val sfPoor = StorageFormat(
      Fidelity.full.copy(quality = ImageQuality.Good), Coding.slowestSmallest)
    assertThrows[IllegalArgumentException](Stage(OperatorModel.NN, cf, sfPoor))
  }

  test("analytic stage speed is min(retrieval, consumption)") {
    val st = stage(OperatorModel.License, 0.9)
    val retr = CodecModel.retrievalSpeed(st.sf, st.cf.sampling.fps)
    val cons = OperatorModel.License.consumptionSpeed(st.cf)
    assert(QueryEngine.analyticStageSpeed(st) === math.min(retr, cons))
  }

  test("analytic query speed: single stage equals stage speed") {
    val st = stage(OperatorModel.Motion, 0.9)
    val qs = QueryEngine.analyticQuerySpeed(Seq(st))
    assert(math.abs(qs - QueryEngine.analyticStageSpeed(st)) < 1e-9)
  }

  test("analytic query speed: selectivity discounts later stages") {
    val a = stage(OperatorModel.Motion, 0.9)
    val b = stage(OperatorModel.License, 0.9)
    val qs = QueryEngine.analyticQuerySpeed(Seq(a, b))
    val expect = 1.0 / (1.0 / QueryEngine.analyticStageSpeed(a) +
      OperatorModel.Motion.selectivity / QueryEngine.analyticStageSpeed(b))
    assert(math.abs(qs - expect) < 1e-9)
  }

  test("empirical F1 converges to the analytic accuracy (single stage)") {
    for ((op, acc) <- Seq((OperatorModel.Motion, 0.9), (OperatorModel.License, 0.8),
      (OperatorModel.SNN, 0.9))) {
      val st = stage(op, acc)
      val res = QueryEngine.runCascade(spark, longFrames, video, Seq(st))
      val expect = op.accuracy(st.cf, video)
      val got = res.perOp(op.name).f1
      assert(math.abs(got - expect) < 0.08, s"${op.name}@$acc: F1=$got analytic=$expect")
    }
  }

  test("empirical F1 meets the consumer's target accuracy") {
    val st = stage(OperatorModel.License, 0.8)
    val res = QueryEngine.runCascade(spark, longFrames, video, Seq(st))
    assert(res.perOp("License").f1 >= 0.8 - 0.06, res.perOp("License").f1.toString)
  }

  test("sampled frame counts follow the CF's sampling rate") {
    val st = stage(OperatorModel.License, 0.7) // sparse sampler
    val res = QueryEngine.runCascade(spark, frames, video, Seq(st))
    val everyN = math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)
    val expect = frames.count() / everyN
    assert(math.abs(res.perOp("License").sampled - expect) <= expect / 10 + 8)
  }

  test("no false positives by construction (precision 1 detector)") {
    val st = stage(OperatorModel.Motion, 0.8)
    val res = QueryEngine.runCascade(spark, frames, video, Seq(st))
    // every detection is on an event frame: hits and misses split exactly
    // the sampled event frames
    val everyN = math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)
    val pos = col("frame") % SynthVideo.SegmentFrames
    val sampledEvents = frames.filter(col("isEvent") && pos % everyN === 0).count()
    val r = res.perOp("Motion")
    assert(r.tp + r.fn === sampledEvents)
  }

  test("cascade runs all stages and reports per-op results") {
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    val res = QueryEngine.runCascade(spark, frames, video, stages)
    assert(res.perOp.keySet === Set("Motion", "License", "OCR"))
    assert(res.querySpeed > 0)
  }

  test("empirical query speed is near the analytic model") {
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    val emp = QueryEngine.runCascade(spark, frames, video, stages).querySpeed
    val ana = QueryEngine.analyticQuerySpeed(stages)
    assert(emp / ana > 0.4 && emp / ana < 2.5, s"empirical=$emp analytic=$ana")
  }

  test("higher accuracy targets run slower (accuracy/cost tradeoff)") {
    def speed(acc: Double) = {
      val stages = QueryEngine.stagesFor(OperatorModel.queryB, acc,
        c => cfg.cfOf(c), c => cfg.sfOf(c))
      QueryEngine.analyticQuerySpeed(stages)
    }
    assert(speed(0.7) > speed(0.95), s"0.7=${speed(0.7)} 0.95=${speed(0.95)}")
  }

  test("decode time is charged at the storage format's retrieval speed") {
    val st = stage(OperatorModel.NN, 0.9)
    val res = QueryEngine.runCascade(spark, frames, video, Seq(st))
    val videoSec = frames.count() / 30.0
    val expect = videoSec / CodecModel.retrievalSpeed(st.sf, st.cf.sampling.fps)
    assert(math.abs(res.perOp("NN").decodeSec - expect) / expect < 0.05)
  }

  test("op time tracks per-frame cost times sampled frames") {
    val st = stage(OperatorModel.OCR, 0.9)
    val res = QueryEngine.runCascade(spark, frames, video, Seq(st))
    val r = res.perOp("OCR")
    val expect = r.sampled * OperatorModel.OCR.perFrameSec(st.cf.pixelsPerFrame)
    assert(math.abs(r.opSec - expect) / expect < 1e-6)
  }

  test("stage counters agree with a DuckDB oracle over the frame table") {
    import spark.implicits._
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    val res = QueryEngine.runCascade(spark, frames, video, stages)
    val got = stages.map { st =>
      val r = res.perOp(st.op.name)
      (st.op.name, r.sampled, r.tp, r.fn)
    }.toDF("op", "sampled", "tp", "fn")
    // the frame table plus one detection column per stage; DuckDB does the
    // sampling and the counting
    val probs = stages.map(st => st.op.detectProb(st.cf, video))
    val salts = stages.map(st => s"detect-${st.op.name}")
    val name = video.name // not `video`: the closure must not capture the suite
    val det = frames.as[repro.Frame].map { f =>
      val d = salts.zip(probs).map { case (salt, p) => SynthVideo.u01Scala(name, f.frame, salt) < p }
      (f.frame, f.isEvent, d(0), d(1), d(2))
    }.toDF("frame", "isEvent", "d0", "d1", "d2")
    val sql = stages.zipWithIndex.map { case (st, i) =>
      val everyN = math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)
      val sampled = s"CAST(frame AS BIGINT) % ${SynthVideo.SegmentFrames} % $everyN = 0"
      val event = "CAST(isEvent AS BOOLEAN)"
      val hit = s"CAST(d$i AS BOOLEAN)"
      s"SELECT '${st.op.name}' AS op, " +
        s"sum(CASE WHEN $sampled THEN 1 ELSE 0 END) AS sampled, " +
        s"sum(CASE WHEN $sampled AND $event AND $hit THEN 1 ELSE 0 END) AS tp, " +
        s"sum(CASE WHEN $sampled AND $event AND NOT $hit THEN 1 ELSE 0 END) AS fn FROM det"
    }.mkString(" UNION ALL ")
    repro.Oracle.assertEquivalent(got, sql, "det" -> det)
  }

  test("an empty frame table fails with a clear error") {
    // three times: the second run reuses the first run's planned rows and
    // the empty partition set it learned, and so does the third. `lit(false)`
    // is planned as no partitions at all; `segId < 0` runs every partition
    // of the cached table once, and then none.
    for ((empty, what) <- Seq(frames.filter(lit(false)) -> "lit(false)",
                              frames.filter(col("segId") < 0) -> "segId < 0"); call <- 1 to 3) {
      val e = intercept[IllegalArgumentException] {
        QueryEngine.runCascade(spark, empty, video, Seq(stage(OperatorModel.Motion, 0.9)))
      }
      assert(e.getMessage.contains("frame table is empty"), s"$what, call $call: ${e.getMessage}")
    }
  }

  test("an empty cascade fails with a clear error") {
    val e = intercept[IllegalArgumentException] {
      QueryEngine.runCascade(spark, frames, video, Seq.empty)
    }
    assert(e.getMessage.contains("no stages"), e.getMessage)
  }

  test("two stages with the same operator fail with a clear error") {
    val e = intercept[IllegalArgumentException] {
      QueryEngine.runCascade(spark, frames, video,
        Seq(stage(OperatorModel.Motion, 0.9), stage(OperatorModel.Motion, 0.7)))
    }
    assert(e.getMessage.contains("Motion appears in more than one stage"), e.getMessage)
  }

  test("results equal a driver-side reference and do not depend on partitioning") {
    import spark.implicits._
    // a 400 s window filtered from a cached 480 s table, as the benchmark
    // filters its cached streams
    for ((v, cascade) <- Seq((VideoProfile.jackson, OperatorModel.queryA),
                             (VideoProfile.dashcam, OperatorModel.queryB))) {
      val table = SynthVideo.frames(spark, v, durationSec = 480).cache()
      val window = table.filter(col("segId") < 400 / 8)
      val all = window.as[repro.Frame].collect().toSeq
      for (acc <- OperatorModel.accuracyLevels) {
        val stages = QueryEngine.stagesFor(cascade, acc, c => cfg.cfOf(c), c => cfg.sfOf(c))
        val expect = QueryEngineSpec.reference(all, v, stages)
        val plannedAgain = table.filter(col("segId") < 400 / 8)
        for ((input, layout) <- Seq(window -> "window", window.repartition(7) -> "repartition(7)",
                                    plannedAgain -> "window, planned again")) {
          val wrong = QueryEngineSpec.mismatches(QueryEngine.runCascade(spark, input, v, stages), expect)
          assert(wrong.isEmpty, s"${v.name}@$acc $layout: ${wrong.mkString("; ")}")
        }
      }
      table.unpersist()
    }
  }

  test("a 3-stage cascade is one Spark job with no shuffle") {
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    frames.count() // materialise the cache outside the measured window
    val (jobs, shuffleBytes, _) = sparkActivity(QueryEngine.runCascade(spark, frames, video, stages))
    assert((jobs, shuffleBytes) === ((1, 0L)))
  }

  // ----- planned-rows memo -------------------------------------------------

  private val cascadeCols = Seq("frame", "isEvent")
  /** A fresh selection of the cascade's columns: a new Dataset on every call. */
  private def selected(df: DataFrame) = df.select(cascadeCols.map(col): _*)
  private def rowsOf(rows: RDD[InternalRow]) = rows.map(_.copy()).collect().toSeq
  private def firstSegs(df: DataFrame, n: Int) = df.filter(col("segId") < n)

  test("equal windows share one planned-rows entry and give equal results") {
    val a = QueryEngine.plannedRows(selected(firstSegs(frames, 10)))
    val b = QueryEngine.plannedRows(selected(firstSegs(frames, 10)))
    assert(a eq b)
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    assert(QueryEngine.runCascade(spark, firstSegs(frames, 10), video, stages) ===
      QueryEngine.runCascade(spark, firstSegs(frames, 10), video, stages))
  }

  test("another segId literal, cached video or column list gets its own entry") {
    val other = SynthVideo.frames(spark, VideoProfile.dashcam, durationSec = 160).cache()
    val variants = Seq[() => DataFrame](
      () => selected(firstSegs(frames, 10)),
      () => selected(firstSegs(frames, 11)),
      () => selected(firstSegs(other, 10)),
      () => firstSegs(frames, 10).select("isEvent", "frame"))
    val planned = variants.map(v => QueryEngine.plannedRows(v()))
    for (((v, window), i) <- variants.zip(planned).zipWithIndex) {
      assert(QueryEngine.plannedRows(v()) eq window, s"variant $i is not memoized")
      assert(planned.count(_ eq window) === 1, s"variant $i shares an entry")
      assert(rowsOf(window.rows) === rowsOf(v().queryExecution.toRdd), s"variant $i")
    }
    other.unpersist()
  }

  test("uncached frames, a repartition and a union are planned per call") {
    // 88 s: no other test caches a jackson table of this length
    val uncached = SynthVideo.frames(spark, video, durationSec = 88)
    val window = firstSegs(frames, 10)
    // a cached table whose own plan is not deterministic (see the test below)
    val random = SynthVideo.frames(spark, video, durationSec = 120).filter(rand(7) < 0.5).cache()
    for ((input, what) <- Seq(uncached -> "uncached", window.repartition(7) -> "repartition(7)",
                              window.union(window) -> "union", firstSegs(random, 3) -> "rand(7) table")) {
      val before = QueryEngine.planMemoSize
      val (a, b) = (QueryEngine.plannedRows(selected(input)), QueryEngine.plannedRows(selected(input)))
      assert(a ne b, what)
      assert(QueryEngine.planMemoSize === before, what)
    }
    random.unpersist()
  }

  test("an unpersist() then cache() of the same DataFrame misses") {
    val table = SynthVideo.frames(spark, video, durationSec = 120).cache()
    val first = QueryEngine.plannedRows(selected(firstSegs(table, 5)))
    table.unpersist()
    table.cache()
    val second = QueryEngine.plannedRows(selected(firstSegs(table, 5)))
    assert(second ne first)
    assert(rowsOf(second.rows) === rowsOf(selected(firstSegs(table, 5)).queryExecution.toRdd))
    table.unpersist()
  }

  test("the planned-rows memo never exceeds its cap") {
    for (n <- 1 to QueryEngine.PlanMemoCap + 5) {
      QueryEngine.plannedRows(selected(firstSegs(frames, 1000 + n)))
      assert(QueryEngine.planMemoSize <= QueryEngine.PlanMemoCap, s"after $n windows")
    }
    assert(QueryEngine.planMemoSize === QueryEngine.PlanMemoCap)
  }

  test("a cascade over already planned rows is one Spark job with no shuffle") {
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    // segments 6 to 11: no other test plans this window, so its first run
    // here is the one that learns which partitions hold its rows
    def window = frames.filter(col("segId") >= 6 && col("segId") < 12)
    frames.count() // materialise the cache outside the measured window
    val all = window.queryExecution.toRdd.getNumPartitions
    val live = window.select(spark_partition_id()).distinct().count().toInt
    assert(sparkActivity(QueryEngine.runCascade(spark, window, video, stages)) === ((1, 0L, all)))
    val planned = QueryEngine.plannedRows(selected(window))
    assert(QueryEngine.plannedRows(selected(window)) eq planned)
    assert(planned.partitions.size === live)
    for (rerun <- 1 to 2)
      assert(sparkActivity(QueryEngine.runCascade(spark, window, video, stages)) === ((1, 0L, live)),
        s"re-run $rerun")
  }

  test("a window over a nondeterministic cached table runs every partition on every call") {
    // `rand` decides which frames the table holds; were its blocks
    // recomputed, rows could land in a partition that held none of the
    // window's rows before, so the window is not memoized
    val table = SynthVideo.frames(spark, video, durationSec = 120).filter(rand(7) < 0.5).cache()
    def window = table.filter(col("segId") < 3)
    table.count()
    val all = window.queryExecution.toRdd.getNumPartitions
    val stages = Seq(stage(OperatorModel.Motion, 0.9))
    val results = scala.collection.mutable.ArrayBuffer.empty[QueryEngine.CascadeResult]
    for (call <- 1 to 3)
      assert(sparkActivity(results += QueryEngine.runCascade(spark, window, video, stages)) ===
        ((1, 0L, all)), s"call $call")
    assert(results.distinct.size === 1)
    assert(QueryEngine.plannedRows(selected(window)).partitions.size === all)
    table.unpersist()
  }

  test("the cascade's task function is a named class, not a lambda") {
    // a lambda (or the 2-argument runJob's wrapper) sends Spark's closure
    // cleaner through class bytecode on every call; results would not change
    val cls = new CascadeCounters(video, Seq(stage(OperatorModel.Motion, 0.9))).getClass
    assert(!cls.isSynthetic, cls.getName)
    assert(!cls.getName.contains("$anonfun$") && !cls.getName.contains("$$Lambda"), cls.getName)
  }

  test("1->N capping: reading golden caps a fast stage's speed") {
    val motionCf = cfg.cfOf(Consumer(OperatorModel.Motion, 0.8))
    val viaOwn = Stage(OperatorModel.Motion, motionCf, cfg.sfOf(Consumer(OperatorModel.Motion, 0.8)))
    val viaGolden = Stage(OperatorModel.Motion, motionCf, cfg.golden)
    assert(QueryEngine.analyticStageSpeed(viaGolden) < QueryEngine.analyticStageSpeed(viaOwn) / 10)
  }
}

object QueryEngineSpec {

  /** One op's reference totals: sampled, tp, fn, decodeSec, opSec, stageSpeed. */
  type OpTotals = (Long, Long, Long, Double, Double, Double)

  /** A cascade's reference result: the query speed and each op's totals. */
  final case class Reference(querySpeed: Double, perOp: Seq[(String, OpTotals)])

  /** The driver-side reference of a cascade over `all`, the collected frames
    * of `v`'s frame table: one loop per stage.
    */
  def reference(all: Seq[repro.Frame], v: VideoProfile, stages: Seq[Stage]): Reference = {
    val videoSec = all.length.toDouble / SynthVideo.Fps
    var fraction = 1.0
    var timePerVideoSec = 0.0
    val perOp = stages.map { st =>
      val everyN = math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)
      val p = st.op.detectProb(st.cf, v)
      val sampled = all.filter(_.frame % SynthVideo.SegmentFrames % everyN == 0)
      val events = sampled.filter(_.isEvent)
      val tp = events.count(f => SynthVideo.u01Scala(v.name, f.frame, s"detect-${st.op.name}") < p)
      val decodeSec = videoSec / CodecModel.retrievalSpeed(st.sf, st.cf.sampling.fps)
      val opSec = sampled.length * st.op.perFrameSec(st.cf.pixelsPerFrame)
      timePerVideoSec += fraction * math.max(decodeSec, opSec) / videoSec
      fraction *= st.op.selectivity
      st.op.name -> ((sampled.length.toLong, tp.toLong, (events.length - tp).toLong,
        decodeSec, opSec, videoSec / math.max(decodeSec, opSec)))
    }
    Reference(1.0 / timePerVideoSec, perOp)
  }

  /** Each way `res` differs from `ref`: counts must be equal, and times and
    * speeds equal within 1e-9 relative. Empty when they agree.
    */
  def mismatches(res: QueryEngine.CascadeResult, ref: Reference): Seq[String] = {
    def rel(a: Double, b: Double) = math.abs(a - b) / math.max(math.abs(b), 1e-300)
    def near(what: String, got: Double, want: Double) =
      if (rel(got, want) < 1e-9) None else Some(s"$what $got, reference $want")
    near("querySpeed", res.querySpeed, ref.querySpeed).toSeq ++ ref.perOp.flatMap {
      case (op, (sampled, tp, fn, decodeSec, opSec, stageSpeed)) =>
        val r = res.perOp(op)
        val counts = if ((r.sampled, r.tp, r.fn) == ((sampled, tp, fn))) None
          else Some(s"$op (sampled, tp, fn) ${(r.sampled, r.tp, r.fn)}, reference ${(sampled, tp, fn)}")
        counts.toSeq ++ near(s"$op decodeSec", r.decodeSec, decodeSec) ++
          near(s"$op opSec", r.opSec, opSec) ++ near(s"$op stageSpeed", r.stageSpeed, stageSpeed)
    }
  }
}
