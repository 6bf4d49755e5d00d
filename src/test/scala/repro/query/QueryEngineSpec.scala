package repro.query

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
    val sampledEvents = frames.filter(col("isEvent") && col("frameIdx") % everyN === 0).count()
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
    val det = frames.as[repro.Frame].map { f =>
      val d = salts.zip(probs).map { case (salt, p) => SynthVideo.u01Scala(f.video, f.frame, salt) < p }
      (f.frameIdx, f.isEvent, d(0), d(1), d(2))
    }.toDF("frameIdx", "isEvent", "d0", "d1", "d2")
    val sql = stages.zipWithIndex.map { case (st, i) =>
      val everyN = math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)
      val sampled = s"CAST(frameIdx AS INT) % $everyN = 0"
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
    val e = intercept[IllegalArgumentException] {
      QueryEngine.runCascade(spark, frames.filter(lit(false)), video,
        Seq(stage(OperatorModel.Motion, 0.9)))
    }
    assert(e.getMessage.contains("frame table is empty"), e.getMessage)
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
    def rel(a: Double, b: Double) = math.abs(a - b) / math.max(math.abs(b), 1e-300)
    for ((v, cascade) <- Seq((VideoProfile.jackson, OperatorModel.queryA),
                             (VideoProfile.dashcam, OperatorModel.queryB))) {
      val table = SynthVideo.frames(spark, v, durationSec = 480).cache()
      val window = table.filter(col("segId") < 400 / 8)
      val all = window.as[repro.Frame].collect()
      val videoSec = all.length.toDouble / SynthVideo.Fps
      for (acc <- OperatorModel.accuracyLevels) {
        val stages = QueryEngine.stagesFor(cascade, acc, c => cfg.cfOf(c), c => cfg.sfOf(c))
        // reference: one loop per stage over the collected frames
        var fraction = 1.0
        var timePerVideoSec = 0.0
        val expect = stages.map { st =>
          val everyN = math.max(1, math.round(SynthVideo.Fps / st.cf.sampling.fps).toInt)
          val p = st.op.detectProb(st.cf, v)
          val sampled = all.filter(_.frameIdx % everyN == 0)
          val events = sampled.filter(_.isEvent)
          val tp = events.count(f => SynthVideo.u01Scala(f.video, f.frame, s"detect-${st.op.name}") < p)
          val decodeSec = videoSec / CodecModel.retrievalSpeed(st.sf, st.cf.sampling.fps)
          val opSec = sampled.length * st.op.perFrameSec(st.cf.pixelsPerFrame)
          timePerVideoSec += fraction * math.max(decodeSec, opSec) / videoSec
          fraction *= st.op.selectivity
          st.op.name -> (sampled.length.toLong, tp.toLong, (events.length - tp).toLong,
            decodeSec, opSec, videoSec / math.max(decodeSec, opSec))
        }
        for ((input, layout) <- Seq(window -> "window", window.repartition(7) -> "repartition(7)")) {
          val res = QueryEngine.runCascade(spark, input, v, stages)
          val where = s"${v.name}@$acc $layout"
          assert(rel(res.querySpeed, 1.0 / timePerVideoSec) < 1e-9, where)
          for ((op, (sampled, tp, fn, decodeSec, opSec, stageSpeed)) <- expect) {
            val r = res.perOp(op)
            assert((r.sampled, r.tp, r.fn) === ((sampled, tp, fn)), s"$where $op")
            assert(rel(r.decodeSec, decodeSec) < 1e-9, s"$where $op decodeSec")
            assert(rel(r.opSec, opSec) < 1e-9, s"$where $op opSec")
            assert(rel(r.stageSpeed, stageSpeed) < 1e-9, s"$where $op stageSpeed")
          }
        }
      }
      table.unpersist()
    }
  }

  test("a 3-stage cascade is one Spark job with no shuffle") {
    val stages = QueryEngine.stagesFor(OperatorModel.queryB, 0.8,
      c => cfg.cfOf(c), c => cfg.sfOf(c))
    frames.count() // materialise the cache outside the measured window
    assert(sparkActivity(QueryEngine.runCascade(spark, frames, video, stages)) === ((1, 0L)))
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
